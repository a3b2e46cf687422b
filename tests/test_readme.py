"""The README's Python examples run as written and print what they say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_readme_python_blocks_run_and_print_their_comments():
    # Each ``print(...)  # <literal>`` line must print that literal, in order.
    blocks = _python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for block in blocks:
        expected = [
            str(ast.literal_eval(comment))
            for comment in re.findall(r"^print\(.*\)\s*#\s*(.+?)\s*$", block, re.M)
        ]
        assert expected, block
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
        assert out.getvalue().splitlines() == expected
