"""The README's Python examples run as written and print what they say, and
its table of registered cases matches the registry."""

import ast
import contextlib
import io
import re
from pathlib import Path

from amortcheck import get_case, registered_names

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


def test_readme_case_table_matches_the_registry():
    # One row per registered case, in registry order, with its own mode.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Registered cases\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| .+ \| (\w+) \|$", section, re.M)
    assert rows == [(name, get_case(name).phi.mode.value) for name in registered_names()]
