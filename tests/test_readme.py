"""The README's Python examples run as written and print what they say, its
table of registered cases matches the registry, and the CLI flags it lists
are the parser's."""

import ast
import contextlib
import io
import re
from pathlib import Path

from amortcheck import get_case, registered_names
from amortcheck.cli import build_parser

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


def test_readme_cli_flags_match_the_parser():
    # Each "Flags of `a`, `b` ..." sentence of the CLI paragraph lists the
    # flags of the subcommands it names; a flag's `x|y` values are its choices.
    text = README.read_text(encoding="utf-8")
    start = text.index("Flags of `verify`, `all` and `trace`")
    paragraph = " ".join(text[start:].split("\n\n", 1)[0].split())
    listed = {}
    for sentence in re.split(r"(?<=\.) ", paragraph):
        head = re.match(r"Flags? of (.+?)(?: only)?: (.*)", sentence)
        if head:
            flags = dict(re.findall(r"`(--[\w-]+) ?([^`]*)`", head[2]))
            for name in re.findall(r"`(\w+)`", head[1]):
                listed.setdefault(name, {}).update(flags)
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if a.dest == "subcommand"]
    assert set(listed) == {"verify", "all", "trace"}
    for name, sub in subcommands.choices.items():
        options = {
            opt: action
            for action in sub._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        }
        assert sorted(listed.get(name, {})) == sorted(options), name
        for flag, values in listed.get(name, {}).items():
            if "|" in values:
                assert values.split("|") == list(options[flag].choices), (name, flag)
