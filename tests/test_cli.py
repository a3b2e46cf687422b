"""CLI behavior: exit codes, output formats, determinism."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from amortcheck import Mode, VerificationCase, get_case, registered_names
from amortcheck import cli
from amortcheck.cli import CSV_HEADER, _csv_rows, main
from amortcheck.registry import CASES, CONTROLS

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_ALL_CSV = ROOT / "perfbench" / "expected" / "all.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_names_and_negative_marker(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    for name in [
        "allocator", "varying", "dynarray", "dynarray-update", "stack",
        "queue-lax", "queue-exact", "deque", "buffer", "rand-alloc", "piggy",
        "alloc16-via-8", "counter-via-stack", "queue-via-stacks",
        "allocator-broken", "typed-observable", "typed-state",
    ]:
        assert name in out
    assert "negative-control" in out


def test_every_registered_case_carries_its_registry_name():
    # `verify` and `all` print the case's own name; README keys by the registry's.
    for name in registered_names():
        assert get_case(name).name == name


def test_cases_and_controls_share_no_name():
    # A shared name would keep the control's factory in REGISTRY while `all`,
    # which runs `registered_names(False)`, still listed it as a case.
    assert not CASES.keys() & CONTROLS.keys()
    assert registered_names(False) == list(CASES)
    assert registered_names() == list(CASES) + list(CONTROLS)


def test_verify_help_states_the_bound_defaults(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    text = " ".join(out.split())  # argparse wraps help text
    assert f"bound, else {VerificationCase.max_depth})" in text
    assert f"bound, else {VerificationCase.max_states})" in text


def test_verify_passing_case_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "allocator")
    assert code == 0
    assert "PASS" in out and "states=8" in out


def test_verify_forced_exact_queue_fails_with_counterexamples(capsys):
    code, out, _ = run(capsys, "verify", "queue-lax", "--mode", "exact")
    assert code == 1
    assert "FAIL" in out and "cost-mismatch" in out


def test_leaving_out_mode_keeps_each_cases_own_mode():
    parser = cli.build_parser()
    names = registered_names()
    for argv in (["verify", *names], ["all"], ["trace", "buffer", "--file", "t.txt"]):
        assert parser.parse_args(argv).mode is None
    modes = [case.phi.mode for case in cli._resolve_cases(names, None)]
    assert modes == [get_case(name).phi.mode for name in names]
    assert set(modes) == set(Mode)


def test_mode_takes_only_exact_or_colax(capsys):
    code, out, err = run(capsys, "verify", "queue-lax", "--mode", "default")
    assert code == 2 and out == ""
    assert re.search(r"argument --mode: invalid choice: '?default'?", err)


def test_verify_negative_control_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "allocator-broken")
    assert code == 1
    assert "FAIL" in out


def test_verify_typed_observable_control_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "typed-observable")
    assert code == 1
    assert "FAIL" in out and "behavior-mismatch" in out


def test_verify_typed_state_control_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "typed-state")
    assert code == 1
    assert "FAIL" in out and "cost-mismatch" in out and "._Q>t(i0)" in out


def test_unknown_case_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "nonesuch")
    assert code == 2 and out == ""
    assert err == "error: unknown case 'nonesuch'; run `amortcheck list` for the registry\n"


def test_colax_override_rejected_on_unordered_model(capsys):
    code, _, err = run(capsys, "verify", "buffer", "--mode", "colax")
    assert code == 2
    assert err == "error: buffer: colax mode needs an ordered cost monoid\n"


def test_csv_output_is_deterministic(capsys):
    args = ("verify", "allocator", "queue-exact", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("allocator,exact,8,8,pass,")
    assert len(lines) == 3


def test_csv_slack_empty_for_non_numeric_cost(capsys):
    code, out, _ = run(capsys, "verify", "buffer", "--format", "csv")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row == "buffer,exact,15,225,pass,"


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "verify", "allocator", "--format", "csv", "--out", str(target)
    )
    assert code == 0 and out == ""
    content = target.read_text()
    assert content.startswith(CSV_HEADER)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, fmt):
    args = ("verify", "allocator", "allocator-broken", "--format", fmt)
    code, out, _ = run(capsys, *args)
    target = tmp_path / "report"
    code_out, out_empty, _ = run(capsys, *args, "--out", str(target))
    assert code == code_out == 1 and out_empty == ""
    # Text reports end each head line with the case's wall time.
    mask = lambda text: re.sub(r" \d+\.\d{3}s$", " _s", text, flags=re.M)
    written = target.read_bytes().decode()
    assert written.endswith("\n") and mask(written) == mask(out)


def test_trace_subcommand(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("# eight allocations\n" + "alloc ()\n" * 8)
    code, out, _ = run(capsys, "trace", "allocator", "--file", str(trace))
    assert code == 0
    assert "PASS" in out


def test_trace_subcommand_buffer_csv(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text('write "ab"\nwrite "bba"\nwrite ""\n')
    code, out, _ = run(
        capsys, "trace", "buffer", "--file", str(trace), "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "buffer,exact,4,3,pass,"


def test_trace_csv_prints_counterexamples_on_stderr(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc ()\n" * 2)
    code, out, err = run(
        capsys, "trace", "allocator-broken", "--file", str(trace), "--format", "csv"
    )
    assert code == 1
    assert out == CSV_HEADER + "\nallocator-broken,exact,3,2,fail,-12\n"
    assert err == (
        "allocator-broken:  telescope at telescoped total: "
        "wanted lhs = rhs, got lhs=2 rhs=14\n"
    )


def test_verify_limit_flag_caps_counterexamples(capsys):
    code, out, _ = run(
        capsys, "verify", "allocator-broken", "--limit", "2"
    )
    assert code == 1
    assert out.count("cost-mismatch") == 2


def test_trace_parse_error_reports_line_and_column(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text('write "ab"\nwrite "qq"\n')
    code, out, err = run(capsys, "trace", "buffer", "--file", str(trace))
    assert code == 2 and out == ""
    assert "line 2" in err and "column 7" in err
    assert err.startswith(f"error: {trace}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("merge ()", "column 1: merge is 2-in/1-out, not 1-in/1-out"),
        ("  split ()", "column 3: split is 1-in/2-out, not 1-in/1-out"),
        ("bogus ()", "column 1: unknown method 'bogus'"),
        ("deposit 7", "column 9: argument '7' is not in the domain of 'deposit'"),
        ("deposit", "column 8: missing argument for 'deposit'"),
    ],
)
def test_trace_file_line_the_door_refuses_is_placed(tmp_path, capsys, line, message):
    # `Coalgebra.step_method` is the parser's door: its message, at the line.
    trace = tmp_path / "t.txt"
    trace.write_text(f"# piggy\n{line}\n")
    code, out, err = run(capsys, "trace", "piggy", "--file", str(trace))
    assert (code, out) == (2, "")
    assert err == f"error: {trace}: line 2, {message}\n"


def test_trace_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "trace", "buffer", "--file", "/nonexistent/t.txt")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read trace file '/nonexistent/t.txt': ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("subcommand", ["verify", "trace"])
def test_unwritable_out_path_is_usage_error(tmp_path, capsys, subcommand):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc ()\n")
    args = {
        "verify": ("verify", "allocator"),
        "trace": ("trace", "allocator", "--file", str(trace)),
    }[subcommand]
    target = str(tmp_path / "missing" / "f")
    code, out, err = run(capsys, *args, "--out", target)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target!r}: ")
    assert err.count("\n") == 1  # one line, no traceback


def test_negative_limit_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "allocator-broken", "--limit", "-1")
    assert code == 2 and out == ""
    assert err == "error: limit must be >= 0\n"


@pytest.mark.parametrize(
    "flag", [["--limit", "3"], ["--max-depth", "1"], ["--max-states", "9"]]
)
def test_trace_rejects_exploration_flags(tmp_path, capsys, flag):
    trace = tmp_path / "t.txt"
    trace.write_text("alloc ()\n")
    code, out, err = run(capsys, "trace", "allocator", "--file", str(trace), *flag)
    assert code == 2
    assert out == "" and f"unrecognized arguments: {' '.join(flag)}" in err


def test_all_subcommand_skips_negative_controls(capsys):
    code, out, _ = run(capsys, "all", "--max-depth", "6", "--max-states", "60")
    assert code == 0
    assert "allocator-broken" not in out
    assert "queue-via-stacks" in out


def test_verify_reports_in_case_name_order(capsys):
    args = ("verify", "stack", "queue-exact", "piggy", "--format", "csv")
    code, out, _ = run(capsys, *args)
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["piggy", "queue-exact", "stack"]
    again = run(capsys, *args)
    assert again == (0, out, "")


def test_state_cap_below_seed_count_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "allocator", "--max-states", "4")
    assert code == 2
    assert "seeds" in err


def test_a_filter_that_admits_no_seed_is_config_error(capsys, monkeypatch):
    real = cli.get_case
    monkeypatch.setattr(
        cli, "get_case", lambda name: replace(real(name), explore_filter=lambda s: False)
    )
    code, out, err = run(capsys, "verify", "allocator-broken")
    assert (code, out) == (2, "")
    assert err == "error: allocator-broken: the explore filter admits no seed\n"


def test_explicit_depth_flag_overrides_case_default(capsys):
    code, out, _ = run(capsys, "verify", "deque", "--max-depth", "3")
    assert code == 0
    states = int(out.split("states=")[1].split()[0])
    assert states < 16129  # documented bound explores the full space


ALLOCATOR_BROKEN_COUNTEREXAMPLES = [
    "  cost-mismatch: method=alloc arg=() inputs=[i0] lhs_cost=1 rhs_cost=15",
    "  cost-mismatch: method=alloc arg=() inputs=[i1] lhs_cost=2 rhs_cost=0",
    "  cost-mismatch: method=alloc arg=() inputs=[i2] lhs_cost=3 rhs_cost=1",
    "  cost-mismatch: method=alloc arg=() inputs=[i3] lhs_cost=4 rhs_cost=2",
    "  cost-mismatch: method=alloc arg=() inputs=[i4] lhs_cost=5 rhs_cost=3",
    "  cost-mismatch: method=alloc arg=() inputs=[i5] lhs_cost=6 rhs_cost=4",
    "  cost-mismatch: method=alloc arg=() inputs=[i6] lhs_cost=7 rhs_cost=5",
    "  cost-mismatch: method=alloc arg=() inputs=[i7] lhs_cost=8 rhs_cost=6",
]


def test_negative_control_counterexample_lines(capsys):
    code, out, _ = run(capsys, "verify", "allocator-broken")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "  8 failing check(s); showing 8:"
    assert lines[2:] == ALLOCATOR_BROKEN_COUNTEREXAMPLES

    code, out, err = run(capsys, "verify", "allocator-broken", "--format", "csv")
    assert code == 1
    assert out == CSV_HEADER + "\nallocator-broken,exact,8,8,fail,2\n"
    assert err.splitlines() == [
        "allocator-broken:" + line for line in ALLOCATOR_BROKEN_COUNTEREXAMPLES
    ]


def test_all_command_prints_the_recorded_csv(capsys):
    # The whole command, as a user runs it; the recorded file is only read.
    code, out, err = run(capsys, "all", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.encode() == EXPECTED_ALL_CSV.read_bytes()


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_all_csv_is_the_recorded_bytes_under_every_hash_seed(hash_seed):
    # A fresh interpreter per seed, so set and dict order differ between
    # the runs; none of it may reach the output. No bytecode is written.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "amortcheck.cli", "all", "--format", "csv"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == EXPECTED_ALL_CSV.read_bytes()


def test_all_csv_matches_the_recorded_bytes(explored):
    reports = [explored(name) for name in registered_names(include_negative=False)]
    reports.sort(key=lambda r: r.case_name)
    assert _csv_rows(reports).encode() == EXPECTED_ALL_CSV.read_bytes()
