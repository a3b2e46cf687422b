"""CLI behavior: exit codes, output formats, determinism."""

from amortcheck.cli import CSV_HEADER, main


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
    ]:
        assert name in out
    assert "negative-control" in out


def test_verify_passing_case_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "allocator")
    assert code == 0
    assert "PASS" in out and "states=8" in out


def test_verify_forced_exact_queue_fails_with_counterexamples(capsys):
    code, out, _ = run(capsys, "verify", "queue-lax", "--mode", "exact")
    assert code == 1
    assert "FAIL" in out and "cost-mismatch" in out


def test_verify_negative_control_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "allocator-broken")
    assert code == 1
    assert "FAIL" in out


def test_unknown_case_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "nonesuch")
    assert code == 2
    assert "unknown case" in err


def test_colax_override_rejected_on_unordered_model(capsys):
    code, _, err = run(capsys, "verify", "buffer", "--mode", "colax")
    assert code == 2
    assert "colax" in err


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


def test_verify_limit_flag_caps_counterexamples(capsys):
    code, out, _ = run(
        capsys, "verify", "allocator-broken", "--limit", "2"
    )
    assert code == 1
    assert out.count("cost-mismatch") == 2


def test_trace_parse_error_reports_line_and_column(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text('write "ab"\nwrite "qq"\n')
    code, _, err = run(capsys, "trace", "buffer", "--file", str(trace))
    assert code == 2
    assert "line 2" in err and "column 7" in err


def test_trace_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "trace", "buffer", "--file", "/nonexistent/t.txt")
    assert code == 2
    assert "cannot read" in err


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
