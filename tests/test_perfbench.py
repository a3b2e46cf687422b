"""Smoke test of the benchmark harness against the current sources.

`perfbench/worker.py` runs one pass in a fresh process and prints one JSON
object as its last line. Traced `all`, `merge` and `trace` passes and the
negative controls must still run and come out right, so a change to any
API `perfbench/` reads fails here too. The soundness probes are pinned as
they stand: `bool-vs-int` is refused, and the two that still pass are an
expected failure until carrier membership closes them. No `--spans` path
is passed and no bytecode is written, so nothing lands under `perfbench/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_worker(workload, *flags):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1", *flags],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("flag", ["--traced", "--controls"])
def test_worker_pass_is_correct(flag):
    out = run_worker("merge", flag)
    assert out["wrong"] == []
    if flag == "--traced":
        assert out["layers"]["explored"]["piggy"][0] == 200


@pytest.fixture(scope="module")
def controls():
    return run_worker("merge", "--controls")


def test_the_bool_vs_int_probe_stays_refused(controls):
    assert controls["probes"] == 3
    assert "bool-vs-int" not in controls["unsound"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, carrier membership: a negative potential and a float "
    "cost still pass in nat",
)
def test_no_soundness_probe_passes(controls):
    assert controls["unsound"] == []


@pytest.fixture(scope="module")
def traced_all():
    return run_worker("all", "--traced")


def test_traced_all_pass_is_correct(traced_all):
    # The headline workload, with every layer wrapped: right verdicts, and
    # deque still explores its 16,129 states and 96,774 squares.
    assert traced_all["wrong"] == []
    assert traced_all["layers"]["explored"]["deque"] == [16129, 96774]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: perfbench's successor count reads a `.dist` that a "
    "randomized outcome no longer has, so rand-alloc's successors read 0",
)
def test_traced_all_counts_randomized_successors(traced_all):
    assert traced_all["layers"]["produced"]["rand-alloc"] == 4


def test_traced_trace_pass_is_correct():
    # Every seeded trace's `check_trace` report matches its known answer.
    out = run_worker("trace", "--traced")
    assert out["wrong"] == []
    assert out["attempted"] == 72
