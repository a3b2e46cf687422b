"""The benchmark's workloads, their seeded inputs and their known answers.

Every workload is built only from amortcheck's public API. The constructor
is the set-up a user pays before checking starts (case construction; the
import is timed by the caller); `prepare` makes untimed inputs; `run` is
one timed pass; `check` compares the pass's output with its known answer
and returns (verdicts checked, wrong verdicts, squares or steps done).

all    `amortcheck all --format csv` through `cli.main`: the headline run,
       dominated by `deque`, whose nested-tuple states make state keying
       the largest layer.
merge  `explore` on the piggy bank with widened bounds: int states, so
       keying is cheap, while the 2-input merge squares grow quadratically
       in the state count and the k-tuple generation cubically.
trace  `check_trace` over long seeded traces on deque, queue-exact and
       stack: the same user transitions with no dedup and no
       serialization, and Φ only at the two ends of each trace.
"""

import contextlib
import io
import random
from dataclasses import replace
from pathlib import Path

from amortcheck import (
    NAT_COST,
    UNIT,
    Coalgebra,
    Continue,
    Method,
    MethodSig,
    PotentialMorphism,
    StateDomain,
    Trace,
    VerificationCase,
    charge,
    check_trace,
    explore,
)
from amortcheck import cli, registry, structures

EXPECTED_ALL_CSV = (Path(__file__).resolve().parent / "expected" / "all.csv").read_text()

# Documented size of the deque case, cross-checked against the expected CSV.
DEQUE_STATES = 16129
DEQUE_SQUARES = 96774

MERGE_STATES = 200
MERGE_DEPTH = 64  # deep enough that no successor is cut by depth
MERGE_SQUARES = 3 * MERGE_STATES + MERGE_STATES**2  # 3 unary methods + all ordered pairs

TRACE_CASES = ("deque", "queue-exact", "stack")
TRACES_PER_CASE = 24
TRACE_LENGTH = 3000
TRACE_GROW = 0.6  # chance of a push when the structure is non-empty


def _deque_row_ok():
    for line in EXPECTED_ALL_CSV.splitlines():
        if line.startswith("deque,"):
            fields = line.split(",")
            return fields[2:4] == [str(DEQUE_STATES), str(DEQUE_SQUARES)]
    return False


if not _deque_row_ok():
    raise RuntimeError("expected/all.csv disagrees with the documented deque counts")


class AllWorkload:
    argv = ["all", "--format", "csv"]

    def __init__(self, seed):
        # The registry has no free input: `seed` only feeds the controls.
        self.cases = [registry.get_case(n) for n in registry.registered_names(False)]

    def prepare(self):
        pass

    def run(self, tracer=None):
        main = cli.main
        restore = []
        if tracer is not None:
            from tracing import MAIN, patch_everywhere

            restore = [
                patch_everywhere(registry.get_case, tracer.traced_get_case()),
                patch_everywhere(explore, tracer.traced_explore()),
            ]
            main = tracer.wrap(MAIN, "", main)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(self.argv)
        finally:
            for undo in restore:
                undo()
        return status, out.getvalue()

    def check(self, result):
        status, csv = result
        want = EXPECTED_ALL_CSV.splitlines()
        got = csv.splitlines()
        wrong = [
            f"all: row {i}: got {g!r}, want {w!r}"
            for i, (g, w) in enumerate(zip(got, want))
            if g != w
        ]
        if len(got) != len(want):
            wrong.append(f"all: {len(got)} CSV lines, want {len(want)}")
        if status != 0:
            wrong.append(f"all: exit status {status}, want 0")
        if not wrong and csv != EXPECTED_ALL_CSV:
            wrong.append("all: CSV is not byte-identical to expected/all.csv")
        squares = sum(int(line.split(",")[3]) for line in want[1:])
        return len(want) - 1, wrong, squares


class MergeWorkload:
    def __init__(self, seed):
        # Three seeded extra seed states move where the exploration starts
        # without changing its size: the state cap always binds.
        rng = random.Random(seed)
        case = structures.piggy_bank_case()
        seeds = (0,) + tuple(sorted(rng.sample(range(1, 10**6), 3)))
        self.case = replace(case, impl=replace(case.impl, seeds=seeds))

    def prepare(self):
        pass

    def run(self, tracer=None):
        case, run = self.case, explore
        if tracer is not None:
            case, run = tracer.instrument_case(case), tracer.traced_explore()
        return run(case, max_depth=MERGE_DEPTH, max_states=MERGE_STATES)

    def check(self, report):
        got = (report.verdict, report.states_explored, report.squares_checked, report.slack_max)
        want = ("pass", MERGE_STATES, MERGE_SQUARES, 0)
        wrong = [] if got == want else [f"merge: got {got}, want {want}"]
        return 1, wrong, report.squares_checked


def grow_shrink_traces(case, count, length, rng):
    """Seeded traces that never pop an empty structure.

    Holds for cases whose non-stopping methods add one element and whose
    stopping methods remove one (deque, queue-*, stack), so every trace
    runs its full length.
    """
    sigs = [m.sig for m in case.impl.methods if m.sig.sequential]
    grow = [s for s in sigs if not s.may_stop]
    shrink = [s for s in sigs if s.may_stop]
    traces = []
    for _ in range(count):
        size = 0
        steps = []
        for _ in range(length):
            if size == 0 or rng.random() < TRACE_GROW:
                sig, size = rng.choice(grow), size + 1
            else:
                sig, size = rng.choice(shrink), size - 1
            steps.append((sig.name, rng.choice(sig.arg_domain)))
        traces.append(Trace(tuple(steps)))
    return traces


class TraceWorkload:
    def __init__(self, seed):
        self.seed = seed
        self.cases = [registry.get_case(n) for n in TRACE_CASES]

    def prepare(self):
        rng = random.Random(self.seed)
        self.jobs = [
            (case, trace)
            for case in self.cases
            for trace in grow_shrink_traces(case, TRACES_PER_CASE, TRACE_LENGTH, rng)
        ]

    def run(self, tracer=None):
        jobs, run = self.jobs, check_trace
        if tracer is not None:
            cases = {c.name: tracer.instrument_case(c) for c in self.cases}
            jobs = [(cases[c.name], t) for c, t in jobs]
            run = tracer.traced_check_trace()
        return [run(case, trace) for case, trace in jobs]

    def check(self, reports):
        wrong = []
        for (case, trace), r in zip(self.jobs, reports):
            got = (r.verdict, r.squares_checked, r.failures)
            want = ("pass", len(trace.steps), 0)
            if got != want:
                wrong.append(f"trace {case.name}: got {got}, want {want}")
        return len(self.jobs), wrong, sum(r.squares_checked for r in reports)


WORKLOADS = {"all": AllWorkload, "merge": MergeWorkload, "trace": TraceWorkload}


# ---------------------------------------------------------------------------
# Negative controls (must fail) and soundness probes (should fail).


def _counter_case(name, impl_cost, spec_cost, potential, impl_obs=UNIT, spec_obs=UNIT):
    """A one-method counter over the naturals against a one-point spec."""
    sig = MethodSig("tick")
    impl = Coalgebra(
        StateDomain("nat"),
        (0,),
        (Method(sig, lambda s, a: charge(impl_cost, Continue(impl_obs, (s[0] + 1,)))),),
    )
    spec = Coalgebra(
        StateDomain("unit"),
        (UNIT,),
        (Method(sig, lambda s, a: charge(spec_cost, Continue(spec_obs, (UNIT,)))),),
    )
    phi = PotentialMorphism(lambda n: charge(potential(n), UNIT))
    return VerificationCase(name, NAT_COST, impl, spec, phi, max_depth=8, max_states=16)


def negative_controls(seed):
    """Known-fail cases; returns (checked, wrong verdicts)."""
    defect = random.Random(seed).randrange(64)
    wrong = []
    broken = explore(registry.get_case("allocator-broken"))
    if broken.passed:
        wrong.append("allocator-broken passed, want fail")
    varying = explore(structures.varying_cost_case(defect_at=defect))
    if varying.passed or varying.failures != 1:
        wrong.append(
            f"varying defect_at={defect}: {varying.verdict} with "
            f"{varying.failures} failure(s), want fail with 1"
        )
    return 2, wrong


def soundness_probes(seed):
    """Cases whose true answer is fail; returns the names that still pass.

    An exception counts as rejecting the probe, not as a pass.
    """
    k = random.Random(seed).randint(1, 5)
    trace = Trace((("tick", UNIT),) * 8)
    probes = {
        # Real cost k+1 "proved" amortized 1 by a potential below zero in nat.
        "negative-potential": (
            lambda: _counter_case("probe-negative-potential", k + 1, 1, lambda n: -k * n),
            True,
        ),
        # Behaviour compared by ==, so the observable True matches 1.
        "bool-vs-int": (
            lambda: _counter_case("probe-bool-vs-int", 1, 1, lambda n: 0, True, 1),
            False,
        ),
        # A float cost outside the nat carrier.
        "float-cost": (
            lambda: _counter_case("probe-float-cost", k, float(k), lambda n: 0),
            False,
        ),
    }
    passed = []
    for name, (build, with_trace) in probes.items():
        try:
            case = build()
            ok = explore(case).passed or (with_trace and check_trace(case, trace).passed)
        except Exception:  # the checker rejected the probe some other way
            ok = False
        if ok:
            passed.append(name)
    return len(probes), passed
