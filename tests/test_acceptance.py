"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected number here is either hand-derived from the documented
potentials (arithmetic shown inline) or recomputed by an independent
oracle inside the test (enumeration, dual runs, direct walks).
"""

import itertools
import random
from fractions import Fraction

from amortcheck import (
    Mode,
    Trace,
    UNIT,
    Verdict,
    check_square,
    check_trace,
    explore,
    get_case,
    random_trace,
    registered_names,
)
from amortcheck.cli import main
from amortcheck.compose import queue_via_stacks_case
from amortcheck.structures import (
    allocator_case,
    array_potential,
    batched_queue_case,
    buffer_case,
    dynamic_array_case,
    randomized_allocator_case,
)


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_allocator_exactness(explored):
    report = explored("allocator")
    ok = report.passed and report.states_explored == 8 and report.mode is Mode.EXACT

    case = allocator_case()
    state, total_impl, total_spec = 7, 0, 0
    for _ in range(8):
        res = case.impl.method("alloc").run((state,), UNIT)
        total_impl += res.cost
        state = res.value.states[0]
        total_spec += 1
    ok = ok and total_impl == 8 and total_spec == 8 and state == 7
    ok = ok and check_trace(case, Trace((("alloc", UNIT),) * 8, seed_index=7)).passed
    _verdict(1, "allocator exact over 8 states; 8-step trace telescopes 8=8", ok)


def test_criterion_02_dynamic_array_pushes():
    case = dynamic_array_case(False)
    state = (0, "")
    total = 0
    ok = True
    for m in range(1, 257):
        e = "ab"[m % 2]
        check = check_square(case, "push", (state,), e)
        ok = ok and check.verdict is Verdict.PASS and check.lhs.cost == check.rhs.cost
        res = case.impl.method("push").run((state,), e)
        total += res.cost
        state = res.value.states[0]
        n, items = state
        ok = ok and 2**n - 1 <= len(items) < 2 ** (n + 1) - 1
        ok = ok and total == 3 * m - array_potential(state)
    _verdict(2, "256 pushes: exact squares, invariant held, cost = 3m - potential", ok)


def test_criterion_03_queue_dichotomy(explored):
    ok = explored("queue-exact").passed
    lax_report = explored("queue-lax")
    ok = ok and lax_report.passed and lax_report.mode is Mode.COLAX

    forced = explore(get_case("queue-lax").with_mode(Mode.EXACT))
    ok = ok and not forced.passed and len(forced.counterexamples) > 0
    for c in forced.counterexamples:
        ok = ok and c.method == "dequeue" and c.lhs.cost == 2 * c.rhs.cost

    exact_case = batched_queue_case(2)
    lax_exact = batched_queue_case(1).with_mode(Mode.EXACT)
    lax_colax = batched_queue_case(1)
    for length in range(1, 7):
        for inbox in itertools.product("ab", repeat=length):
            state = ("".join(inbox), "")
            ok = ok and check_square(exact_case, "dequeue", (state,)).verdict is Verdict.PASS
            ok = ok and check_square(lax_colax, "dequeue", (state,)).verdict is Verdict.PASS
            bad = check_square(lax_exact, "dequeue", (state,))
            ok = ok and bad.verdict is Verdict.COST_MISMATCH
            ok = ok and bad.lhs.cost == 2 * bad.rhs.cost == 2 * length
    _verdict(3, "queue-exact exact; queue-lax colax-only, flush lhs = 2*rhs", ok)


def test_criterion_04_behavioral_simulation():
    ok = True
    rng = random.Random(20260809)
    for per in (1, 2):
        case = batched_queue_case(per)
        for _ in range(100):
            trace = random_trace(case, 32, rng)
            impl_state = case.impl.seeds[trace.seed_index]
            spec_state = case.phi.phi(impl_state).value
            for method, arg in trace.steps:
                ires = case.impl.method(method).run((impl_state,), arg)
                sres = case.spec.method(method).run((spec_state,), arg)
                istop = not hasattr(ires.value, "obs")
                sstop = not hasattr(sres.value, "obs")
                ok = ok and istop == sstop
                if istop or sstop:
                    break
                if method == "dequeue":
                    ok = ok and ires.value.obs == sres.value.obs
                impl_state = ires.value.states[0]
                spec_state = sres.value.states[0]
    _verdict(4, "100 random queue traces: dequeue observables simulate exactly", ok)


def test_criterion_05_expected_amortization():
    ok = True
    for k in (2, 3, 4):
        for p in (Fraction(1, 2), Fraction(1, 3)):
            case = randomized_allocator_case(k, p)
            report = explore(case)
            ok = ok and report.passed and report.mode is Mode.EXACT

            # oracle: enumerate all coin sequences (at most 2^4 of them)
            def mean_heads(flips_count):
                total = Fraction(0)
                for flips in itertools.product((0, 1), repeat=flips_count):
                    w = Fraction(1)
                    for f in flips:
                        w *= p if f else 1 - p
                    total += w * sum(flips)
                return total

            burst = case.impl.method("alloc").run((0,), UNIT)
            ok = ok and burst.cost == mean_heads(k) == k * p
            spec_step = case.spec.method("alloc").run((UNIT,), UNIT)
            ok = ok and spec_step.cost == mean_heads(1) == p
    _verdict(5, "randomized allocator exact for k in 2..4, p in {1/2,1/3}", ok)


def test_criterion_06_multi_slot_potential_sums():
    case = get_case("piggy")
    ok = True
    for m in range(33):
        for n in range(33):
            check = check_square(case, "merge", (m, n))
            ok = ok and check.verdict is Verdict.PASS
            ok = ok and check.lhs.cost == check.rhs.cost == m + n
    for n in range(33):
        check = check_square(case, "split", (n,))
        ok = ok and check.verdict is Verdict.PASS
        ok = ok and check.lhs.cost == check.rhs.cost == n
    _verdict(6, "piggy merge/split squares sum potentials for tokens <= 32", ok)


def test_criterion_07_non_commutative_buffering():
    ok = True
    rng = random.Random(777)
    for n in (2, 3, 4):
        case = buffer_case(n)
        report = explore(case)
        ok = ok and report.passed and case.monoid.name == "trace"
        for _ in range(34):
            trace = random_trace(case, 24, rng)
            state = case.impl.seeds[trace.seed_index]
            emitted, written = "", ""
            for method, arg in trace.steps:
                res = case.impl.method(method).run((state,), arg)
                emitted += res.cost
                written += arg
                state = res.value.states[0]
                ok = ok and len(state) < n
            ok = ok and emitted + state == written
    _verdict(7, "buffer exact for n in 2..4; emitted + residue = all input", ok)


def test_criterion_08_composition_pipeline(explored):
    counter = explored("counter-via-stack")
    queue = explored("queue-via-stacks")
    ok = counter.passed and counter.mode is Mode.EXACT
    ok = ok and queue.passed and queue.mode is Mode.EXACT

    case = queue_via_stacks_case()
    enq = case.spec.method("enqueue").run(("",), "a")
    deq = case.spec.method("dequeue").run(("a",), UNIT)
    ok = ok and enq.cost == 8 and deq.cost == 2  # derived costs
    ok = ok and case.phi.phi(("ab", "")).cost == 10  # 5 per inbox element

    pipeline = explore(queue_via_stacks_case(over="impl"))
    ok = ok and pipeline.passed and pipeline.mode is Mode.COLAX
    runtime = counter.wall_time + queue.wall_time + pipeline.wall_time
    ok = ok and runtime < 60.0
    _verdict(8, "counter & queue via stacks exact; array pipeline colax; <60s", ok)


def test_criterion_09_negative_controls():
    ok = main(["verify", "allocator-broken"]) == 1
    ok = ok and main(["verify", "queue-lax", "--mode", "exact"]) == 1

    for case in (get_case("allocator-broken"), get_case("queue-lax").with_mode(Mode.EXACT)):
        report = explore(case)
        ok = ok and not report.passed and len(report.counterexamples) >= 1
        for c in report.counterexamples:
            again = check_square(case, c.method, c.inputs, c.arg)
            ok = ok and again.verdict is c.verdict
            ok = ok and again.lhs.cost == c.lhs.cost and again.rhs.cost == c.rhs.cost
    _verdict(9, "negative controls exit 1 with reproducible counterexamples", ok)


def test_criterion_10_square_implies_telescope(explored):
    ok = True
    rng = random.Random(31337)
    for name in registered_names(include_negative=False):
        report = explored(name)
        ok = ok and report.passed
        case = get_case(name)
        for _ in range(100):
            trace = random_trace(case, 64, rng)
            result = check_trace(case, trace)
            ok = ok and result.passed and result.mode is report.mode
    _verdict(10, "every passing case: 100 random traces telescope in-mode", ok)
