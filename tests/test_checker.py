"""Square checks, exploration, traces, and expected-cost squares.

Expected values for the hand-derived examples were computed by evaluating
the amortization equation directly (documented inline per check) and are
frozen here; exploration results are cross-checked against those.
"""

import random
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

from amortcheck import (
    INT_COST,
    RATIONAL_COST,
    STOP,
    TRACE_COST,
    UNIT,
    AmortError,
    ArityMismatch,
    BadWeights,
    Charged,
    Coalgebra,
    Continue,
    CostMonoid,
    Dist,
    Method,
    MethodSig,
    Mode,
    OrderUnavailable,
    PotentialMorphism,
    StateDomain,
    StateInvariantViolation,
    Trace,
    TraceMismatch,
    TraceParseError,
    UnknownMethod,
    UnsupportedArity,
    VerificationCase,
    Verdict,
    charge,
    expect,
    check_square,
    check_trace,
    explore,
    get_case,
    pair_cases,
    parse_trace,
    random_trace,
    tensor,
)
from amortcheck import coalgebra
from amortcheck.checker import _tuples_with_max, arg_literal
from amortcheck.compose import SubstrateRun
from amortcheck.encoding import encode, typed_eq
from amortcheck.registry import registered_names
from amortcheck.structures import (
    allocator_case,
    batched_queue_case,
    broken_allocator_case,
    buffer_case,
    piggy_bank_case,
    randomized_allocator_case,
    varying_cost_case,
)


def test_allocator_square_at_zero():
    # lhs = phi(0) + 1 = 7 + 1 = 8; rhs = 8 + phi(7) = 8 + 0 = 8
    check = check_square(allocator_case(), "alloc", (0,))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 8 and check.rhs.cost == 8


def test_allocator_square_at_three():
    # lhs = phi(3) + 1 = 4 + 1 = 5; rhs = 0 + phi(2) = 5
    check = check_square(allocator_case(), "alloc", (3,))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 5 and check.rhs.cost == 5


def test_queue_flush_square_dichotomy():
    # inbox stores newest first; flushing ("a","b") reverses two elements.
    # lhs = 2*2 + 0 = 4; rhs = per_element*2 + phi(empty inbox) = per*2.
    state = (("a", "b"), ())
    lax = batched_queue_case(1)
    exact_check = check_square(lax.with_mode(Mode.EXACT), "dequeue", (state,))
    assert exact_check.verdict is Verdict.COST_MISMATCH
    assert exact_check.lhs.cost == 4 and exact_check.rhs.cost == 2
    colax_check = check_square(lax, "dequeue", (state,))
    assert colax_check.verdict is Verdict.PASS

    exact_case = batched_queue_case(2)
    check = check_square(exact_case, "dequeue", (state,))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 4 and check.rhs.cost == 4


def test_check_square_is_deterministic():
    case = get_case("stack")
    a = check_square(case, "push", ((1, ("a",)),), "b")
    b = check_square(case, "push", ((1, ("a",)),), "b")
    assert a == b


def test_check_square_arity_and_order_errors():
    case = allocator_case()
    with pytest.raises(ArityMismatch):
        check_square(case, "alloc", (0, 1))
    with pytest.raises(OrderUnavailable):
        buffer_case(4).with_mode(Mode.COLAX)


def test_check_square_rejects_an_unknown_method():
    with pytest.raises(UnknownMethod, match=r"^free$"):
        check_square(allocator_case(), "free", (0,))


def _typed_arg_case():
    """Method `step` on the state 0 with `arg_domain=(0, 1)`, costing its argument."""
    step = Method(
        MethodSig("step", arg_domain=(0, 1)),
        lambda states, arg: charge(arg, Continue(UNIT, states)),
    )
    side = Coalgebra(StateDomain("zero"), (0,), (step,))
    phi = PotentialMorphism(lambda s: charge(0, s))
    return VerificationCase("typed-arg", INT_COST, side, side, phi)


def test_check_square_rejects_an_argument_outside_the_domain():
    with pytest.raises(ArityMismatch, match=r"^alloc: argument 'zzz' is not in its domain$"):
        check_square(allocator_case(), "alloc", (0,), "zzz")
    with pytest.raises(ArityMismatch, match=r"^alloc: argument \[\] is not in its domain$"):
        check_square(allocator_case(), "alloc", (0,), [])
    # Membership is typed: `True == 1`, but `True` is not in (0, 1).
    case = _typed_arg_case()
    assert check_square(case, "step", (0,), 1).verdict is Verdict.PASS
    with pytest.raises(ArityMismatch, match=r"^step: argument True is not in its domain$"):
        check_square(case, "step", (0,), True)


def test_explore_allocator_closed_carrier():
    report = explore(allocator_case(), max_depth=16)
    assert report.passed
    assert report.states_explored == 8
    assert report.squares_checked == 8


def test_explore_dynamic_array_defaults():
    report = explore(get_case("dynarray"))
    assert report.passed  # state invariant enforced during exploration


def test_explore_broken_allocator_counterexample_at_zero():
    # lhs = phi'(0) + 1 = 1; rhs = 8 + phi'(7) = 15
    report = explore(broken_allocator_case())
    assert not report.passed
    zero = [c for c in report.counterexamples if c.inputs == (0,)]
    assert zero and zero[0].lhs.cost == 1 and zero[0].rhs.cost == 15
    # The slack range spans every square: 1 - 15 at 0, 2 - 0 from 1 to 7.
    assert (report.slack_min, report.slack_max) == (-14, 2)


def test_counterexamples_round_trip_through_check_square():
    # Every kept counterexample equals the square `check_square` builds from
    # its method, inputs and argument: both fold Φ the same way, at 1 and 2
    # inputs (merge and split squares of the piggy bank), and a replay re-runs
    # pure transitions and Φ to the same square. The controls fail as pinned.
    pinned = {"allocator-broken": 8, "typed-observable": 2, "typed-state": 1, "varying": 1}
    cases = [
        get_case("allocator-broken"),
        get_case("typed-observable"),
        get_case("typed-state"),
        *(varying_cost_case(defect_at=d) for d in (0, 1, 5, 30, 62, 63)),
        get_case("queue-lax").with_mode(Mode.EXACT),
        _one_method_case(Continue(1.5, (0,)), Continue(2.5, (0,))),
        _coin_stop_case(Fraction(1, 4)),
        _piggy_with_wrong_phi_at_two(),
    ]
    verdicts, arities, methods = set(), set(), set()
    for case in cases:
        report = explore(case, limit=1000)
        assert len(report.counterexamples) == report.failures > 0, case.name
        assert report.failures == pinned.get(case.name, report.failures), case.name
        for c in report.counterexamples:
            assert c == check_square(case, c.method, c.inputs, c.arg), (case.name, c)
            verdicts.add(c.verdict)
            arities.add(len(c.inputs))
            methods.add((case.name, c.method))
    assert verdicts == {Verdict.COST_MISMATCH, Verdict.BEHAVIOR_MISMATCH}
    assert arities == {1, 2}
    assert {("piggy", "merge"), ("piggy", "split")} <= methods


def _piggy_with_wrong_phi_at_two():
    case = piggy_bank_case()
    phi = PotentialMorphism(lambda t: Charged(t + (t == 2), UNIT), case.phi.mode)
    return replace(case, phi=phi)


def test_behavior_mismatch_takes_precedence_and_never_passes():
    report = explore(get_case("queue-lax").with_mode(Mode.EXACT))
    for c in report.counterexamples:
        assert c.verdict is not Verdict.PASS
        # these planted failures are cost-only: behavior still simulates
        assert c.verdict is Verdict.COST_MISMATCH


def test_behavior_mismatch_when_phi_forgets_to_reverse():
    import dataclasses

    from amortcheck import PotentialMorphism

    case = batched_queue_case(2)
    wrong = dataclasses.replace(
        case,
        phi=PotentialMorphism(lambda st: Charged(2 * len(st[0]), st[1] + st[0])),
    )
    # inbox ("a","b") holds b older than a; forgetting to reverse swaps the
    # dequeue order, so the spec observes the wrong element.
    check = check_square(wrong, "dequeue", ((("a", "b"), ()),))
    assert check.verdict is Verdict.BEHAVIOR_MISMATCH
    report = explore(wrong)
    assert not report.passed
    assert any(c.verdict is Verdict.BEHAVIOR_MISMATCH for c in report.counterexamples)


def test_explore_rejects_bad_bounds():
    case = allocator_case()
    with pytest.raises(ValueError):
        explore(case, max_depth=-1)
    with pytest.raises(ValueError):
        explore(case, max_states=3)  # fewer than the 8 seeds


def test_explore_refuses_a_filter_that_admits_no_seed():
    # Such a run checks no square; it passed with 0 states and 0 squares.
    case = replace(broken_allocator_case(), explore_filter=lambda s: False)
    with pytest.raises(ValueError, match=r"^allocator-broken: the explore filter admits no seed$"):
        explore(case)
    # One admitted seed is enough: its square is checked, and fails.
    report = explore(replace(case, explore_filter=lambda s: s == 7))
    assert (report.states_explored, report.squares_checked, report.failures) == (1, 1, 1)


def test_explore_rejects_a_negative_limit():
    with pytest.raises(ValueError, match=r"^limit must be >= 0$"):
        explore(broken_allocator_case(), limit=-1)


def test_explore_counterexample_limit_is_configurable():
    report = explore(broken_allocator_case(), limit=2)
    assert report.failures == 8
    assert len(report.counterexamples) == 2


def test_trace_allocator_eight_steps_telescopes():
    case = allocator_case()
    trace = Trace((("alloc", UNIT),) * 8, seed_index=7)
    report = check_trace(case, trace)
    assert report.passed
    assert report.squares_checked == 8
    assert report.slack_min == report.slack_max == 0  # total impl 8 equals total spec 8


def test_trace_empty_is_trivially_exact():
    report = check_trace(allocator_case(), Trace(()))
    assert report.passed and report.squares_checked == 0


def test_trace_buffer_emission_identity():
    # chop-concatenation: emitted ++ residue == all inputs, brute-forced
    case = buffer_case(4)
    trace = Trace((("write", "ab"), ("write", "bab")))
    report = check_trace(case, trace)
    assert report.passed and report.squares_checked == 2


def test_trace_rejects_multi_slot_methods():
    case, counts = _counted(get_case("piggy"))
    with pytest.raises(UnsupportedArity, match=r"^merge is 2-in/1-out, not 1-in/1-out$"):
        check_trace(case, Trace((("merge", UNIT),)))
    # Raised at the first step naming one, after the sequential steps ran.
    steps = Trace((("deposit", UNIT), ("split", UNIT), ("merge", UNIT)))
    with pytest.raises(UnsupportedArity, match=r"^split is 1-in/2-out, not 1-in/1-out$"):
        check_trace(case, steps)
    assert counts["impl"] == counts["spec"] == 1


def test_random_trace_refuses_a_case_without_sequential_methods():
    case = _term_swap_case()
    swap_only = replace(
        case,
        impl=replace(case.impl, methods=case.impl.methods[1:]),
        spec=replace(case.spec, methods=case.spec.methods[1:]),
    )
    with pytest.raises(UnsupportedArity, match=r"^term-swap has no 1-in/1-out methods$"):
        random_trace(swap_only, 5, random.Random(0))


@pytest.mark.parametrize(
    "name, method, arg, message",
    [
        ("allocator", "alloc", 5, "alloc: argument 5 is not in its domain"),
        ("stack", "push", "z", "push: argument 'z' is not in its domain"),
        ("stack", "push", ["a"], r"push: argument \['a'\] is not in its domain"),
        ("buffer", "write", "bde", "write: argument 'bde' is not in its domain"),
        ("typed-arg", "step", True, "step: argument True is not in its domain"),
    ],
    ids=["allocator-5", "stack-z", "stack-list", "buffer-bde", "typed-arg-true"],
)
def test_trace_refuses_an_argument_outside_the_domain_at_its_step(name, method, arg, message):
    # The refused step raises before it runs, after the two steps before it.
    case = _typed_arg_case() if name == "typed-arg" else get_case(name)
    first = case.impl.method(method).sig.arg_domain[0]
    case, counts = _counted(case)
    steps = Trace(((method, first), (method, first), (method, arg), (method, first)))
    with pytest.raises(ArityMismatch, match=f"^{message}$"):
        check_trace(case, steps)
    assert counts["impl"] == counts["spec"] == 2


def test_trace_arguments_take_the_member_fast_path(monkeypatch):
    # Drawn and parsed arguments are domain members, so `MethodSig.admits`
    # never reaches its `typed_eq` scan on them.
    scans = []

    def counted_typed_eq(a, b):
        scans.append((a, b))
        return typed_eq(a, b)

    monkeypatch.setattr(coalgebra, "typed_eq", counted_typed_eq)
    rng = random.Random(2020)
    steps = 0
    for name in registered_names():
        case = get_case(name)
        if not any(m.sig.sequential for m in case.impl.methods):
            continue
        for _ in range(20):
            trace = random_trace(case, 30, rng)
            steps += len(trace.steps)
            check_trace(case, trace)
    buffer = get_case("buffer")
    text = 'write "ab"\nwrite "bab"\nwrite ""\n'
    assert check_trace(buffer, parse_trace(buffer, text)).passed
    assert steps > 1000 and scans == []
    # An equal string that is not the member object takes the scan.
    bab = "".join(["b", "a", "b"])
    assert check_trace(buffer, Trace((("write", bab),))).passed
    assert scans


@pytest.mark.parametrize(
    "step, error, message",
    [
        (("bogus", UNIT), UnknownMethod, "bogus"),
        (("push", 5), ArityMismatch, "push: argument 5 is not in its domain"),
    ],
    ids=["unknown-method", "outside-domain"],
)
def test_steps_after_a_stop_still_pass_the_door(step, error, message):
    # `pop` on the empty stack Stops on both sides, which ends the trace:
    # no later step runs, but each is refused as it is before a Stop.
    case, counts = _counted(get_case("stack"))
    with pytest.raises(error, match=f"^{message}$"):
        check_trace(case, Trace((("pop", UNIT), step, ("push", "a"))))
    assert counts["impl"] == counts["spec"] == 1
    report = check_trace(case, Trace((("pop", UNIT), ("push", "a"), ("pop", UNIT))))
    assert report.passed and report.squares_checked == 1
    assert counts["impl"] == counts["spec"] == 2


def test_trace_door_makes_no_call_for_a_member(monkeypatch):
    # A member object passes the door on `admits`' own first rule, with no
    # call; any other argument is `admits`' to rule on, once per step. Only
    # the traced methods' own signatures count: a composite case's
    # substrate calls pass their own door inside the transition.
    calls, door = [], set()
    admits = MethodSig.admits

    def counted_admits(sig, arg):
        if id(sig) in door:
            calls.append(arg)
        return admits(sig, arg)

    monkeypatch.setattr(MethodSig, "admits", counted_admits)
    rng = random.Random(2424)
    steps = 0
    for name in registered_names():
        case = get_case(name)
        if not any(m.sig.sequential for m in case.impl.methods):
            continue
        door = {id(m.sig) for m in case.impl.methods}
        for _ in range(10):
            drawn = random_trace(case, 30, rng)
            text = "".join(f"{m} {arg_literal(a)}\n" for m, a in drawn.steps)
            for trace in (drawn, parse_trace(case, text)):
                steps += len(trace.steps)
                check_trace(case, trace)
    assert steps > 1000 and calls == []
    # An equal string that is not the member object: one call per step.
    buffer = get_case("buffer")
    door = {id(m.sig) for m in buffer.impl.methods}
    bab = "".join(["b", "a", "b"])
    assert check_trace(buffer, Trace((("write", bab),) * 3)).passed
    assert calls == [bab] * 3 and all(arg is bab for arg in calls)


def _one_method_case(impl_out, spec_out):
    """Method `step` on the state 0: impl and spec return the given outcomes."""
    sig = MethodSig("step")

    def side(outcome):
        method = Method(sig, lambda states, arg: charge(0, outcome))
        return Coalgebra(StateDomain("zero"), (0,), (method,))

    phi = PotentialMorphism(lambda s: charge(0, s))
    return VerificationCase("one", INT_COST, side(impl_out), side(spec_out), phi)


class _One(IntEnum):
    ONE = 1


def test_non_plain_observable_mismatch_is_a_verdict():
    case = _one_method_case(Continue(1.5, (0,)), Continue(2.5, (0,)))
    report = explore(case)
    assert [c.verdict for c in report.counterexamples] == [Verdict.BEHAVIOR_MISMATCH]
    report = check_trace(case, Trace((("step", UNIT),)))
    assert report.counterexamples == (
        TraceMismatch(0, "observable", "step: impl observed 1.5, spec observed 2.5"),
    )


@pytest.mark.parametrize(
    "impl_obs, spec_obs, ok",
    [
        (True, 1, False),
        (1.0, 1, False),
        ((1, True), (1, 1), False),
        (tuple([1, "a"]), tuple([1, "a"]), True),  # equal, typed, two objects
        (float("nan"), float("nan"), True),  # two NaNs, one key
        ([1], [1], True),  # no typed key: compared by ==
        (_One.ONE, 1, False),  # an IntEnum member equal to 1
    ],
    ids=[
        "bool-int", "float-int", "nested-bool", "equal-tuples", "two-nans", "unkeyable",
        "intenum-int",
    ],
)
def test_observables_compare_by_typed_identity(impl_obs, spec_obs, ok):
    case = _one_method_case(Continue(impl_obs, (0,)), Continue(spec_obs, (0,)))
    want = [] if ok else [Verdict.BEHAVIOR_MISMATCH]
    report = explore(case)
    assert [c.verdict for c in report.counterexamples] == want
    if not ok:  # the reported sides are the outcomes
        (check,) = report.counterexamples
        assert (check.lhs.value.obs, check.rhs.value.obs) == (spec_obs, impl_obs)
        assert type(check.rhs.value.obs) is type(impl_obs)
    check = check_square(case, "step", (0,))
    assert (check.verdict is Verdict.PASS) == ok
    report = check_trace(case, Trace((("step", UNIT),)))
    assert [c.kind for c in report.counterexamples] == ([] if ok else ["observable"])
    # A law compares its outcomes by typed encoding too; it needs one.
    if type(impl_obs) is not list:
        law = Dist([(1, Continue(impl_obs, (0,)))])
        case = _one_method_case(law, Continue(spec_obs, (0,)))
        assert [c.verdict for c in explore(case).counterexamples] == want


def test_a_law_over_float_observables_gets_a_verdict():
    # Floats have a typed encoding, so a law can hold them: no TypeError.
    case = _one_method_case(Dist([(1, Continue(1, (0,)))]), Continue(1.5, (0,)))
    report = explore(case)
    assert [c.verdict for c in report.counterexamples] == [Verdict.BEHAVIOR_MISMATCH]
    case = _one_method_case(Dist([(1, Continue(1.5, (0,)))]), Continue(1.5, (0,)))
    assert explore(case).passed


def test_the_typed_observable_control_fails_on_every_square_and_trace():
    case = get_case("typed-observable")
    report = explore(case)
    assert (report.states_explored, report.squares_checked, report.failures) == (2, 2, 2)
    assert {c.verdict for c in report.counterexamples} == {Verdict.BEHAVIOR_MISMATCH}
    report = check_trace(case, Trace((("tick", UNIT),)))
    assert report.counterexamples == (
        TraceMismatch(0, "observable", "tick: impl observed True, spec observed 1"),
    )


def test_the_typed_state_control_fails_at_its_second_type():
    # _P(0) == _Q(0), so keying them alike would check one square for both.
    case = get_case("typed-state")
    report = explore(case)
    assert (report.states_explored, report.squares_checked, report.failures) == (2, 2, 1)
    (check,) = report.counterexamples
    assert check.verdict is Verdict.COST_MISMATCH
    assert check.inputs_serialized == ("<amortcheck.structures._Q>t(i0)",)


def test_the_typed_state_control_fails_its_two_step_trace():
    report = check_trace(get_case("typed-state"), Trace((("tick", UNIT),) * 2))
    assert not report.passed and report.slack_max == -4


@pytest.mark.parametrize(
    "outcome",
    [STOP, Continue(UNIT, (0, 0))],
    ids=["stop-not-may-stop", "two-states"],
)
def test_trace_steps_get_the_square_shape_guard(outcome):
    case = _one_method_case(outcome, outcome)
    with pytest.raises(ArityMismatch, match="^step "):
        explore(case)
    with pytest.raises(ArityMismatch, match="^step "):
        check_trace(case, Trace((("step", UNIT),)))


class _Cont(Continue):
    __slots__ = ()


@pytest.mark.parametrize("side", ["impl", "spec"])
def test_only_an_exact_continue_skips_the_shape_guard(side):
    # An outcome of type exactly `Continue` with out_arity states passes the
    # shape rule with no `guard_outcome` call; a subclass goes through the
    # call, which admits it with one state and refuses it with two.
    def case(n):
        odd, plain = _Cont(UNIT, (0,) * n), Continue(UNIT, (0,))
        return _one_method_case(*((odd, plain) if side == "impl" else (plain, odd)))

    trace = Trace((("step", UNIT),) * 3)
    assert explore(case(1)).passed
    assert check_square(case(1), "step", (0,)).verdict is Verdict.PASS
    assert check_trace(case(1), trace).passed
    message = r"^step produced 2 successor state\(s\), declared out_arity is 1$"
    for run in (explore, lambda c: check_square(c, "step", (0,)), lambda c: check_trace(c, trace)):
        with pytest.raises(ArityMismatch, match=message):
            run(case(2))


def _counter_stopping_at(impl_stop, spec_stop):
    """Method `step` counts up from 0; each side Stops at its given count."""
    sig = MethodSig("step", may_stop=True)

    def side(stop_at):
        def run(states, arg):
            (n,) = states
            return charge(0, STOP if n == stop_at else Continue(UNIT, (n + 1,)))

        return Coalgebra(StateDomain("nat"), (0,), (Method(sig, run),))

    phi = PotentialMorphism(lambda n: charge(0, n))
    return VerificationCase("count", INT_COST, side(impl_stop), side(spec_stop), phi)


@pytest.mark.parametrize("side", ["impl", "spec"])
def test_trace_stop_on_one_side_only_ends_the_trace_there(side):
    stops = (2, None) if side == "impl" else (None, 2)
    report = check_trace(_counter_stopping_at(*stops), Trace((("step", UNIT),) * 5))
    assert report.counterexamples == (
        TraceMismatch(2, "stop", f"step: only {side} stopped"),
    )
    assert report.failures == 1 and not report.passed
    # Steps 0 to 2 ran; steps 3 and 4 did not.
    assert report.squares_checked == 3 and report.states_explored == 4
    assert report.slack_max is None  # no telescoped total on a mismatch


@pytest.mark.parametrize("seed_index", [-1, 8])
def test_trace_rejects_a_seed_index_out_of_range(seed_index):
    trace = Trace((("alloc", UNIT),), seed_index=seed_index)
    with pytest.raises(ValueError, match=r"allocator: seed_index must lie in range\(8\)"):
        check_trace(allocator_case(), trace)


def test_trace_naming_an_unknown_method_raises():
    with pytest.raises(UnknownMethod):
        check_trace(allocator_case(), Trace((("alloc", UNIT), ("free", UNIT))))


def test_square_implies_telescope_on_random_traces():
    rng = random.Random(12345)
    for name in ["allocator", "stack", "queue-exact", "buffer"]:
        case = get_case(name)
        assert explore(case).passed
        for _ in range(25):
            trace = random_trace(case, 64, rng)
            assert check_trace(case, trace).passed, (name, trace)


def test_expected_square_randomized_allocator_values():
    case = randomized_allocator_case(4, Fraction(1, 2))
    at0 = check_square(case, "alloc", (0,))
    # lhs = 3/2 + 1/2 = 2 ; rhs = E[Bin(4,1/2)] + phi(3) = 2 + 0
    assert at0.verdict is Verdict.PASS
    assert at0.lhs.cost == 2 and at0.rhs.cost == 2
    at2 = check_square(case, "alloc", (2,))
    # lhs = 1/2 + 1/2 = 1 ; rhs = 0 + phi(1) = 1
    assert at2.verdict is Verdict.PASS
    assert at2.lhs.cost == 1 and at2.rhs.cost == 1


def test_rand_alloc_square_sides_are_charged_outcome_laws():
    # rand-alloc is k = 4, p = 1/2: Φ(0) = 3/2 and the spec's coin costs 1/2.
    check = check_square(get_case("rand-alloc"), "alloc", (0,))
    assert check.verdict is Verdict.PASS
    for side in (check.lhs, check.rhs):
        assert type(side) is Charged and type(side.value) is Dist
    assert check.lhs.cost == check.rhs.cost == Fraction(2)
    assert check.lhs.value == check.rhs.value == Dist(
        [(1, Continue(UNIT, (UNIT,)))]
    )


def test_expected_point_distribution_matches_deterministic_verdict():
    rand = randomized_allocator_case(1, Fraction(0))
    expected = check_square(rand, "alloc", (0,))
    assert expected.verdict is Verdict.PASS
    report = explore(rand)
    assert report.passed and report.states_explored == 1


def _rand_alloc_with_spec(alloc):
    """`rand-alloc` (k = 4, p = 1/2) with its spec's `alloc` replaced."""
    case = get_case("rand-alloc")
    spec = replace(case.spec, methods=(Method(MethodSig("alloc"), alloc),))
    return replace(case, spec=spec)


HALF_PER_ALLOC = charge(Fraction(1, 2), Continue(UNIT, (UNIT,)))


def test_a_deterministic_spec_is_checked_against_a_randomized_impl():
    # The Bernoulli spec's law is a point (every coin gives the same
    # outcome), so a spec charging 1/2 per call with no `Dist` is the same
    # claim: the square takes the spec's outcome as its point law.
    def summary(case):
        r = explore(case)
        return r.verdict, r.states_explored, r.squares_checked, r.slack_min, r.slack_max

    got = summary(_rand_alloc_with_spec(lambda states, arg: HALF_PER_ALLOC))
    assert got == summary(get_case("rand-alloc"))
    assert got[:3] == ("pass", 4, 4)


def test_check_square_lhs_of_a_deterministic_spec_is_its_point_law():
    case = _rand_alloc_with_spec(lambda states, arg: HALF_PER_ALLOC)
    check = check_square(case, "alloc", (0,))
    point = Dist([(1, Continue(UNIT, (UNIT,)))])
    # lhs = Φ(0) + 1/2 = 3/2 + 1/2 ; rhs = E[Bin(4, 1/2)] + Φ(3) = 2 + 0
    assert check.verdict is Verdict.PASS
    assert check.lhs == Charged(Fraction(2), point)
    assert check.rhs == Charged(Fraction(2), point)
    assert check.lhs == check_square(get_case("rand-alloc"), "alloc", (0,)).lhs


def test_each_square_of_a_batch_takes_its_own_law():
    # One engine call checks args 0, 1, 2 against one shared spec outcome;
    # only arg 1's impl returns a `Dist`. The squares on either side of it
    # compare plain outcomes again, so all three pass.
    sig = MethodSig("step", arg_domain=(0, 1, 2))
    done = Continue(UNIT, (0,))
    shared = charge(0, done)
    point = Charged(0, Dist([(1, done)]))
    impl = Method(sig, lambda states, arg: point if arg == 1 else charge(0, done))
    spec = Method(sig, lambda states, arg: shared)
    case = VerificationCase(
        "mixed",
        INT_COST,
        Coalgebra(StateDomain("zero"), (0,), (impl,)),
        Coalgebra(StateDomain("zero"), (0,), (spec,)),
        PotentialMorphism(lambda s: charge(0, s)),
    )
    report = explore(case)
    assert report.passed, report.counterexamples
    assert (report.states_explored, report.squares_checked) == (1, 3)
    for arg in sig.arg_domain:
        assert check_square(case, "step", (0,), arg).verdict is Verdict.PASS


def _coin_stop_case(spec_stop_weight):
    """Impl `alloc` stops on a fair coin; the spec stops with the given weight.

    Impl states flip between 0 and 1 with potentials 0 and 2, and a Continue
    out of state 1 costs 6. The spec's Continue costs 1/(1 - weight), so its
    expected cost is 1 whatever the weight: only the outcome law can differ.
    """
    half = Fraction(1, 2)
    go = 1 - Fraction(spec_stop_weight)
    sig = MethodSig("alloc", may_stop=True)

    def impl_alloc(states, arg):
        (d,) = states
        return expect(
            [
                (half, charge(Fraction(0), STOP)),
                (half, charge(Fraction(6 * d), Continue(UNIT, (1 - d,)))),
            ]
        )

    def spec_alloc(states, arg):
        return expect(
            [
                (1 - go, charge(Fraction(0), STOP)),
                (go, charge(1 / go, Continue(UNIT, (UNIT,)))),
            ]
        )

    impl = Coalgebra(StateDomain("bit"), (0,), (Method(sig, impl_alloc),))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, spec_alloc),))
    phi = PotentialMorphism(lambda d: charge(Fraction(2 * d), UNIT))
    return VerificationCase("coin-stop", RATIONAL_COST, impl, spec, phi)


def test_square_weighs_stop_and_continue_branches():
    case = _coin_stop_case(Fraction(1, 2))
    # lhs = phi(0) + 1 = 1 ; rhs = E[impl] + 1/2 * phi(1) = 0 + 1
    at0 = check_square(case, "alloc", (0,))
    assert at0.verdict is Verdict.PASS
    assert at0.lhs.cost == 1 and at0.rhs.cost == 1
    # lhs = phi(1) + 1 = 3 ; rhs = 1/2 * 6 + 1/2 * phi(0) = 3
    at1 = check_square(case, "alloc", (1,))
    assert at1.verdict is Verdict.PASS
    assert at1.lhs.cost == 3 and at1.rhs.cost == 3

    # Same expected costs, but the spec stops with probability 1/4.
    skewed = check_square(_coin_stop_case(Fraction(1, 4)), "alloc", (0,))
    assert skewed.verdict is Verdict.BEHAVIOR_MISMATCH
    assert skewed.lhs.cost == skewed.rhs.cost == 1


def _fair_flip_case():
    """A fair coin whose spec law is built with the public `Dist` constructor
    from branches in non-canonical order: obs 1 before obs 0."""
    half = Fraction(1, 2)
    sig = MethodSig("flip")

    def impl_flip(states, arg):
        return expect(
            [
                (half, charge(Fraction(1), Continue(1, (1,)))),
                (half, charge(Fraction(1), Continue(0, (0,)))),
            ]
        )

    def spec_flip(states, arg):
        law = Dist(((half, Continue(1, (UNIT,))), (half, Continue(0, (UNIT,)))))
        return Charged(Fraction(1), law)

    impl = Coalgebra(StateDomain("bit"), (0,), (Method(sig, impl_flip),))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, spec_flip),))
    phi = PotentialMorphism(lambda d: charge(Fraction(0), UNIT))
    return VerificationCase("fair-flip", RATIONAL_COST, impl, spec, phi)


def test_spec_law_is_canonicalized_like_the_impl_law():
    case = _fair_flip_case()
    check = check_square(case, "flip", (0,))
    assert check.verdict is Verdict.PASS
    assert check.lhs.value == check.rhs.value
    assert [out.obs for _w, out in check.lhs.value.branches] == [0, 1]  # canonical order
    report = explore(case)
    assert report.passed
    assert (report.states_explored, report.squares_checked) == (2, 2)


def test_a_law_whose_weights_do_not_sum_to_one_is_refused_by_explore_and_trace():
    half_law = lambda s, a: Charged(Fraction(1), Dist(((Fraction(1, 2), Continue((), ((),))),)))
    case = get_case("rand-alloc")
    case = replace(case, spec=replace(case.spec, methods=(Method(MethodSig("alloc"), half_law),)))
    with pytest.raises(BadWeights, match="sum exactly to 1"):
        explore(case)
    with pytest.raises(BadWeights, match="sum exactly to 1"):
        check_trace(case, Trace((("alloc", UNIT),) * 3))


def _coin_flip_case(monoid, potential):
    """Method `flip` moves 0 or 1 to 0 or 1 with weight 1/2 each, at cost 0;
    the spec is one deterministic step on ``()`` at the monoid's identity."""
    sig, half = MethodSig("flip"), Fraction(1, 2)
    law = expect([(half, charge(0, Continue(UNIT, (j,)))) for j in (0, 1)])
    impl = Coalgebra(StateDomain("coin"), (0,), (Method(sig, lambda s, a: law),))
    one = charge(monoid.identity, Continue(UNIT, (UNIT,)))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, lambda s, a: one),))
    return VerificationCase("coin", monoid, impl, spec, PotentialMorphism(lambda s: potential))


def test_a_branching_law_over_costs_no_weight_scales_is_refused():
    # Φ(out) of each branch is weighed by its weight; `trace` strings do not
    # scale, so the square refuses the law where it used to die on a bare
    # `TypeError`. A trace step refuses a branching law on its own.
    case = _coin_flip_case(TRACE_COST, Charged("", UNIT))
    message = r"^flip: weight 1/2 cannot scale the cost ''$"
    with pytest.raises(BadWeights, match=message):
        explore(case)
    with pytest.raises(BadWeights, match=message):
        check_square(case, "flip", (0,))
    with pytest.raises(ArityMismatch, match=r"^flip returned a law of 2 outcomes, not one$"):
        check_trace(case, Trace((("flip", UNIT),)))
    assert explore(_coin_flip_case(INT_COST, charge(0, UNIT))).passed


def _point_law_trace_case():
    """Method `step` over `trace` costs: a deterministic impl on the state 0,
    and a spec that returns the point law of one ``Continue`` at cost ``''``."""
    sig = MethodSig("step")
    step = charge("", Continue(UNIT, (0,)))
    impl = Coalgebra(StateDomain("zero"), (0,), (Method(sig, lambda s, a: step),))
    point = Charged("", Dist(((1, Continue(UNIT, (UNIT,))),)))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, lambda s, a: point),))
    phi = PotentialMorphism(lambda s: Charged("", UNIT))
    return VerificationCase("point-trace", TRACE_COST, impl, spec, phi)


def test_a_point_law_over_costs_no_weight_scales_is_refused():
    # A randomized square weighs every impl branch in `expect`, a point
    # law's one branch too, so a `trace` cost is refused there as well; the
    # refusal names the method and the cost it could not scale.
    case = _point_law_trace_case()
    message = r"^step: weight 1 cannot scale the cost ''$"
    with pytest.raises(BadWeights, match=message):
        explore(case)
    with pytest.raises(BadWeights, match=message):
        check_square(case, "step", (0,))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the expected-cost carrier of a lifted point law is "
    "undecided; explore weighs it in `expect` and refuses, check_trace takes it "
    "at its cost as given and passes",
)
def test_explore_and_check_trace_agree_on_a_point_law_over_costs_no_weight_scales():
    # Whichever way the carrier is decided, both must refuse or both pass.
    case = _point_law_trace_case()

    def verdict(run):
        try:
            return "pass" if run().passed else "fail"
        except AmortError:
            return "refused"

    trace = Trace((("step", UNIT),) * 3)
    assert verdict(lambda: explore(case)) == verdict(lambda: check_trace(case, trace))


def test_a_mixed_square_over_int_costs_has_the_expected_rhs_cost():
    # A deterministic impl beside a spec law: the rhs cost is `expect`'s, a
    # `Fraction` equal to the int sum 3 + Φ(1).
    sig = MethodSig("step")
    step = charge(3, Continue(UNIT, (1,)))
    impl = Coalgebra(StateDomain("n"), (0,), (Method(sig, lambda s, a: step),))
    law = expect([(1, charge(4, Continue(UNIT, (UNIT,))))])
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, lambda s, a: law),))
    phi = PotentialMorphism(lambda n: charge(n, UNIT))
    check = check_square(VerificationCase("mixed", INT_COST, impl, spec, phi), "step", (0,))
    assert check.verdict is Verdict.PASS
    assert check.rhs.cost == Fraction(4) and type(check.rhs.cost) is Fraction


def test_explore_admits_only_continue_successors():
    report = explore(_coin_stop_case(Fraction(1, 2)))
    # The seed 0 plus the one successor of its Continue branch; Stop adds none.
    assert report.passed
    assert report.states_explored == 2
    assert report.squares_checked == 2


BRANCHES = r"^alloc returned a law of 2 outcomes, not one$"


def test_trace_rejects_branching_randomized_step():
    # rand-alloc folds its coin flips into the expected cost, so each of its
    # steps is a point distribution; the coin-stop impl really branches.
    assert check_trace(get_case("rand-alloc"), Trace((("alloc", UNIT),))).passed
    with pytest.raises(ArityMismatch, match=BRANCHES):
        check_trace(_coin_stop_case(Fraction(1, 2)), Trace((("alloc", UNIT),)))


@pytest.mark.parametrize(
    "step",
    [
        lambda case: check_trace(case, Trace((("alloc", UNIT),))),
        lambda case: explore(pair_cases(case, case)),
        lambda case: SubstrateRun(case.impl, case.monoid, 0).call("alloc"),
    ],
    ids=["trace", "pair", "substrate"],
)
def test_a_branching_law_is_refused_wherever_one_outcome_is_due(step):
    # Each of these threads one outcome through `guard_outcome`, which
    # reads a point law as its outcome and refuses one that branches.
    with pytest.raises(ArityMismatch, match=BRANCHES):
        step(_coin_stop_case(Fraction(1, 2)))


def test_parse_trace_and_errors():
    case = buffer_case(4)
    trace = parse_trace(case, '# a comment\n\nwrite "ab"\nwrite ""\n')
    assert trace.steps == (("write", "ab"), ("write", ""))

    with pytest.raises(TraceParseError) as err:
        parse_trace(case, 'write "ab"\nbogus "a"\n')
    assert err.value.line == 2 and err.value.column == 1

    with pytest.raises(TraceParseError) as err:
        parse_trace(case, 'write "zzz"\n')
    assert err.value.line == 1 and err.value.column == 7

    with pytest.raises(TraceParseError) as err:
        parse_trace(case, "write\n")
    assert err.value.line == 1 and err.value.column == 6


def test_parse_trace_unit_and_int_literals():
    alloc = allocator_case()
    trace = parse_trace(alloc, "alloc ()\nalloc ()\n")
    assert trace.steps == (("alloc", UNIT), ("alloc", UNIT))
    assert check_trace(alloc, trace).passed


@pytest.mark.parametrize("name", registered_names())
def test_every_registered_argument_reads_back(name):
    # A counterexample prints `arg_literal(arg)`; a trace line naming that
    # literal gives the same argument back, typed.
    case = get_case(name)
    for m in case.impl.methods:
        for arg in m.sig.arg_domain:
            trace = parse_trace(case, f"{m.sig.name} {arg_literal(arg)}")
            ((method, got),) = trace.steps
            assert method == m.sig.name and typed_eq(got, arg), (method, arg)


def test_boolean_arguments_have_trace_literals():
    sig = MethodSig("tick", arg_domain=(False, True))
    impl_tick = Method(sig, lambda s, a: charge(2, Continue(UNIT, (0,))))
    spec_tick = Method(sig, lambda s, a: charge(1, Continue(UNIT, (UNIT,))))
    impl = Coalgebra(StateDomain("zero"), (0,), (impl_tick,))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (spec_tick,))
    phi = PotentialMorphism(lambda s: charge(0, UNIT))
    case = VerificationCase("flags", INT_COST, impl, spec, phi)
    report = explore(case)
    assert report.verdict == "fail"
    assert [(c.verdict, c.arg, c.arg_literal) for c in report.counterexamples] == [
        (Verdict.COST_MISMATCH, False, "false"),
        (Verdict.COST_MISMATCH, True, "true"),
    ]
    trace = parse_trace(case, "tick true\ntick false\n")
    assert trace.steps == (("tick", True), ("tick", False))
    assert [type(arg) for _, arg in trace.steps] == [bool, bool]
    assert arg_literal is coalgebra.arg_literal


def _lookalike_chain_case(seen):
    """`step` walks 1 -> True -> Fraction(1) -> (1,) -> (True,) -> 1.

    The five states hash and compare equal in pairs, but their encodings
    differ, so exploration must keep them apart. Every input the impl sees
    is appended to `seen`.
    """
    chain = [1, True, Fraction(1), (1,), (True,)]
    following = {encode(s): chain[(n + 1) % len(chain)] for n, s in enumerate(chain)}
    sig = MethodSig("step")

    def impl_step(states, arg):
        (s,) = states
        seen.append(s)
        return charge(1, Continue(UNIT, (following[encode(s)],)))

    def spec_step(states, arg):
        return charge(1, Continue(UNIT, (UNIT,)))

    impl = Coalgebra(StateDomain("lookalikes"), (1,), (Method(sig, impl_step),))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, spec_step),))
    phi = PotentialMorphism(lambda s: charge(0, UNIT))
    return VerificationCase("lookalikes", INT_COST, impl, spec, phi)


def test_explore_keeps_equal_values_of_different_types_apart():
    seen = []
    report = explore(_lookalike_chain_case(seen))
    assert report.passed
    assert report.states_explored == 5 and report.squares_checked == 5
    assert [encode(s) for s in seen] == ["i1", "b1", "q1/1", "t(i1)", "t(b1)"]


def _recording(case, received, returned=None):
    """`case` with the states its impl transitions receive appended to
    `received`, and, if given, the outcomes they return to `returned`."""

    def record(run):
        def traced(states, arg):
            received.extend(states)
            res = run(states, arg)
            if returned is not None:
                returned.append(res.value)
            return res

        return traced

    methods = tuple(replace(m, run=record(m.run)) for m in case.impl.methods)
    return replace(case, impl=replace(case.impl, methods=methods))


def test_explore_stores_each_equal_side_of_the_deque_once():
    # 16,129 admitted (front, back) states hold 127 distinct sides; every
    # transition receives its state built from the one stored copy of each.
    received = []
    report = explore(_recording(get_case("deque"), received))
    assert report.states_explored == 16129
    sides = [side for state in received for side in state]
    assert len(set(sides)) == 127
    assert len({id(side) for side in sides}) == 127


def _bool_part_case():
    """From the seed (("a",), (0,)), `to_int` and `to_bool` build fresh
    (("a",), (1,)) and (("a",), (True,)): equal under ``==``, not typed."""
    to_int, to_bool = MethodSig("to_int"), MethodSig("to_bool")

    def build(n):
        return lambda states, arg: charge(0, Continue(UNIT, ((tuple("a"), (n,)),)))

    impl = Coalgebra(
        StateDomain("parts"),
        ((tuple("a"), (0,)),),
        (Method(to_int, build(1)), Method(to_bool, build(True))),
    )
    unit = lambda states, arg: charge(0, Continue(UNIT, (UNIT,)))
    spec = Coalgebra(
        StateDomain("unit"), (UNIT,), (Method(to_int, unit), Method(to_bool, unit))
    )
    phi = PotentialMorphism(lambda s: charge(0, UNIT))
    return VerificationCase("bool-part", INT_COST, impl, spec, phi)


def test_explore_shares_plain_parts_and_keeps_a_bool_bearing_state_as_built():
    received, returned = [], []
    case = _bool_part_case()
    report = explore(_recording(case, received, returned))
    assert report.passed and report.states_explored == 3
    (seed,) = case.impl.seeds
    built = [o.states[0] for o in returned]
    ints = [s for s in received if type(s[1][0]) is int and s[1][0] == 1]
    bools = [s for s in received if s[1][0] is True]
    # The plain state is a copy holding the seed's ("a",); the bool-bearing
    # one is the object `to_bool` returned first, its own ("a",) kept.
    assert ints and all(s[0] is seed[0] and all(s is not b for b in built) for s in ints)
    first_bool = next(b for b in built if b[1][0] is True)
    assert bools and all(s is first_bool for s in bools)
    assert first_bool[0] is not seed[0]


def test_explore_hands_namedtuple_states_over_as_the_transition_built_them():
    received, returned = [], []
    case = get_case("typed-state")
    explore(_recording(case, received, returned))
    (seed,) = case.impl.seeds
    # tick(_P(0)) admits the _Q(0) it returns; tick(_Q(0)) builds another.
    assert len(received) == 2 and received[0] is seed
    assert received[1] is returned[0].states[0]


class Term:
    """A cost whose `+` records the fold: ``a + b`` is the term ``("+", a, b)``.

    A leaf is a `Word` and a sum a `Sum`; each equals the plain str or
    tuple it is, so a fold compares with a literal term.
    """

    def __add__(self, other):
        return Sum(("+", self, other))


class Word(Term, str):
    pass


class Sum(Term, tuple):
    pass


# Commutative by declaration only: its sums are terms that record the fold.
TERM_COST = CostMonoid("terms", Word("0"), True, False)


def test_tensor_folds_from_the_identity_in_slot_order():
    images = [Charged(Word(f"c{j}"), f"v{j}") for j in range(3)]
    assert tensor(TERM_COST) == Charged("0", ())
    assert tensor(TERM_COST, images[0]) == Charged(("+", "0", "c0"), ("v0",))
    folded = ("+", ("+", ("+", "0", "c0"), "c1"), "c2")
    assert tensor(TERM_COST, *images) == Charged(folded, ("v0", "v1", "v2"))


def _term_swap_case():
    """Fin 3 over `TERM_COST`: `step` (1-in/1-out) and `swap` (2-in/2-out).

    Φ(s) = Charged(Word(f"c{s}"), s) and the spec mirrors the impl, so every
    square fails on cost alone: lhs is ("+", Φ(in), "t") and rhs is ("+",
    "i", Φ(out)), each Φ term the fold its square took.
    """
    step, swap = MethodSig("step"), MethodSig("swap", in_arity=2, out_arity=2)

    def side(cost):
        return Coalgebra(
            StateDomain("fin3"),
            (0,),
            (
                Method(step, lambda s, a: charge(cost, Continue(UNIT, ((s[0] + 1) % 3,)))),
                Method(swap, lambda s, a: charge(cost, Continue(UNIT, (s[1], s[0])))),
            ),
        )

    phi = PotentialMorphism(lambda s: Charged(Word(f"c{s}"), s))
    return VerificationCase("term-swap", TERM_COST, side(Word("i")), side(Word("t")), phi)


def test_every_phi_sum_folds_from_the_identity_once():
    # The Φ table of a case with a 2-input method keeps Φ's images as Φ
    # returns them, so a unary square folds Φ(in) as `tensor` does,
    # in `check_square` and in `explore` alike, and so does every successor.
    case = _term_swap_case()

    def fold(states):
        return tensor(TERM_COST, *map(case.phi.phi, states)).cost

    assert check_square(case, "step", (0,)).lhs.cost == ("+", ("+", "0", "c0"), "t")
    report = explore(case, limit=100)
    assert report.failures == len(report.counterexamples) == 3 + 9
    checks = report.counterexamples + (
        check_square(case, "step", (2,)),
        check_square(case, "swap", (1, 2)),
    )
    assert {len(c.inputs) for c in checks} == {1, 2}
    for c in checks:
        assert c.verdict is Verdict.COST_MISMATCH
        assert c.lhs.cost == ("+", fold(c.inputs), "t"), c
        assert c.rhs.cost == ("+", "i", fold(c.rhs.value.states)), c  # Φ(s) holds s


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("i", range(7))
def test_tuples_with_max_matches_filtered_product(i, k):
    # State j has Φ image Charged(f"c{j}", f"v{j}"), kept as the entry
    # ((s,), Φ cost, (Φ value,)); entries past i must not be used. A term
    # cost pins the left fold from the identity.
    entries = [((f"s{j}",), f"c{j}", (f"v{j}",)) for j in range(9)]
    expected = [t for t in product(range(i + 1), repeat=k) if max(t) == i]
    got = list(_tuples_with_max(entries, i, k, TERM_COST))
    assert [inputs for inputs, _, _ in got] == [tuple(f"s{j}" for j in t) for t in expected]
    for t, (_, cost, values) in zip(expected, got):
        images = [Charged(f"c{j}", f"v{j}") for j in t]
        assert Charged(cost, values) == tensor(TERM_COST, *images), t
    if (i, k) == (1, 2):
        assert got[0][1] == ("+", ("+", "0", "c0"), "c1")


def _filter_counted(case):
    calls = [0]

    def keep(state):
        calls[0] += 1
        return True

    return replace(case, explore_filter=keep), calls


def test_state_cap_stops_collecting_once_it_refuses_an_unseen_state():
    # At the merge benchmark's bounds the cap binds at state 200; after
    # that no successor is filtered, keyed or looked up (filtering every
    # candidate would take 40,801 calls).
    case, calls = _filter_counted(piggy_bank_case())
    report = explore(case, max_depth=64, max_states=200)
    got = (report.verdict, report.states_explored, report.squares_checked, report.slack_max)
    assert got == ("pass", 200, 40_600, 0)
    assert calls[0] == 10_604
    # allocator's space is closed at its 8 seeds: a cap that is reached
    # but never refuses a state stops nothing.
    runs = []
    for max_states in (None, 8):
        case, calls = _filter_counted(allocator_case())
        report = replace(explore(case, max_states=max_states), wall_time=0)
        runs.append((calls[0], report))
    assert runs[0] == runs[1] and runs[0][0] == 16 and runs[0][1].states_explored == 8


def test_check_square_fills_serialized_inputs():
    check = check_square(broken_allocator_case(), "alloc", (0,))
    assert check.verdict is Verdict.COST_MISMATCH
    assert check.inputs_serialized == ("i0",) and check.arg_literal == "()"
    passing = check_square(allocator_case(), "alloc", (3,))
    assert passing.verdict is Verdict.PASS
    assert passing.inputs_serialized == ("i3",)


def test_reports_serialize_states_with_the_domain_serializer():
    sig = MethodSig("tick")

    def impl_tick(states, arg):
        (n,) = states
        return charge(2, Continue(UNIT, (n + 1,)))

    def spec_tick(states, arg):
        return charge(1, Continue(UNIT, (UNIT,)))

    impl = Coalgebra(
        StateDomain("nat", serialize=lambda n: f"<{n}>"),
        (0,),
        (Method(sig, impl_tick),),
        state_invariant=lambda n: n < 3,
    )
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(sig, spec_tick),))
    phi = PotentialMorphism(lambda n: charge(0, UNIT))
    case = VerificationCase("ticks", INT_COST, impl, spec, phi)

    with pytest.raises(StateInvariantViolation) as err:
        explore(case)
    assert "state <3> at depth 3" in str(err.value)
    report = explore(case, max_depth=2, limit=2)
    assert report.failures == 3
    assert [c.inputs_serialized for c in report.counterexamples] == [("<0>",), ("<1>",)]


def test_an_invariant_violation_names_its_depth_under_two_seeds():
    # Seeds 0 and 10 open level 0; 1 and 11 are level 1, 2 and 12 level 2.
    sig = MethodSig("tick")
    impl = Coalgebra(
        StateDomain("nat"),
        (0, 10),
        (Method(sig, lambda states, arg: charge(1, Continue(UNIT, (states[0] + 1,)))),),
        state_invariant=lambda n: n != 12,
    )
    spec = Coalgebra(
        StateDomain("unit"),
        (UNIT,),
        (Method(sig, lambda states, arg: charge(1, Continue(UNIT, (UNIT,)))),),
    )
    phi = PotentialMorphism(lambda n: charge(0, UNIT))
    case = VerificationCase("two-seeds", INT_COST, impl, spec, phi)
    with pytest.raises(StateInvariantViolation, match="state i12 at depth 2 breaks"):
        explore(case)
    assert explore(case, max_depth=1).states_explored == 4


def _counted(case):
    """`case` with its user calls counted: impl and spec transitions, Φ."""
    counts = {"impl": 0, "spec": 0, "phi": 0}

    def counter(key, fn):
        def run(*args):
            counts[key] += 1
            return fn(*args)

        return run

    def side(coalg, key):
        methods = tuple(replace(m, run=counter(key, m.run)) for m in coalg.methods)
        return replace(coalg, methods=methods)

    phi = replace(case.phi, phi=counter("phi", case.phi.phi))
    counted = replace(case, impl=side(case.impl, "impl"), spec=side(case.spec, "spec"), phi=phi)
    return counted, counts


USER_CALLS = [  # name, impl, spec and Φ calls, explore bounds
    ("stack", 1749, 1749, 2329, {}),
    ("queue-lax", 1539, 1539, 2051, {}),
    ("piggy", 1720, 1720, 79, {}),
    ("piggy", 40600, 40600, 399, {"max_depth": 64, "max_states": 200}),  # the merge benchmark
    ("rand-alloc", 4, 4, 8, {}),
]


@pytest.mark.parametrize(
    "name, impl, spec, phi, bounds",
    USER_CALLS,
    ids=["-".join(map(str, calls[:4])) for calls in USER_CALLS],
)
def test_explore_makes_exactly_the_recorded_user_calls(name, impl, spec, phi, bounds):
    # One impl and one spec call per square. Unary-only cases call Φ once
    # per expanded state and once per successor. A case with a k-input
    # method keeps one Φ table per run, so Φ runs once per distinct typed
    # state: piggy's 79 are its 40 states and the 39 successors past the
    # cap (1800 applications, one per expanded state and per successor);
    # at the merge benchmark's bounds, its 200 states and 199 more.
    case, counts = _counted(get_case(name))
    report = explore(case, **bounds)
    assert report.squares_checked == impl
    assert counts == {"impl": impl, "spec": spec, "phi": phi}


def test_shared_spec_outcome_is_guarded_under_each_signature():
    # Within one call the square engine remembers the last spec outcome
    # that passed its shape guard. `grow` returns that very object, but
    # declares two successors, so it must still be refused, not compared as
    # a behaviour.
    one = Continue(UNIT, (UNIT,))
    join = MethodSig("join", in_arity=2, out_arity=1)
    grow = MethodSig("grow", out_arity=2)
    impl = Coalgebra(
        StateDomain("nat"),
        (0,),
        (
            Method(join, lambda ns, a: charge(0, Continue(UNIT, (ns[0] + ns[1],)))),
            Method(grow, lambda ns, a: charge(0, Continue(UNIT, (ns[0], ns[0])))),
        ),
    )
    spec = Coalgebra(
        StateDomain("unit"),
        (UNIT,),
        (Method(join, lambda s, a: charge(0, one)), Method(grow, lambda s, a: charge(0, one))),
    )
    phi = PotentialMorphism(lambda n: charge(0, UNIT))
    case = VerificationCase("shared", INT_COST, impl, spec, phi)
    with pytest.raises(ArityMismatch, match="^grow produced 1 successor state"):
        explore(case)


def test_check_square_makes_one_call_per_side_and_per_state():
    case, counts = _counted(get_case("piggy"))
    assert check_square(case, "merge", (2, 5)).verdict is Verdict.PASS
    assert counts == {"impl": 1, "spec": 1, "phi": 3}


@pytest.mark.parametrize(
    "name, steps, phi",
    [
        (
            "deque",
            (("push_front", "a"), ("push_back", "b"), ("pop_back", UNIT), ("pop_back", UNIT)),
            2,
        ),
        ("stack", (("push", "a"), ("pop", UNIT), ("pop", UNIT)), 1),
    ],
    ids=["deque", "stack-pops-empty"],
)
def test_check_trace_makes_one_call_per_side_per_step(name, steps, phi):
    # Φ runs on the seed and on the final state; a trace that ends in Stop
    # (the stack's second pop) has no final state.
    case, counts = _counted(get_case(name))
    report = check_trace(case, Trace(steps))
    assert report.passed and report.squares_checked == len(steps)
    assert counts == {"impl": len(steps), "spec": len(steps), "phi": phi}


def test_check_trace_guards_the_impl_step_before_its_spec_step():
    # The impl breaks its shape at step 2, with two successors where one
    # is declared: the spec transition of that step never runs.
    sig = MethodSig("step")

    def impl_run(states, arg):
        (n,) = states
        return charge(0, Continue(UNIT, (n + 1,) * (2 if n == 2 else 1)))

    def spec_run(states, arg):
        (n,) = states
        return charge(0, Continue(UNIT, (n + 1,)))

    impl = Coalgebra(StateDomain("nat"), (0,), (Method(sig, impl_run),))
    spec = Coalgebra(StateDomain("nat"), (0,), (Method(sig, spec_run),))
    phi = PotentialMorphism(lambda n: charge(0, n))
    case, counts = _counted(VerificationCase("bad-shape", INT_COST, impl, spec, phi))
    with pytest.raises(ArityMismatch, match="step produced 2 successor state"):
        check_trace(case, Trace((("step", UNIT),) * 5))
    assert counts == {"impl": 3, "spec": 2, "phi": 1}
