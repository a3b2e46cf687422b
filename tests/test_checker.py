"""Square checks, exploration, traces, and expected-cost squares.

Expected values for the hand-derived examples were computed by evaluating
the amortization equation directly (documented inline per check) and are
frozen here; exploration results are cross-checked against those.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from amortcheck import (
    INT_COST,
    RATIONAL_COST,
    STOP,
    UNIT,
    ArityMismatch,
    Coalgebra,
    Continue,
    Method,
    MethodSig,
    Mode,
    OrderUnavailable,
    PotentialMorphism,
    StateDomain,
    StateInvariantViolation,
    Trace,
    TraceParseError,
    UnsupportedArity,
    VerificationCase,
    Verdict,
    charge,
    expect,
    check_square,
    check_trace,
    explore,
    get_case,
    parse_trace,
    random_trace,
)
from amortcheck.checker import _tuples_with_max
from amortcheck.encoding import encode
from amortcheck.structures import (
    allocator_case,
    batched_queue_case,
    broken_allocator_case,
    buffer_case,
    randomized_allocator_case,
)


def test_allocator_square_at_zero():
    # lhs = phi(0) + 1 = 7 + 1 = 8; rhs = 8 + phi(7) = 8 + 0 = 8
    check = check_square(allocator_case(), "alloc", (0,))
    assert check.verdict is Verdict.PASS
    assert check.lhs_cost == 8 and check.rhs_cost == 8


def test_allocator_square_at_three():
    # lhs = phi(3) + 1 = 4 + 1 = 5; rhs = 0 + phi(2) = 5
    check = check_square(allocator_case(), "alloc", (3,))
    assert check.verdict is Verdict.PASS
    assert check.lhs_cost == 5 and check.rhs_cost == 5


def test_queue_flush_square_dichotomy():
    # inbox stores newest first; flushing ("a","b") reverses two elements.
    # lhs = 2*2 + 0 = 4; rhs = per_element*2 + phi(empty inbox) = per*2.
    state = (("a", "b"), ())
    lax = batched_queue_case(1)
    exact_check = check_square(lax.with_mode(Mode.EXACT), "dequeue", (state,))
    assert exact_check.verdict is Verdict.COST_MISMATCH
    assert exact_check.lhs_cost == 4 and exact_check.rhs_cost == 2
    colax_check = check_square(lax, "dequeue", (state,))
    assert colax_check.verdict is Verdict.PASS

    exact_case = batched_queue_case(2)
    check = check_square(exact_case, "dequeue", (state,))
    assert check.verdict is Verdict.PASS
    assert check.lhs_cost == 4 and check.rhs_cost == 4


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
    assert zero and zero[0].lhs_cost == 1 and zero[0].rhs_cost == 15


def test_counterexamples_round_trip_through_check_square():
    report = explore(broken_allocator_case())
    assert report.failures >= 1
    for c in report.counterexamples:
        again = check_square(broken_allocator_case(), c.method, c.inputs, c.arg)
        assert again.verdict is c.verdict
        assert again.lhs_cost == c.lhs_cost and again.rhs_cost == c.rhs_cost


def test_behavior_mismatch_takes_precedence_and_never_passes():
    report = explore(get_case("queue-lax").with_mode(Mode.EXACT))
    for c in report.counterexamples:
        assert c.verdict is not Verdict.PASS
        # these planted failures are cost-only: behavior still simulates
        assert c.verdict is Verdict.COST_MISMATCH


def test_behavior_mismatch_when_phi_forgets_to_reverse():
    import dataclasses

    from amortcheck import Charged, PotentialMorphism

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
    assert report.slack_max == 0  # total impl 8 equals total spec 8


def test_trace_empty_is_trivially_exact():
    report = check_trace(allocator_case(), Trace(()))
    assert report.passed and report.squares_checked == 0


def test_trace_buffer_emission_identity():
    # chop-concatenation: emitted ++ residue == all inputs, brute-forced
    case = buffer_case(4)
    trace = Trace((("write", "ab"), ("write", "cde"[:3].replace("c", "b")),))
    report = check_trace(case, trace)
    assert report.passed


def test_trace_rejects_multi_slot_methods():
    case = get_case("piggy")
    with pytest.raises(UnsupportedArity):
        check_trace(case, Trace((("merge", UNIT),)))


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
    assert at0.lhs_cost == 2 and at0.rhs_cost == 2
    at2 = check_square(case, "alloc", (2,))
    # lhs = 1/2 + 1/2 = 1 ; rhs = 0 + phi(1) = 1
    assert at2.verdict is Verdict.PASS
    assert at2.lhs_cost == 1 and at2.rhs_cost == 1


def test_expected_point_distribution_matches_deterministic_verdict():
    rand = randomized_allocator_case(1, Fraction(0))
    expected = check_square(rand, "alloc", (0,))
    assert expected.verdict is Verdict.PASS
    report = explore(rand)
    assert report.passed and report.states_explored == 1


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
    return VerificationCase(
        "coin-stop", RATIONAL_COST, impl, spec, phi, randomized=True
    )


def test_square_weighs_stop_and_continue_branches():
    case = _coin_stop_case(Fraction(1, 2))
    # lhs = phi(0) + 1 = 1 ; rhs = E[impl] + 1/2 * phi(1) = 0 + 1
    at0 = check_square(case, "alloc", (0,))
    assert at0.verdict is Verdict.PASS
    assert at0.lhs_cost == 1 and at0.rhs_cost == 1
    # lhs = phi(1) + 1 = 3 ; rhs = 1/2 * 6 + 1/2 * phi(0) = 3
    at1 = check_square(case, "alloc", (1,))
    assert at1.verdict is Verdict.PASS
    assert at1.lhs_cost == 3 and at1.rhs_cost == 3

    # Same expected costs, but the spec stops with probability 1/4.
    skewed = check_square(_coin_stop_case(Fraction(1, 4)), "alloc", (0,))
    assert skewed.verdict is Verdict.BEHAVIOR_MISMATCH
    assert skewed.lhs_cost == skewed.rhs_cost == 1


def test_explore_admits_only_continue_successors():
    report = explore(_coin_stop_case(Fraction(1, 2)))
    # The seed 0 plus the one successor of its Continue branch; Stop adds none.
    assert report.passed
    assert report.states_explored == 2
    assert report.squares_checked == 2


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
    assert err.value.line == 1


def test_parse_trace_unit_and_int_literals():
    alloc = allocator_case()
    trace = parse_trace(alloc, "alloc ()\nalloc ()\n")
    assert trace.steps == (("alloc", UNIT), ("alloc", UNIT))
    assert check_trace(alloc, trace).passed


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


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("i", range(7))
def test_tuples_with_max_matches_filtered_product(i, k):
    expected = [t for t in product(range(i + 1), repeat=k) if max(t) == i]
    assert list(_tuples_with_max(i, k)) == expected


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
