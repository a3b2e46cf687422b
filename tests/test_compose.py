"""Composition: chained potentials, paired cases, signature translations."""

from dataclasses import replace

import pytest

from amortcheck import (
    STOP,
    ArityMismatch,
    Charged,
    Continue,
    Coalgebra,
    Method,
    MethodSig,
    Mode,
    NAT_COST,
    NonCommutativeTensor,
    PotentialMorphism,
    StateDomain,
    StepBudgetExceeded,
    UNIT,
    UnsupportedArity,
    Verdict,
    charge,
    check_square,
    compose_phi,
    explore,
    get_case,
    pair_cases,
    translate_case,
)
from amortcheck.compose import (
    STEP_BUDGET,
    ProgramMethod,
    SubstrateRun,
    alloc16_to_8_case,
    alloc16_via_8_case,
    counter_via_stack_case,
    queue_via_stacks_case,
)
from amortcheck.structures import (
    allocator_case,
    broken_allocator_case,
    buffer_case,
    randomized_allocator_case,
)


def _identity_phi():
    return PotentialMorphism(lambda s: Charged(0, s))


def test_compose_with_identity_is_identity():
    phi = PotentialMorphism(lambda d: Charged(7 - d, UNIT))
    left = compose_phi(NAT_COST, _identity_phi(), phi)
    right = compose_phi(NAT_COST, phi, PotentialMorphism(lambda s: Charged(0, s)))
    for d in range(8):
        assert left.phi(d) == phi.phi(d) == right.phi(d)


def test_compose_is_associative_pointwise():
    f = PotentialMorphism(lambda d: Charged(1, d + 1))
    g = PotentialMorphism(lambda d: Charged(2 * d, d % 3))
    h = PotentialMorphism(lambda d: Charged(5, str(d)))
    lhs = compose_phi(NAT_COST, compose_phi(NAT_COST, f, g), h)
    rhs = compose_phi(NAT_COST, f, compose_phi(NAT_COST, g, h))
    for d in range(10):
        assert lhs.phi(d) == rhs.phi(d)


def test_alloc16_composite_potential_is_fifteen_minus_d():
    case = alloc16_via_8_case()
    for d in range(16):
        assert case.phi.phi(d).cost == 15 - d
    assert explore(case).passed


def test_composite_passes_when_both_stages_pass():
    stage1 = explore(alloc16_to_8_case())
    stage2 = explore(allocator_case())
    composite = explore(alloc16_via_8_case())
    assert stage1.passed and stage2.passed and composite.passed


def test_pair_of_allocators_passes():
    paired = pair_cases(allocator_case(), allocator_case())
    report = explore(paired)
    assert report.passed
    assert report.states_explored == 64


def test_pair_potential_adds_component_potentials():
    paired = pair_cases(allocator_case(), allocator_case())
    for a in range(8):
        for b in range(8):
            assert paired.phi.phi((a, b)).cost == (7 - a) + (7 - b)


def test_pairing_with_a_failing_case_fails():
    paired = pair_cases(allocator_case(), broken_allocator_case())
    assert not explore(paired).passed


def test_pairing_guards_each_component_outcome():
    # `alloc` declares one successor but returns two; paired, it must be
    # refused as it is unpaired, not cut to its first successor.
    base = allocator_case()
    two = Method(MethodSig("alloc"), lambda s, a: charge(1, Continue(UNIT, (0, 1))))
    bad = replace(base, impl=replace(base.impl, methods=(two,)))
    for case in (bad, pair_cases(bad, allocator_case())):
        with pytest.raises(ArityMismatch, match=r"^alloc produced 2 successor state"):
            explore(case)


def test_pairing_requires_commutative_monoid_and_unary_methods():
    with pytest.raises(NonCommutativeTensor):
        pair_cases(buffer_case(2), buffer_case(2))
    with pytest.raises(UnsupportedArity):
        pair_cases(get_case("piggy"), get_case("piggy"))
    with pytest.raises(ValueError):
        pair_cases(allocator_case(), get_case("rand-alloc"))


def test_pairing_rejects_two_randomized_cases():
    rand = randomized_allocator_case()
    with pytest.raises(ValueError, match=r"^pairing of randomized cases is not supported$"):
        pair_cases(rand, rand)


def test_translation_rejects_a_randomized_base_and_an_unknown_side():
    target = allocator_case()
    args = ((), target.spec, _identity_phi(), "t")
    with pytest.raises(
        ValueError, match=r"^translation over randomized substrates is unsupported$"
    ):
        translate_case(randomized_allocator_case(), *args)
    with pytest.raises(ValueError, match=r"^over must be 'spec' or 'impl'$"):
        translate_case(target, *args, over="bogus")


def test_counter_via_stack_passes_exact(explored):
    report = explored("counter-via-stack")
    assert report.passed and report.mode is Mode.EXACT


def test_counter_via_stack_square_costs():
    case = counter_via_stack_case()
    inc = check_square(case, "increment", ((),))
    assert inc.lhs_cost == 3 and inc.rhs_cost == 3  # push costs the spec's 3
    dec_empty = check_square(case, "decrement", ((),))
    assert dec_empty.verdict is Verdict.PASS
    assert dec_empty.lhs_cost == 0 and dec_empty.rhs_cost == 0
    dec = check_square(case, "decrement", ((("a", "a"),),))
    assert dec.lhs_cost == 2 and dec.rhs_cost == 2


def test_queue_via_stacks_passes_exact(explored):
    report = explored("queue-via-stacks")
    assert report.passed and report.mode is Mode.EXACT


def test_queue_via_stacks_flush_square():
    case = queue_via_stacks_case()
    # two elements in the inbox stack, outbox empty: flush costs 5 each + 2
    state = ((("b", "a"), ()),)
    check = check_square(case, "dequeue", state)
    assert check.verdict is Verdict.PASS
    assert check.lhs_cost == 12 and check.rhs_cost == 12


def test_queue_via_stacks_dequeue_on_empty_pair_stops():
    case = queue_via_stacks_case()
    check = check_square(case, "dequeue", (((), ()),))
    assert check.verdict is Verdict.PASS
    assert check.lhs_cost == 0 and check.rhs_cost == 0


def test_pipeline_over_arrays_passes_colax(explored):
    report = explore(queue_via_stacks_case(over="impl"))
    assert report.passed and report.mode is Mode.COLAX


def test_translation_flush_cost_is_the_sum_of_substrate_costs():
    base = pair_cases(get_case("stack"), get_case("stack"))

    def dequeue(sub, arg):
        got = sub.call("right.pop")
        if got is not STOP:
            return got
        while True:
            moved = sub.call("left.pop")
            if moved is STOP:
                break
            sub.call("right.push", moved)
        return sub.call("right.pop")

    sub = SubstrateRun(base.spec, NAT_COST, (("a", "b"), ()))
    got = dequeue(sub, UNIT)
    # failed pop 0, two pop+push moves 2*(2+3), emptiness probe 0, final pop 2
    assert sub.cost == 0 + 2 * (2 + 3) + 0 + 2 == 12
    assert (got, sub.state) == ("b", ((), ("a",)))


def _substrate(sig, outcome):
    method = Method(sig, lambda states, arg: charge(0, outcome))
    return Coalgebra(StateDomain("zero"), (0,), (method,))


@pytest.mark.parametrize(
    "outcome", [STOP, Continue(UNIT, (0, 0))], ids=["stop-not-may-stop", "two-states"]
)
def test_substrate_calls_get_the_square_shape_guard(outcome):
    sub = SubstrateRun(_substrate(MethodSig("tick"), outcome), NAT_COST, 0)
    with pytest.raises(ArityMismatch):
        sub.call("tick")


def test_substrate_calls_need_one_in_one_out_methods():
    stops = _substrate(MethodSig("tick", may_stop=True), STOP)
    sub = SubstrateRun(stops, NAT_COST, 0)
    assert sub.call("tick") is STOP and sub.state == 0
    split = MethodSig("split", out_arity=2)
    sub = SubstrateRun(_substrate(split, Continue(UNIT, (0, 0))), NAT_COST, 0)
    with pytest.raises(UnsupportedArity, match="split is not 1-in/1-out"):
        sub.call("split")


def test_translation_budget_is_enforced():
    from amortcheck import translate_case

    base = allocator_case()

    calls_made = []

    def loops_forever(sub, arg):
        while True:
            sub.call("alloc")
            calls_made.append(sub.calls)

    programs = (ProgramMethod(MethodSig("spin"), loops_forever),)
    spec = Coalgebra(
        StateDomain("unit"),
        (UNIT,),
        (Method(MethodSig("spin"), lambda s, a: charge(1, Continue(UNIT, (UNIT,)))),),
    )
    case = translate_case(
        base, programs, spec, _identity_phi(), name="spin", max_depth=1
    )
    with pytest.raises(StepBudgetExceeded, match=f"exceeded {STEP_BUDGET} "):
        check_square(case, "spin", (UNIT,))
    assert calls_made[-1] == len(calls_made) == STEP_BUDGET
