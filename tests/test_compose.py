"""Composition: chained potentials, paired cases, signature translations."""

from dataclasses import fields, replace
from fractions import Fraction

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
    Trace,
    UNIT,
    UnsupportedArity,
    VerificationCase,
    Verdict,
    charge,
    check_square,
    check_trace,
    compose_phi,
    expect,
    explore,
    get_case,
    pair_cases,
    translate,
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
    cyclic_allocator,
    randomized_allocator_case,
    stack_case,
    varying_cost_case,
)


def _identity_phi():
    return PotentialMorphism(lambda s: Charged(0, s))


def test_compose_with_identity_is_identity():
    phi = PotentialMorphism(lambda d: Charged(7 - d, UNIT))
    left = compose_phi(_identity_phi(), phi)
    right = compose_phi(phi, PotentialMorphism(lambda s: Charged(0, s)))
    for d in range(8):
        assert left.phi(d) == phi.phi(d) == right.phi(d)


def test_compose_is_associative_pointwise():
    f = PotentialMorphism(lambda d: Charged(1, d + 1))
    g = PotentialMorphism(lambda d: Charged(2 * d, d % 3))
    h = PotentialMorphism(lambda d: Charged(5, str(d)))
    lhs = compose_phi(compose_phi(f, g), h)
    rhs = compose_phi(f, compose_phi(g, h))
    for d in range(10):
        assert lhs.phi(d) == rhs.phi(d)


def test_alloc16_composite_potential_is_fifteen_minus_d():
    case = alloc16_via_8_case()
    for d in range(16):
        assert case.phi.phi(d).cost == 15 - d
    assert explore(case).passed


def test_alloc16_via_8_is_its_first_stage_with_a_composed_potential():
    # The composite keeps the 16-burst impl, the unit-cost spec, the cost
    # model and the exact mode, and its Φ is the composition it restated.
    case, stage2 = alloc16_via_8_case(), allocator_case()
    assert case.name == "alloc16-via-8"
    assert case.monoid is NAT_COST and case.phi.mode is Mode.EXACT
    for got, want in ((case.impl, cyclic_allocator(16)), (case.spec, stage2.spec)):
        assert got.state_domain == want.state_domain and got.seeds == want.seeds
        assert got.sig_table == want.sig_table
        for s in got.seeds:
            assert got.method("alloc").run((s,), UNIT) == want.method("alloc").run((s,), UNIT)
    assert case.impl.state_invariant is not None
    assert all(case.impl.state_invariant(d) for d in range(16))
    assert not case.impl.state_invariant(16)
    old = compose_phi(alloc16_to_8_case().phi, stage2.phi)
    for d in range(16):
        assert case.phi.phi(d) == old.phi(d)


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


@pytest.mark.parametrize("over", ["spec", "impl"])
def test_a_translation_keeps_its_substrate_whole(over):
    # The implementation is the substrate with the programs for methods:
    # its domain, seeds and invariant are the substrate's own objects.
    base = allocator_case()
    base = replace(base, spec=replace(base.spec, state_invariant=lambda s: s == UNIT))
    substrate = getattr(base, over)
    programs = (ProgramMethod(MethodSig("alloc"), lambda sub, arg: sub.call("alloc")),)
    impl = translate(substrate, base.monoid, programs)
    assert isinstance(impl, Coalgebra)
    assert impl.state_domain is substrate.state_domain
    assert impl.seeds is substrate.seeds
    assert impl.state_invariant is substrate.state_invariant is not None
    assert [m.sig for m in impl.methods] == [programs[0].sig]


def test_a_translation_with_no_program_is_refused():
    base = allocator_case()
    with pytest.raises(ValueError, match=r"^a coalgebra needs at least one method$"):
        translate(base.spec, base.monoid, ())


def test_composite_bounds_follow_the_case_defaults():
    # A pair caps its state product at `VerificationCase`'s default cap.
    defaults = {f.name: f.default for f in fields(VerificationCase)}
    paired = pair_cases(allocator_case(), allocator_case())
    assert paired.max_states == defaults["max_states"]
    small = replace(allocator_case(), max_states=8)
    assert pair_cases(small, small).max_states == 64


@pytest.mark.parametrize(
    "left, right, joined",
    [
        (Mode.EXACT, Mode.EXACT, Mode.EXACT),
        (Mode.EXACT, Mode.COLAX, Mode.COLAX),
        (Mode.COLAX, Mode.EXACT, Mode.COLAX),
        (Mode.COLAX, Mode.COLAX, Mode.COLAX),
    ],
    ids=["exact-exact", "exact-colax", "colax-exact", "colax-colax"],
)
def test_a_composite_is_colax_when_either_part_is(left, right, joined):
    parts = allocator_case().with_mode(left), allocator_case().with_mode(right)
    assert pair_cases(*parts).phi.mode is joined
    assert compose_phi(parts[0].phi, parts[1].phi).mode is joined


def test_pairs_keep_their_parts_explore_filters():
    # `varying` is defective at 40, but its filter stops it at 29, so it
    # passes on 30 states; the pair must not explore past that filter.
    varying = replace(varying_cost_case(defect_at=40), explore_filter=lambda i: i < 30)
    assert explore(varying, max_depth=64).passed
    paired = pair_cases(varying, allocator_case())
    report = explore(paired, max_depth=64)
    assert report.passed
    assert (report.states_explored, report.squares_checked) == (30 * 8, 2 * 30 * 8)
    assert pair_cases(allocator_case(), allocator_case()).explore_filter is None


def test_a_pair_whose_component_filter_refuses_its_seed_is_refused():
    # The stack's one seed is the empty array; a filter that wants items
    # refuses it, so the pair's filter admits none of the 8 pair seeds.
    stack = replace(stack_case(), explore_filter=lambda s: len(s[1]) > 0)
    paired = pair_cases(stack, allocator_case())
    with pytest.raises(ValueError, match=r"^pair\(stack,allocator\): the explore filter admits no seed$"):
        explore(paired)


def test_pair_methods_are_named_by_their_side():
    # Each lifted signature is its component's, renamed `left.` or `right.`.
    left, right = stack_case(), allocator_case()
    paired = pair_cases(left, right)
    for side in ("impl", "spec"):
        want = [
            replace(m.sig, name=f"{tag}.{m.sig.name}")
            for tag, part in (("left", left), ("right", right))
            for m in getattr(part, side).methods
        ]
        assert [m.sig for m in getattr(paired, side).methods] == want
    assert list(paired.impl.sig_table) == ["left.push", "left.pop", "right.alloc"]


def test_a_trace_that_stops_on_both_sides_ends_with_no_potential():
    # A pair's Stop ends the trace: potential(end) vanishes, so the
    # allocator's potential 7 - d at the start is left on the lhs alone,
    # as on the pair's Stop square.
    paired = pair_cases(get_case("queue-exact"), allocator_case())
    for d in (0, 3, 7):
        report = check_trace(paired, Trace((("left.dequeue", UNIT),), seed_index=d))
        assert report.slack_max == 7 - d
        assert report.passed == (d == 7)
        if d < 7:
            (mismatch,) = report.counterexamples
            assert mismatch.detail == f"wanted lhs = rhs, got lhs={7 - d} rhs=0"


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
    with pytest.raises(UnsupportedArity, match=r"^merge is 2-in/1-out, not 1-in/1-out$"):
        pair_cases(get_case("piggy"), get_case("piggy"))
    with pytest.raises(ValueError):
        pair_cases(allocator_case(), get_case("rand-alloc"))


def _branching(case):
    """`case` with an `alloc` whose law branches on both sides: a fair coin
    observed as 0 or 1, the state kept."""
    half = Fraction(1, 2)
    coin = lambda states, arg: expect(
        [(half, charge(0, Continue(0, states))), (half, charge(0, Continue(1, states)))]
    )
    alloc = Method(MethodSig("alloc"), coin)
    return replace(
        case,
        impl=replace(case.impl, methods=(alloc,)),
        spec=replace(case.spec, methods=(alloc,)),
    )


BRANCHES = r"^alloc returned a law of 2 outcomes, not one$"


def test_pairing_two_randomized_cases_passes():
    # rand-alloc's laws are points, so a pair of it lifts each at its
    # expected cost and passes as the component does.
    rand = randomized_allocator_case()
    report = explore(pair_cases(rand, rand))
    assert report.passed, report.counterexamples
    assert (report.states_explored, report.squares_checked) == (16, 32)
    assert report.slack_min == report.slack_max == 0


def test_pairing_rejects_two_randomized_cases():
    # A paired method lifts its component's one outcome, so a law that
    # branches is refused on either side when the pair is explored, naming
    # the component's method.
    rand = randomized_allocator_case()
    for pair in (pair_cases(_branching(rand), rand), pair_cases(rand, _branching(rand))):
        with pytest.raises(ArityMismatch, match=BRANCHES):
            explore(pair)


def _half_per_alloc():
    """A one-point target spec charging 1/2 per `alloc`."""
    half = lambda states, arg: charge(Fraction(1, 2), Continue(UNIT, (UNIT,)))
    return Coalgebra(StateDomain("unit"), (UNIT,), (Method(MethodSig("alloc"), half),))


ALLOC = ProgramMethod(MethodSig("alloc"), lambda sub, arg: sub.call("alloc"))


def _translation(base, over, spec, own):
    """`ALLOC` over `base`'s `over` side against `spec`: `own` alone is on
    trial over the spec, composed after `base.phi` over the impl."""
    phi = own if over == "spec" else compose_phi(base.phi, own)
    impl = translate(getattr(base, over), base.monoid, (ALLOC,))
    return VerificationCase("t", base.monoid, impl, spec, phi)


@pytest.mark.parametrize(
    "over, counts", [("spec", (1, 1)), ("impl", (4, 4))], ids=["spec", "impl"]
)
def test_translation_over_a_randomized_base_passes(over, counts):
    # A substrate call reads rand-alloc's point law as its outcome, at its
    # expected cost: 1/2 per call on the spec, 2 then 0, 0, 0 on the impl.
    own = PotentialMorphism(lambda s: charge(0, UNIT))
    report = explore(_translation(randomized_allocator_case(), over, _half_per_alloc(), own))
    assert report.passed, report.counterexamples
    assert (report.states_explored, report.squares_checked) == counts


def test_translation_rejects_a_randomized_base_and_an_unknown_side():
    # A substrate call threads one successor state, so a law that branches
    # is refused on either side, naming the substrate method.
    target = allocator_case()
    branching = _branching(randomized_allocator_case())
    for over in ("spec", "impl"):
        case = _translation(branching, over, target.spec, _identity_phi())
        with pytest.raises(ArityMismatch, match=BRANCHES):
            explore(case)
    with pytest.raises(ValueError, match=r"^over must be 'spec' or 'impl'$"):
        queue_via_stacks_case(over="bogus")


def test_translation_refuses_a_program_that_is_not_one_in_one_out():
    # A program threads one substrate state; a 2-input one is refused when
    # the case is built, not by a failed unpacking at its first square.
    join = MethodSig("join", in_arity=2)
    step = lambda states, arg: charge(0, Continue(UNIT, (UNIT,)))
    spec = Coalgebra(StateDomain("unit"), (UNIT,), (Method(join, step),))
    programs = (ProgramMethod(join, lambda sub, arg: UNIT),)
    with pytest.raises(UnsupportedArity, match=r"^join is 2-in/1-out, not 1-in/1-out$"):
        translate(allocator_case().spec, NAT_COST, programs)


def test_counter_via_stack_passes_exact(explored):
    report = explored("counter-via-stack")
    assert report.passed and report.mode is Mode.EXACT


def test_counter_via_stack_square_costs():
    case = counter_via_stack_case()
    inc = check_square(case, "increment", ((),))
    assert inc.lhs.cost == 3 and inc.rhs.cost == 3  # push costs the spec's 3
    dec_empty = check_square(case, "decrement", ((),))
    assert dec_empty.verdict is Verdict.PASS
    assert dec_empty.lhs.cost == 0 and dec_empty.rhs.cost == 0
    dec = check_square(case, "decrement", ((("a", "a"),),))
    assert dec.lhs.cost == 2 and dec.rhs.cost == 2


def test_queue_via_stacks_passes_exact(explored):
    report = explored("queue-via-stacks")
    assert report.passed and report.mode is Mode.EXACT


def test_queue_via_stacks_flush_square():
    case = queue_via_stacks_case()
    # two elements in the inbox stack, outbox empty: flush costs 5 each + 2
    state = ((("b", "a"), ()),)
    check = check_square(case, "dequeue", state)
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 12 and check.rhs.cost == 12


def test_queue_via_stacks_dequeue_on_empty_pair_stops():
    case = queue_via_stacks_case()
    check = check_square(case, "dequeue", (((), ()),))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 0 and check.rhs.cost == 0


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
    with pytest.raises(UnsupportedArity, match=r"^split is 1-in/2-out, not 1-in/1-out$"):
        sub.call("split")


@pytest.mark.parametrize(
    "arg, literal", [("z", "'z'"), (True, "True"), (["a"], r"\['a'\]")], ids=["z", "true", "list"]
)
def test_substrate_calls_refuse_an_argument_outside_the_domain(arg, literal):
    # The refused call does not run: state, cost and call count stay as the push left them.
    sub = SubstrateRun(stack_case().spec, NAT_COST, ())
    assert sub.call("push", "a") is UNIT
    state, cost = sub.state, sub.cost
    with pytest.raises(ArityMismatch, match=rf"^push: argument {literal} is not in its domain$"):
        sub.call("push", arg)
    assert (sub.state, sub.cost, sub.calls) == (state, cost, 1)


def test_translation_budget_is_enforced():
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
    impl = translate(base.spec, base.monoid, programs)
    case = VerificationCase("spin", base.monoid, impl, spec, _identity_phi(), max_depth=1)
    with pytest.raises(StepBudgetExceeded, match=f"exceeded {STEP_BUDGET} "):
        check_square(case, "spin", (UNIT,))
    assert calls_made[-1] == len(calls_made) == STEP_BUDGET
