"""Potential application over state tuples and case-level validation."""

import pytest

from amortcheck import (
    ArityMismatch,
    Charged,
    Coalgebra,
    Method,
    MethodSig,
    Mode,
    NAT_COST,
    NonCommutativeTensor,
    OrderUnavailable,
    PotentialMorphism,
    StateDomain,
    TRACE_COST,
    UNIT,
    VerificationCase,
    charge,
    compose_phi,
    explore,
    get_case,
)
from amortcheck.coalgebra import Continue, sum_images
from amortcheck.encoding import state_key


def test_sum_images_allocator_potential():
    phi = lambda d: Charged(7 - d, UNIT)
    assert sum_images(NAT_COST, map(phi, (3,))) == (4, (UNIT,))


def test_sum_images_zero_cost_on_two_states():
    phi = lambda s: Charged(0, s)
    assert sum_images(NAT_COST, map(phi, ("s1", "s2"))) == (0, ("s1", "s2"))


def test_sum_images_sums_piggy_potentials():
    phi = lambda n: Charged(n, UNIT)
    assert sum_images(NAT_COST, map(phi, (2, 5))) == (7, (UNIT, UNIT))


def test_sum_images_singleton_equals_phi():
    phi = lambda s: Charged(2 * s, s + 1)
    for s in range(6):
        assert sum_images(NAT_COST, map(phi, (s,))) == (phi(s).cost, (phi(s).value,))


def _tiny_coalgebra(sig=None):
    sig = sig or MethodSig("step")
    return Coalgebra(
        StateDomain("nat"),
        (0,),
        (Method(sig, lambda s, a: charge(1, Continue(UNIT, (s[0],)))),),
    )


def test_coalgebra_needs_a_seed_and_distinct_method_names():
    step = Method(MethodSig("step"), lambda s, a: charge(0, Continue(UNIT, s)))
    with pytest.raises(ValueError, match=r"^a coalgebra needs at least one seed state$"):
        Coalgebra(StateDomain("zero"), (), (step,))
    with pytest.raises(ValueError, match=r"^duplicate method names: \['step', 'step'\]$"):
        Coalgebra(StateDomain("zero"), (0,), (step, step))


def test_method_sig_rejects_bad_arities():
    with pytest.raises(ArityMismatch, match=r"^m: in_arity must be positive$"):
        MethodSig("m", in_arity=0)
    with pytest.raises(ArityMismatch, match=r"^m: out_arity must be non-negative$"):
        MethodSig("m", out_arity=-1)


def test_case_rejects_mismatched_signature_tables():
    impl = _tiny_coalgebra(MethodSig("step"))
    spec = _tiny_coalgebra(MethodSig("other"))
    with pytest.raises(ValueError):
        VerificationCase(
            "bad", NAT_COST, impl, spec, PotentialMorphism(lambda s: Charged(0, s))
        )


def test_case_rejects_multi_slot_over_non_commutative_monoid():
    sig = MethodSig("merge", in_arity=2, out_arity=1)
    coalg = Coalgebra(
        StateDomain("str"),
        ("",),
        (Method(sig, lambda s, a: charge("", Continue(UNIT, (s[0],)))),),
    )
    with pytest.raises(NonCommutativeTensor):
        VerificationCase(
            "bad", TRACE_COST, coalg, coalg, PotentialMorphism(lambda s: Charged("", s))
        )


def test_case_rejects_colax_over_unordered_monoid():
    coalg = Coalgebra(
        StateDomain("str"),
        ("",),
        (Method(MethodSig("w"), lambda s, a: charge("", Continue(UNIT, (s[0],)))),),
    )
    colax = PotentialMorphism(lambda s: Charged("", s), Mode.COLAX)
    exact = PotentialMorphism(lambda s: Charged("", s))
    # A colax composite is refused where the case is built, naming the case.
    for phi in (colax, compose_phi(TRACE_COST, exact, colax)):
        with pytest.raises(OrderUnavailable, match="^bad: colax mode needs an ordered"):
            VerificationCase("bad", TRACE_COST, coalg, coalg, phi)


@pytest.mark.parametrize("name", ["allocator", "stack", "queue-lax", "buffer", "piggy"])
def test_serialization_round_trips_on_explored_states(name):
    """Report text leads back to one state: `serialize` is injective here."""
    case = get_case(name)
    domain = case.impl.state_domain
    states = {}  # typed value identity -> state
    # walk a few transitions to gather reachable states
    frontier = list(case.impl.seeds)
    while frontier and len(states) < 200:
        s = frontier.pop()
        key = state_key(s)
        if key in states:
            continue
        states[key] = s
        for m in case.impl.methods:
            if m.sig.in_arity != 1:
                continue
            for arg in m.sig.arg_domain:
                out = m.run((s,), arg)
                value = out.value.branches[0][1] if case.randomized else out.value
                if hasattr(value, "states"):
                    frontier.extend(value.states)
    texts = {domain.serialize(s) for s in states.values()}
    assert len(states) > 1
    assert len(texts) == len(states)


def test_mode_override_produces_equivalent_case():
    case = get_case("queue-lax")
    forced = case.with_mode(Mode.EXACT)
    assert forced.phi.mode is Mode.EXACT
    assert case.phi.mode is Mode.COLAX  # original untouched
    assert explore(forced).passed is False
