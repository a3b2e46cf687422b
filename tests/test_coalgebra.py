"""Potential application over state tuples and case-level validation."""

import copy
import pickle
from dataclasses import replace

import pytest

from amortcheck import (
    ArityMismatch,
    Charged,
    Coalgebra,
    Dist,
    Method,
    MethodSig,
    Mode,
    NAT_COST,
    NamedFn,
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
from amortcheck.coalgebra import STOP, Continue, guard_outcome, sum_images
from amortcheck.encoding import encode, state_key


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


def test_stop_is_one_enum_member_that_prints_as_stop():
    assert repr(STOP) == str(STOP) == f"{STOP}" == "Stop"
    assert encode(STOP) == 't(s"stop")'
    assert copy.deepcopy(STOP) is STOP
    assert pickle.loads(pickle.dumps(STOP)) is STOP


def test_guard_outcome_refuses_a_value_that_is_no_outcome():
    with pytest.raises(ArityMismatch, match=r"^step returned int, not Stop or Continue$"):
        guard_outcome(MethodSig("step"), 3)


def test_coalgebra_needs_a_seed_and_distinct_method_names():
    step = Method(MethodSig("step"), lambda s, a: charge(0, Continue(UNIT, s)))
    with pytest.raises(ValueError, match=r"^a coalgebra needs at least one seed state$"):
        Coalgebra(StateDomain("zero"), (), (step,))
    with pytest.raises(ValueError, match=r"^duplicate method names: \['step', 'step'\]$"):
        Coalgebra(StateDomain("zero"), (0,), (step, step))


def test_coalgebra_needs_a_method():
    # With no method a case has no square: it passed on 1 state and 0
    # squares, and so did its empty trace.
    with pytest.raises(ValueError, match=r"^a coalgebra needs at least one method$"):
        Coalgebra(StateDomain("zero"), (0,), ())


def test_method_sig_rejects_bad_arities():
    with pytest.raises(ArityMismatch, match=r"^m: in_arity must be positive$"):
        MethodSig("m", in_arity=0)
    with pytest.raises(ArityMismatch, match=r"^m: out_arity must be non-negative$"):
        MethodSig("m", out_arity=-1)


def test_method_sig_rejects_an_empty_argument_domain():
    # With no argument a method has no square, so `explore` would pass it
    # on 0 squares whatever its costs.
    with pytest.raises(ArityMismatch, match=r"^tick: arg_domain must not be empty$"):
        MethodSig("tick", arg_domain=())


def test_method_sig_rejects_an_argument_without_a_trace_literal():
    # Every reported square prints its argument, and a trace file names it.
    with pytest.raises(ArityMismatch, match=r"^m: argument 1.5 has no trace literal$"):
        MethodSig("m", arg_domain=(1.5,))
    with pytest.raises(ArityMismatch, match=r"^m: argument \(1,\) has no trace literal$"):
        MethodSig("m", arg_domain=(0, (1,)))


@pytest.mark.parametrize(
    "domain, message",
    [
        ((0, 0), r"^m: int 0 and int 0 share literal 0$"),
        ((True, NamedFn("true", abs)), r"^m: bool True and NamedFn true share literal true$"),
        (("a\nb",), r"^m: str literal '\"a\\nb\"' does not read back$"),
        ((NamedFn(" id", abs),), r"^m: NamedFn literal ' id' does not read back$"),
        ((NamedFn("", abs),), r"^m: NamedFn literal '' does not read back$"),
    ],
    ids=["duplicate", "shared", "two-lines", "leading-space", "empty"],
)
def test_method_sig_rejects_a_literal_a_trace_cannot_read_back(domain, message):
    # A trace file names each argument by its literal, one per line and
    # stripped, so each member needs its own literal that survives that.
    with pytest.raises(ArityMismatch, match=message):
        MethodSig("m", arg_domain=domain)


@pytest.mark.parametrize(
    "name, message",
    [
        ("#alloc", r"^method name '#alloc' cannot be named in a trace$"),
        ("al loc", r"^method name 'al loc' cannot be named in a trace$"),
        ("", r"^method name '' cannot be named in a trace$"),
    ],
    ids=["comment", "space", "empty"],
)
def test_method_sig_rejects_a_name_a_trace_cannot_hold(name, message):
    # A trace line is `name literal`: a `#` line is a comment, the name
    # ends at the first whitespace, and an empty name leaves the literal
    # in its place, so none of these methods could be named.
    with pytest.raises(ArityMismatch, match=message):
        MethodSig(name)


def test_method_sig_literal_table_is_derived():
    sig = MethodSig("m", arg_domain=(UNIT, 1, "x", NamedFn("f", abs)))
    assert sig.literals == {"()": UNIT, "1": 1, '"x"': "x", "f": sig.arg_domain[3]}
    assert MethodSig("m").literals == {"()": UNIT}
    assert sig == MethodSig("m", arg_domain=sig.arg_domain) and "literals" not in repr(sig)
    renamed = replace(sig, name="left.m")
    assert renamed.literals == sig.literals and renamed.literals is not sig.literals
    with pytest.raises(ValueError):
        replace(sig, literals={})
    assert copy.deepcopy(sig).literals == sig.literals


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
                value = out.value.branches[0][1] if type(out.value) is Dist else out.value
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
