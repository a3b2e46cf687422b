"""Per-structure checks: the documented squares, slacks and invariants.

Derived expected values come from evaluating the amortization equation by
hand on the concrete potentials (inline arithmetic in comments) or from a
brute-force oracle written alongside the test.
"""

import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

from amortcheck import (
    STOP,
    Charged,
    Continue,
    CostMonoid,
    Mode,
    PotentialMorphism,
    Trace,
    UNIT,
    Verdict,
    VerificationCase,
    check_square,
    check_trace,
    expect,
    explore,
    get_case,
    random_trace,
    registered_names,
)
from amortcheck.structures import (
    ALPHABET,
    UPDATE_FNS,
    allocator_case,
    array_potential,
    batched_queue_case,
    buffer_case,
    chop,
    deque_case,
    dynamic_array_case,
    randomized_allocator_case,
    stack_case,
    varying_cost_case,
)

# --- allocator -------------------------------------------------------------


def test_allocator_passes_over_all_eight_states(explored):
    report = explored("allocator")
    assert report.passed and report.states_explored == 8


def test_allocator_trace_totals_balance():
    case = allocator_case()
    trace = Trace((("alloc", UNIT),) * 8, seed_index=7)
    # independent totals: walk the implementation directly
    state, total = 7, 0
    for _ in range(8):
        res = case.impl.method("alloc").run((state,), UNIT)
        total += res.cost
        state = res.value.states[0]
    assert total == 8  # one burst of 8 in eight steps from a full pool
    assert check_trace(case, trace).passed


def test_allocator_potential_is_shift_invariant():
    case = allocator_case()
    for shift in (1, 3, 10):
        phi = PotentialMorphism(lambda d, shift=shift: Charged(7 - d + shift, UNIT))
        assert explore(dataclasses.replace(case, phi=phi)).passed


# --- varying costs ----------------------------------------------------------


def test_varying_phi_matches_prefix_sum_difference_oracle():
    case = varying_cost_case()
    impl_cost = lambda i: (8, 1, 2, 3)[i % 4]
    spec_cost = lambda i: (4, 4, 3, 3)[i % 4]
    phi = case.phi.phi(0).cost
    for i in range(32):
        assert case.phi.phi(i).cost == phi
        assert phi >= 0
        phi = phi + spec_cost(i) - impl_cost(i)


def test_varying_passes_from_seed_zero(explored):
    assert explored("varying").passed
    assert explore(varying_cost_case(), max_depth=16).passed


def test_varying_identity_phi_on_equal_coalgebras():
    base = varying_cost_case()
    case = dataclasses.replace(
        base,
        impl=base.spec,
        phi=PotentialMorphism(lambda i: Charged(0, i)),
    )
    assert explore(case).passed


def test_varying_planted_defect_fails_at_that_index():
    report = explore(varying_cost_case(defect_at=5))
    assert not report.passed
    assert any(c.inputs == (5,) for c in report.counterexamples)
    assert all(c.inputs == (5,) for c in report.counterexamples)


# --- dynamic array ----------------------------------------------------------


def test_dynarray_resize_square_concrete():
    # n=1, |a|=2 forces a copy: lhs 2+3 = 5 = (3+2)+0 = rhs
    check = check_square(dynamic_array_case(False), "push", ((1, ("a", "b")),), "a")
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 5 and check.rhs.cost == 5


def test_dynarray_cheap_push_raises_potential_by_two():
    case = dynamic_array_case(False)
    state = (0, ())
    for step in range(40):
        n, items = state
        e = "ab"[step % 2]
        before = array_potential(state)
        res = case.impl.method("push").run((state,), e)
        after = array_potential(res.value.states[0])
        if res.cost == 1:
            assert after - before == 2
        else:
            assert res.cost == 3 + len(items)
        state = res.value.states[0]


def test_dynarray_update_squares_charge_length_both_sides(explored):
    case = dynamic_array_case(True)
    for state in [(0, ()), (1, ("a",)), (2, ("a", "b", "a"))]:
        for fn in UPDATE_FNS:
            check = check_square(case, "update", (state,), fn)
            assert check.verdict is Verdict.PASS
            # both paths cost potential + |a|
            assert check.lhs.cost == array_potential(state) + len(state[1])
    assert explored("dynarray-update").passed


# --- the list specification ------------------------------------------------
# The hand-written specs the list-backed cases had before they shared
# `list_spec`, kept as the reference it must reproduce.


def _stack_push(states, e):
    (l,) = states
    return Charged(3, Continue(UNIT, ((e,) + l,)))


def _stack_pop(states, arg):
    (l,) = states
    if not l:
        return Charged(0, STOP)
    return Charged(2, Continue(l[0], (l[1:],)))


def _queue_enqueue(states, e):
    (l,) = states
    return Charged(2, Continue(UNIT, (l + (e,),)))


def _queue_dequeue(states, arg):
    (l,) = states
    if not l:
        return Charged(0, STOP)
    return Charged(0, Continue(l[0], (l[1:],)))


def _deque_push_front(states, e):
    (l,) = states
    return Charged(2, Continue(UNIT, ((e,) + l,)))


def _deque_push_back(states, e):
    (l,) = states
    return Charged(2, Continue(UNIT, (l + (e,),)))


def _deque_pop_front(states, arg):
    (l,) = states
    if not l:
        return Charged(0, STOP)
    return Charged(2, Continue(l[0], (l[1:],)))


def _deque_pop_back(states, arg):
    (l,) = states
    if not l:
        return Charged(0, STOP)
    return Charged(2, Continue(l[-1], (l[:-1],)))


def _translated_enqueue(states, e):
    (l,) = states
    return Charged(8, Continue(UNIT, (l + (e,),)))


def _translated_dequeue(states, arg):
    (l,) = states
    if not l:
        return Charged(0, STOP)
    return Charged(2, Continue(l[0], (l[1:],)))


LIST_SPEC_REFERENCE = {
    "stack": {"push": _stack_push, "pop": _stack_pop},
    "queue-lax": {"enqueue": _queue_enqueue, "dequeue": _queue_dequeue},
    "queue-exact": {"enqueue": _queue_enqueue, "dequeue": _queue_dequeue},
    "deque": {
        "push_front": _deque_push_front,
        "push_back": _deque_push_back,
        "pop_front": _deque_pop_front,
        "pop_back": _deque_pop_back,
    },
    "queue-via-stacks": {"enqueue": _translated_enqueue, "dequeue": _translated_dequeue},
}


@pytest.mark.parametrize("name", sorted(LIST_SPEC_REFERENCE))
def test_list_spec_matches_the_hand_written_specs(name):
    spec = get_case(name).spec
    reference = LIST_SPEC_REFERENCE[name]
    assert spec.state_domain.name == "list" and spec.seeds == ((),)
    assert sorted(m.sig.name for m in spec.methods) == sorted(reference)
    lists = [l for n in range(5) for l in itertools.product(ALPHABET, repeat=n)]
    for method in spec.methods:
        want = reference[method.sig.name]
        for l in lists:
            for arg in method.sig.arg_domain:
                got = method.run((l,), arg)
                # Equal cost, and the same Stop, or observable and successor.
                assert got == want((l,), arg), (method.sig.name, l, arg)


# --- stack ------------------------------------------------------------------


def test_stack_push_squares_are_exact():
    case = stack_case()
    for state, arg in [((0, ()), "a"), ((1, ("a",)), "b"), ((1, ("a", "b")), "a")]:
        check = check_square(case, "push", (state,), arg)
        assert check.verdict is Verdict.PASS
        assert check.lhs.cost == check.rhs.cost


def test_stack_pop_slack_above_threshold():
    # phi = 2 at (1, two items): lhs 2+2 = 4, rhs 1+0 = 1... slack 3
    check = check_square(stack_case(), "pop", ((1, ("a", "b")),))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost - check.rhs.cost == 3


def test_stack_pop_slack_at_zero_potential():
    # popped-down array: phi = 0, lhs 2, rhs 1
    check = check_square(stack_case(), "pop", ((2, ("a",)),))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 2 and check.rhs.cost == 1


def test_stack_passes_colax(explored):
    report = explored("stack")
    assert report.passed and report.mode is Mode.COLAX


# --- batched queue ----------------------------------------------------------


def test_queue_enqueue_exact_in_both_configurations():
    for per in (1, 2):
        case = batched_queue_case(per)
        for state in [((), ()), (("a",), ()), (("b", "a"), ("a",))]:
            check = check_square(case, "enqueue", (state,), "b")
            assert check.lhs.cost == check.rhs.cost
            assert check.verdict is Verdict.PASS


def test_queue_dichotomy_at_documented_bounds(explored):
    assert explored("queue-exact").passed
    assert explored("queue-lax").passed
    forced = explore(get_case("queue-lax").with_mode(Mode.EXACT))
    assert not forced.passed


def test_queue_simulation_observables_match():
    case = batched_queue_case(1)
    rng = random.Random(4242)
    for _ in range(30):
        trace = random_trace(case, 24, rng)
        impl_state = case.impl.seeds[trace.seed_index]
        spec_state = case.phi.phi(impl_state).value
        impl_obs, spec_obs = [], []
        for method, arg in trace.steps:
            ires = case.impl.method(method).run((impl_state,), arg)
            sres = case.spec.method(method).run((spec_state,), arg)
            istop = not hasattr(ires.value, "states")
            sstop = not hasattr(sres.value, "states")
            assert istop == sstop
            if istop:
                break
            if method == "dequeue":
                impl_obs.append(ires.value.obs)
                spec_obs.append(sres.value.obs)
            impl_state = ires.value.states[0]
            spec_state = sres.value.states[0]
        assert impl_obs == spec_obs
        assert check_trace(case, trace).passed


# --- deque ------------------------------------------------------------------


def test_deque_push_front_square_on_balanced_state():
    check = check_square(deque_case(), "push_front", ((("a",), ("b",)),), "a")
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 2 and check.rhs.cost == 2


def test_deque_pop_on_empty_stops_both_sides():
    check = check_square(deque_case(), "pop_front", (((), ()),))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 0 and check.rhs.cost == 0


def test_deque_rebalance_parity():
    case = deque_case()
    # odd split: three elements rebalanced, strict inequality
    odd = check_square(case, "pop_front", (((), ("a", "b", "a")),))
    assert odd.verdict is Verdict.PASS
    assert odd.lhs.cost - odd.rhs.cost == 1
    # even split: square commutes exactly
    even = check_square(case, "pop_front", (((), ("a", "b")),))
    assert even.verdict is Verdict.PASS
    assert even.lhs.cost == even.rhs.cost


def test_deque_exhaustive_exploration(explored):
    report = explored("deque")
    assert report.passed
    # the full documented space: every pair of sides up to length 6
    assert report.states_explored == (2**7 - 1) ** 2


# --- buffer -----------------------------------------------------------------


def test_buffer_square_flushes_on_full_chunk():
    # n=4: a three-symbol residue plus one symbol emits the full chunk
    case = buffer_case(4)
    check = check_square(case, "write", ("aba",), "b")
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == "abab" and check.rhs.cost == "abab"
    res = case.impl.method("write").run(("aba",), "b")
    assert res.cost == "abab" and res.value.states == ("",)


def test_buffer_empty_write_is_identity():
    case = buffer_case(4)
    for residue in ["", "a", "ab", "aba"]:
        check = check_square(case, "write", (residue,), "")
        assert check.verdict is Verdict.PASS
        assert check.lhs.cost == residue


def test_chop_identity_brute_force():
    for n in (1, 2, 3, 4):
        for length in range(8):
            for i in range(2**length):
                s = "".join("ab"[(i >> k) & 1] for k in range(length))
                emitted, rest = chop(n, s)
                assert emitted + rest == s
                assert len(rest) < n
                assert len(emitted) % n == 0


def test_buffer_passes_for_small_sizes(explored):
    assert explored("buffer").passed
    for n in (2, 3):
        assert explore(buffer_case(n)).passed


class Flipped(str):
    """A string cost whose `+` concatenates in reverse, beside a plain str too."""

    def __add__(self, other):
        return Flipped(str.__add__(other, self))

    def __radd__(self, other):
        return Flipped(str.__add__(self, other))


def test_buffer_square_breaks_if_combine_order_is_swapped():
    flipped = CostMonoid("trace-flipped", Flipped(""), False, False)
    case = dataclasses.replace(buffer_case(2), monoid=flipped)
    check = check_square(case, "write", ("a",), "b")
    assert check.verdict is Verdict.COST_MISMATCH
    assert check.lhs.cost == "ba" and check.rhs.cost == "ab"


# --- randomized allocator ---------------------------------------------------


def test_randomized_allocator_passes(explored):
    report = explored("rand-alloc")
    assert report.passed and report.states_explored == 4


def test_randomized_allocator_degenerate_p_zero():
    assert explore(randomized_allocator_case(3, Fraction(0))).passed


def test_randomized_allocator_k_one_collapses_to_spec():
    case = randomized_allocator_case(1, Fraction(1, 2))
    assert case.phi.phi(0).cost == 0
    assert explore(case).passed


# --- piggy bank -------------------------------------------------------------


def test_piggy_merge_square_sums_potentials():
    check = check_square(get_case("piggy"), "merge", (2, 5))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 7 and check.rhs.cost == 7


def test_piggy_split_square():
    check = check_square(get_case("piggy"), "split", (7,))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 7 and check.rhs.cost == 7  # 4 + 3 on the right


def test_piggy_merge_of_empty_banks():
    check = check_square(get_case("piggy"), "merge", (0, 0))
    assert check.verdict is Verdict.PASS
    assert check.lhs.cost == 0 and check.rhs.cost == 0


def test_piggy_passes_documented_bounds(explored):
    assert explored("piggy").passed


# --- one-point specifications -----------------------------------------------


@pytest.mark.parametrize(
    "name, method, cost, out_arity",
    [
        ("allocator", "alloc", 1, 1),
        ("allocator-broken", "alloc", 1, 1),
        ("alloc16-via-8", "alloc", 1, 1),
        ("dynarray", "push", 3, 1),
        ("piggy", "deposit", 1, 1),
        ("piggy", "spend", 0, 1),
        ("piggy", "merge", 0, 1),
        ("piggy", "split", 0, 2),
    ],
)
def test_constant_cost_spec_returns_one_outcome(name, method, cost, out_arity):
    # The outcome is built with the case; every call, from any input
    # state and with any argument, returns that same object.
    spec = get_case(name).spec.method(method)
    sig = spec.sig
    outcomes = [
        spec.run(inputs, arg)
        for inputs in ((UNIT,) * sig.in_arity, ("elsewhere",) * sig.in_arity)
        for arg in sig.arg_domain
        for _ in range(2)
    ]
    assert all(out is outcomes[0] for out in outcomes)
    assert outcomes[0] == Charged(cost, Continue(UNIT, (UNIT,) * out_arity))
    assert type(outcomes[0].cost) is int


@pytest.mark.parametrize(
    "k, p", [(4, Fraction(1, 2)), (3, Fraction(0)), (1, Fraction(1, 3)), (2, Fraction(2, 3))]
)
def test_randomized_allocator_spec_is_one_bernoulli_law(k, p):
    # One Bernoulli(p) coin per call, zero weights dropped; the law is
    # built with the case and every call returns it.
    flip = [(p, 1), (1 - p, 0)]
    coin = [(w, Charged(Fraction(c), Continue(UNIT, (UNIT,)))) for w, c in flip if w > 0]
    spec = randomized_allocator_case(k, p).spec.method("alloc")
    assert spec.run((UNIT,), UNIT) == expect(coin)
    assert spec.run((UNIT,), UNIT) is spec.run(("elsewhere",), UNIT)


def test_buffer_spec_charges_each_written_string():
    spec = buffer_case().spec.method("write")
    for s in spec.sig.arg_domain:
        assert spec.run((UNIT,), s) == Charged(s, Continue(UNIT, (UNIT,)))


# --- declared bounds --------------------------------------------------------

_BOUND_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(VerificationCase)
    if f.name in ("max_depth", "max_states")
}


class _MoreSquares(BaseException):
    """Stops a run once it has checked more squares than a given count.

    A `BaseException`, so that no handler for user-code errors absorbs it.
    """


def _coverage_or_more(case, squares):
    """`explore(case)`'s (states, squares), or None once it passes `squares`."""
    calls = 0

    def counted(run):
        def step(states, arg):
            nonlocal calls
            calls += 1  # one impl call per square
            if calls > squares:
                raise _MoreSquares
            return run(states, arg)

        return step

    methods = tuple(dataclasses.replace(m, run=counted(m.run)) for m in case.impl.methods)
    try:
        report = explore(
            dataclasses.replace(case, impl=dataclasses.replace(case.impl, methods=methods))
        )
    except _MoreSquares:
        return None
    return report.states_explored, report.squares_checked


@pytest.mark.parametrize("name", registered_names())
def test_every_declared_bound_binds(name, explored):
    # A case states its own max_depth/max_states only where the default
    # would not bind: putting one back to its default must change what
    # `explore` covers. A relaxed run is cut as soon as it checks more
    # squares than the declared run, which already proves the change.
    case, declared = get_case(name), explored(name)
    want = (declared.states_explored, declared.squares_checked)
    for field, default in _BOUND_DEFAULTS.items():
        if getattr(case, field) != default:
            relaxed = dataclasses.replace(case, **{field: default})
            assert _coverage_or_more(relaxed, declared.squares_checked) != want, field


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: batched_queue_case(3), "reverse_cost_per_element must be 1 or 2"),
        (lambda: buffer_case(0), "buffer size must be >= 1"),
        (lambda: randomized_allocator_case(k=0), "k must be >= 1"),
        (lambda: randomized_allocator_case(p=Fraction(1)), "p must be an exact rational in [0, 1)"),
        (lambda: randomized_allocator_case(p=0.1), "p must be an exact rational in [0, 1)"),
        (lambda: randomized_allocator_case(p=True), "p must be an exact rational in [0, 1)"),
    ],
    ids=[
        "queue-reverse-3", "buffer-0", "rand-alloc-k-0", "rand-alloc-p-1",
        "rand-alloc-p-float", "rand-alloc-p-bool",
    ],
)
def test_case_builders_refuse_parameters_out_of_range(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
