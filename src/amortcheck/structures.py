"""The worked examples, packaged as ready-to-verify cases.

Each constructor returns a `VerificationCase` bundling an implementation
coalgebra, a specification coalgebra over the same signature table, the
potential morphism relating them, and any exploration bound that binds.
Each transition builds its outcome directly, as
``charge(cost, Continue(obs, (successor,)))``, or ``charge(0, STOP)``.
Element alphabets are fixed two-symbol sets so exhaustive exploration stays
small while still distinguishing order-sensitive mistakes.

Every list-backed carrier holds its sequences as `str` words over
`ALPHABET`, one character per element: a push or a pop copies the word's
bytes, not a tuple's references. `ALPHABET` is ``tuple("ab")``, not the
literals ``("a", "b")``, because CPython gives back one shared object for
each one-character string indexed out of a word: a popped element is then
the member itself, which keeps `MethodSig.admits` on its member lookup
and the observable test of a square on its ``is``.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Tuple

from .charged import Charged, charge, expect
from .coalgebra import (
    STOP,
    UNIT,
    Coalgebra,
    Continue,
    Method,
    MethodSig,
    Mode,
    NamedFn,
    PotentialMorphism,
    StateDomain,
    VerificationCase,
)
from .cost import NAT_COST, RATIONAL_COST, TRACE_COST

ALPHABET: Tuple[str, ...] = tuple("ab")

UPDATE_FNS: Tuple[NamedFn, ...] = (
    NamedFn("id", lambda e: e),
    NamedFn("const_a", lambda e: ALPHABET[0]),
    NamedFn("swap", lambda e: ALPHABET[1] if e == ALPHABET[0] else ALPHABET[0]),
)


def _one_point(*methods: Method) -> Coalgebra:
    """Specification coalgebra over the trivial one-point carrier."""
    return Coalgebra(StateDomain("unit"), (UNIT,), methods)


def _returning(outcome):
    """The transition that returns `outcome`, whatever its inputs."""
    return lambda states, arg: outcome


def _unit_spec(*costs) -> Coalgebra:
    """One-point specification from (MethodSig, cost) pairs, each outcome built once."""
    methods = []
    for sig, cost in costs:
        outcome = Charged(cost, Continue(UNIT, (UNIT,) * sig.out_arity))
        methods.append(Method(sig, _returning(outcome)))
    return _one_point(*methods)


# ---------------------------------------------------------------------------
# Allocator: charge 8 every eighth call vs. charge 1 per call.


def cyclic_allocator(period: int) -> Coalgebra:
    """Counter over Fin(period): a burst of `period` cost on hitting zero."""

    def step(states, arg):
        (d,) = states
        if d == 0:
            return charge(period, Continue(UNIT, (period - 1,)))
        return charge(0, Continue(UNIT, (d - 1,)))

    return Coalgebra(
        StateDomain(f"fin{period}"),
        tuple(range(period)),
        (Method(MethodSig("alloc"), step),),
        state_invariant=lambda d: 0 <= d < period,
    )


def allocator_case() -> VerificationCase:
    """Eight cells allocated every eight calls, presented as one per call."""
    spec = _unit_spec((MethodSig("alloc"), 1))
    phi = PotentialMorphism(lambda d: Charged(7 - d, UNIT))
    return VerificationCase(
        name="allocator",
        monoid=NAT_COST,
        impl=cyclic_allocator(8),
        spec=spec,
        phi=phi,
    )


def broken_allocator_case() -> VerificationCase:
    """Negative control: the potential d instead of 7-d cannot commute."""
    phi = PotentialMorphism(lambda d: Charged(d, UNIT))
    return replace(allocator_case(), name="allocator-broken", phi=phi)


def typed_observable_case() -> VerificationCase:
    """Negative control: a counter mod 2 that observes ``True``, its spec ``1``.

    ``True == 1`` in Python, but observables compare by typed identity, so
    every square is a behaviour mismatch.
    """
    sig = MethodSig("tick")
    tick = Method(sig, lambda states, arg: charge(1, Continue(True, (1 - states[0],))))
    impl = Coalgebra(StateDomain("fin2"), (0,), (tick,))
    spec = _one_point(Method(sig, _returning(charge(1, Continue(1, (UNIT,))))))
    phi = PotentialMorphism(lambda n: Charged(0, UNIT))
    return VerificationCase("typed-observable", NAT_COST, impl, spec, phi)


_P, _Q = namedtuple("_P", "n"), namedtuple("_Q", "n")


def typed_state_case() -> VerificationCase:
    """Negative control: ``tick`` moves ``_P(0)`` to ``_Q(0)`` at cost 1, then
    stays at ``_Q(0)`` at cost 5, against a spec charging 1.

    ``_P(0) == _Q(0)`` in Python, but states are told apart by typed identity,
    so ``_Q(0)`` gets its own square, which fails.
    """

    def tick(states, arg):
        return charge(5 if type(states[0]) is _Q else 1, Continue(UNIT, (_Q(0),)))

    sig = MethodSig("tick")
    impl = Coalgebra(StateDomain("pq"), (_P(0),), (Method(sig, tick),))
    spec = _unit_spec((sig, 1))
    phi = PotentialMorphism(lambda s: Charged(0, UNIT))
    return VerificationCase("typed-state", NAT_COST, impl, spec, phi)


# ---------------------------------------------------------------------------
# Time-varying costs on a cyclic index carrier.

_VARY_N = 64
_VARY_IMPL = (8, 1, 2, 3)  # burst of 8 on multiples of 4, else i mod 4
_VARY_SPEC = (4, 4, 3, 3)  # smoothed schedule with the same cycle total (14)
_VARY_PHI = (4, 0, 3, 4)  # prefix-sum difference of the two schedules


def varying_cost_case(defect_at: Optional[int] = None) -> VerificationCase:
    """Index-dependent costs: impl bursts every fourth step, spec smooths.

    The potential is the running difference of the two cost prefix sums,
    started high enough to stay non-negative. `defect_at` lowers the spec
    cost by 1 at a single index, planting a square failure there.
    """

    def impl_step(states, arg):
        (i,) = states
        return charge(_VARY_IMPL[i % 4], Continue(UNIT, ((i + 1) % _VARY_N,)))

    def spec_step(states, arg):
        (i,) = states
        c = _VARY_SPEC[i % 4]
        if defect_at is not None and i == defect_at:
            c = max(0, c - 1)
        return charge(c, Continue(UNIT, ((i + 1) % _VARY_N,)))

    carrier = StateDomain(f"fin{_VARY_N}")
    impl = Coalgebra(carrier, (0,), (Method(MethodSig("tick"), impl_step),))
    spec = Coalgebra(carrier, (0,), (Method(MethodSig("tick"), spec_step),))
    phi = PotentialMorphism(lambda i: Charged(_VARY_PHI[i % 4], i))
    return VerificationCase(
        name="varying",
        monoid=NAT_COST,
        impl=impl,
        spec=spec,
        phi=phi,
        max_depth=_VARY_N,
    )


# ---------------------------------------------------------------------------
# Dynamically resizing array.


def _array_push(states, e):
    ((n, items),) = states
    if len(items) + 1 == 2 ** (n + 1) - 1:
        return charge(3 + len(items), Continue(UNIT, ((n + 1, items + e),)))
    return charge(1, Continue(UNIT, ((n, items + e),)))


def array_potential(state) -> int:
    n, items = state
    return 2 * (len(items) + 1) - 2 ** (n + 1)


def dynamic_array_case(with_update: bool = False) -> VerificationCase:
    """Doubling array under pushes; optionally with a map-over-all method.

    Pushes cost 1, or 3+|a| when the array must grow; the specification
    charges a flat 3. The update method costs the array length on both
    sides, so it needs a specification carrier exposing that length.
    """
    push_sig = MethodSig("push", arg_domain=ALPHABET)
    impl_methods = [Method(push_sig, _array_push)]
    if with_update:
        update_sig = MethodSig("update", arg_domain=UPDATE_FNS)

        def impl_update(states, f):
            ((n, items),) = states
            return charge(len(items), Continue(UNIT, ((n, "".join(map(f, items))),)))

        impl_methods.append(Method(update_sig, impl_update))

    impl = Coalgebra(
        StateDomain("bounded-array"),
        ((0, ""),),
        tuple(impl_methods),
        state_invariant=lambda s: 2 ** s[0] - 1 <= len(s[1]) < 2 ** (s[0] + 1) - 1,
    )

    if with_update:
        spec = Coalgebra(
            StateDomain("nat"),
            (0,),
            (
                Method(push_sig, lambda s, e: charge(3, Continue(UNIT, (s[0] + 1,)))),
                Method(update_sig, lambda s, f: charge(s[0], Continue(UNIT, (s[0],)))),
            ),
        )
        phi = PotentialMorphism(
            lambda st: Charged(array_potential(st), len(st[1]))
        )
    else:
        spec = _unit_spec((push_sig, 3))
        phi = PotentialMorphism(lambda st: Charged(array_potential(st), UNIT))

    return VerificationCase(
        name="dynarray-update" if with_update else "dynarray",
        monoid=NAT_COST,
        impl=impl,
        spec=spec,
        phi=phi,
        max_depth=8,
    )


# ---------------------------------------------------------------------------
# The list specification: every list-backed structure is checked against
# plain lists with a constant cost per operation. A list is a word over
# `ALPHABET`, its front first; the empty list is "". Each factory makes one
# transition at a fixed `cost`: push the argument at an end, or pop an end
# and observe its element; a pop Stops, free, on the empty list.


def push_front(cost):
    return lambda states, e: charge(cost, Continue(UNIT, (e + states[0],)))


def push_back(cost):
    return lambda states, e: charge(cost, Continue(UNIT, (states[0] + e,)))


def pop_front(cost):
    def run(states, arg):
        (l,) = states
        return charge(cost, Continue(l[0], (l[1:],))) if l else charge(0, STOP)

    return run


def pop_back(cost):
    def run(states, arg):
        (l,) = states
        return charge(cost, Continue(l[-1], (l[:-1],))) if l else charge(0, STOP)

    return run


def list_spec(*methods: Method) -> Coalgebra:
    """The list coalgebra, seeded with the empty list, with these methods."""
    return Coalgebra(StateDomain("list"), ("",), methods)


# ---------------------------------------------------------------------------
# Stack on a bounded array (colax: pops never shrink the array).


def stack_case() -> VerificationCase:
    """Array-backed stack checked laxly against a list specification.

    Pops cost 1 and leave the array capacity alone, so the array can dip
    below the doubling regime's lower bound; the potential truncates at
    zero there and the square only holds as an inequality.
    """
    push_sig = MethodSig("push", arg_domain=ALPHABET)
    pop_sig = MethodSig("pop", may_stop=True)

    def impl_pop(states, arg):
        ((n, items),) = states
        if not items:
            return charge(0, STOP)
        return charge(1, Continue(items[-1], ((n, items[:-1]),)))

    impl = Coalgebra(
        StateDomain("bounded-array"),
        ((0, ""),),
        (Method(push_sig, _array_push), Method(pop_sig, impl_pop)),
        state_invariant=lambda s: len(s[1]) < 2 ** (s[0] + 1) - 1,
    )

    spec = list_spec(Method(push_sig, push_front(3)), Method(pop_sig, pop_front(2)))

    phi = PotentialMorphism(
        lambda st: Charged(max(0, array_potential(st)), st[1][::-1]),
        Mode.COLAX,
    )
    return VerificationCase(
        name="stack",
        monoid=NAT_COST,
        impl=impl,
        spec=spec,
        phi=phi,
        max_depth=8,
    )


# ---------------------------------------------------------------------------
# Batched queue: inbox/outbox pair of lists.


def batched_queue_case(reverse_cost_per_element: int) -> VerificationCase:
    """Inbox/outbox queue; the flush reverses the inbox into the outbox.

    Charging 1 per reversed element makes the flush recoup only half the
    stored potential, so the analysis holds laxly; charging 2 restores
    exact equality. Both configurations ship to surface that tension.
    """
    if reverse_cost_per_element not in (1, 2):
        raise ValueError("reverse_cost_per_element must be 1 or 2")
    per = reverse_cost_per_element
    enq_sig = MethodSig("enqueue", arg_domain=ALPHABET)
    deq_sig = MethodSig("dequeue", may_stop=True)

    def impl_enqueue(states, e):
        ((inbox, outbox),) = states
        return charge(0, Continue(UNIT, ((e + inbox, outbox),)))

    def impl_dequeue(states, arg):
        ((inbox, outbox),) = states
        if outbox:
            return charge(0, Continue(outbox[0], ((inbox, outbox[1:]),)))
        flushed = inbox[::-1]
        if not flushed:
            return charge(0, STOP)
        return charge(per * len(inbox), Continue(flushed[0], (("", flushed[1:]),)))

    impl = Coalgebra(
        StateDomain("list-pair"),
        (("", ""),),
        (Method(enq_sig, impl_enqueue), Method(deq_sig, impl_dequeue)),
    )

    spec = list_spec(Method(enq_sig, push_back(2)), Method(deq_sig, pop_front(0)))

    phi = PotentialMorphism(
        lambda st: Charged(2 * len(st[0]), st[1] + st[0][::-1]),
        Mode.COLAX if per == 1 else Mode.EXACT,
    )
    return VerificationCase(
        name="queue-lax" if per == 1 else "queue-exact",
        monoid=NAT_COST,
        impl=impl,
        spec=spec,
        phi=phi,
        max_depth=7,
    )


# ---------------------------------------------------------------------------
# Double-ended queue with halving rebalance.


def deque_case() -> VerificationCase:
    """Deque as a front/back list pair, rebalanced by splitting in half.

    Popping an empty side moves the far half of the other side across
    (reversed), touching every element of the split side at cost 1 each,
    plus 1 for the pop itself. Against a flat cost of 2 per operation the
    square commutes exactly for even splits and with slack 1 for odd ones;
    the potential is the length imbalance.
    """
    pf_sig = MethodSig("push_front", arg_domain=ALPHABET)
    pb_sig = MethodSig("push_back", arg_domain=ALPHABET)
    of_sig = MethodSig("pop_front", may_stop=True)
    ob_sig = MethodSig("pop_back", may_stop=True)

    # Convention: deque order is front + reversed(back); the head of the
    # back list is the deque's last element.
    def impl_push_front(states, e):
        ((f, b),) = states
        return charge(1, Continue(UNIT, ((e + f, b),)))

    def impl_push_back(states, e):
        ((f, b),) = states
        return charge(1, Continue(UNIT, ((f, e + b),)))

    def impl_pop_front(states, arg):
        ((f, b),) = states
        if f:
            return charge(1, Continue(f[0], ((f[1:], b),)))
        if b:
            k = len(b)
            m = k // 2
            new_f = b[m:][::-1]
            return charge(k + 1, Continue(new_f[0], ((new_f[1:], b[:m]),)))
        return charge(0, STOP)

    def impl_pop_back(states, arg):
        ((f, b),) = states
        if b:
            return charge(1, Continue(b[0], ((f, b[1:]),)))
        if f:
            k = len(f)
            m = k // 2
            new_b = f[m:][::-1]
            return charge(k + 1, Continue(new_b[0], ((f[:m], new_b[1:]),)))
        return charge(0, STOP)

    impl = Coalgebra(
        StateDomain("list-pair"),
        (("", ""),),
        (
            Method(pf_sig, impl_push_front),
            Method(pb_sig, impl_push_back),
            Method(of_sig, impl_pop_front),
            Method(ob_sig, impl_pop_back),
        ),
    )

    spec = list_spec(
        Method(pf_sig, push_front(2)),
        Method(pb_sig, push_back(2)),
        Method(of_sig, pop_front(2)),
        Method(ob_sig, pop_back(2)),
    )

    phi = PotentialMorphism(
        lambda st: Charged(abs(len(st[0]) - len(st[1])), st[0] + st[1][::-1]),
        Mode.COLAX,
    )
    return VerificationCase(
        name="deque",
        monoid=NAT_COST,
        impl=impl,
        spec=spec,
        phi=phi,
        max_states=17000,
        explore_filter=lambda st: len(st[0]) <= 6 and len(st[1]) <= 6,
    )


# ---------------------------------------------------------------------------
# String buffering: the non-commutative cost model.


def chop(n: int, text: str) -> Tuple[str, str]:
    """Split into a prefix of length a multiple of n and a short remainder."""
    r = len(text) % n
    cut = len(text) - r
    return text[:cut], text[cut:]


def buffer_case(n: int = 4) -> VerificationCase:
    """Output buffering as amortization over the string monoid.

    Costs are the emitted strings themselves; the potential flushes the
    residue. Exactness depends on combining costs in program order, which
    is why this case demands a non-commutative-safe checker.
    """
    if n < 1:
        raise ValueError("buffer size must be >= 1")
    args = ("",) + tuple(
        "".join(chars)
        for length in (1, 2, 3)
        for chars in itertools.product(ALPHABET, repeat=length)
    )
    write_sig = MethodSig("write", arg_domain=args)

    def impl_write(states, s):
        (residue,) = states
        emitted, rest = chop(n, residue + s)
        return charge(emitted, Continue(UNIT, (rest,)))

    impl = Coalgebra(
        StateDomain("short-string"),
        ("",),
        (Method(write_sig, impl_write),),
        state_invariant=lambda s: len(s) < n,
    )
    spec = _one_point(Method(write_sig, lambda st, s: charge(s, Continue(UNIT, (UNIT,)))))
    phi = PotentialMorphism(lambda residue: Charged(residue, UNIT))
    return VerificationCase(
        name="buffer",
        monoid=TRACE_COST,
        impl=impl,
        spec=spec,
        phi=phi,
    )


# ---------------------------------------------------------------------------
# Randomized allocator checked on expected costs.


def binomial_branches(k: int, p: Fraction):
    """(probability, cost) pairs of a Binomial(k, p) cost, zero weights dropped.

    `p` is taken as given: an exact rational keeps the weights exact.
    """
    q = 1 - p
    out = []
    for j in range(k + 1):
        w = math.comb(k, j) * p**j * q ** (k - j)
        if w > 0:
            out.append((w, j))
    return out


def randomized_allocator_case(k: int = 4, p: Fraction = Fraction(1, 2)) -> VerificationCase:
    """Flip k coins every k-th call vs. one coin per call, in expectation.

    All distributions are exact; the checker compares expected costs and
    canonical outcome distributions, never samples.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # Exact types only: a float 0.1 would become its binary fraction.
    if (type(p) is not int and type(p) is not Fraction) or not 0 <= p < 1:
        raise ValueError("p must be an exact rational in [0, 1)")
    p = Fraction(p)

    def impl_alloc(states, arg) -> Charged:
        (d,) = states
        if d == 0:
            return expect(
                [
                    (w, charge(Fraction(c), Continue(UNIT, (k - 1,))))
                    for w, c in binomial_branches(k, p)
                ]
            )
        return expect([(1, charge(Fraction(0), Continue(UNIT, (d - 1,))))])

    law = expect(
        [(w, charge(Fraction(c), Continue(UNIT, (UNIT,)))) for w, c in binomial_branches(1, p)]
    )

    impl = Coalgebra(
        StateDomain(f"fin{k}"),
        tuple(range(k)),
        (Method(MethodSig("alloc"), impl_alloc),),
        state_invariant=lambda d: 0 <= d < k,
    )
    spec = _one_point(Method(MethodSig("alloc"), _returning(law)))
    phi = PotentialMorphism(lambda d: Charged(Fraction(k - d - 1) * p, UNIT))
    return VerificationCase(
        name="rand-alloc",
        monoid=RATIONAL_COST,
        impl=impl,
        spec=spec,
        phi=phi,
    )


# ---------------------------------------------------------------------------
# Piggy bank: multi-input and multi-output potential summation.


def piggy_bank_case() -> VerificationCase:
    """Token bank exercising potential sums on 2-in and 2-out methods.

    Deposits store a token of potential; spending cashes one out (a spend
    on an empty bank is a free no-op so the trivial specification carrier
    can match it). Merge adds banks, split halves one; both are free on
    both sides, so the squares check pure potential bookkeeping.
    """
    dep_sig = MethodSig("deposit")
    spend_sig = MethodSig("spend")
    merge_sig = MethodSig("merge", in_arity=2, out_arity=1)
    split_sig = MethodSig("split", in_arity=1, out_arity=2)

    def impl_deposit(states, arg):
        (t,) = states
        return charge(0, Continue(UNIT, (t + 1,)))

    def impl_spend(states, arg):
        (t,) = states
        if t == 0:
            return charge(0, Continue(UNIT, (0,)))
        return charge(1, Continue(UNIT, (t - 1,)))

    def impl_merge(states, arg):
        m, t = states
        return charge(0, Continue(UNIT, (m + t,)))

    def impl_split(states, arg):
        (t,) = states
        return charge(0, Continue(UNIT, ((t + 1) // 2, t // 2)))

    impl = Coalgebra(
        StateDomain("tokens"),
        (0,),
        (
            Method(dep_sig, impl_deposit),
            Method(spend_sig, impl_spend),
            Method(merge_sig, impl_merge),
            Method(split_sig, impl_split),
        ),
        state_invariant=lambda t: t >= 0,
    )

    spec = _unit_spec((dep_sig, 1), (spend_sig, 0), (merge_sig, 0), (split_sig, 0))
    phi = PotentialMorphism(lambda t: Charged(t, UNIT))
    return VerificationCase(
        name="piggy",
        monoid=NAT_COST,
        impl=impl,
        spec=spec,
        phi=phi,
        max_states=40,
    )
