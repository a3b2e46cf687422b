"""Differential oracle: `explore` against the plain explorer it replaced.

`reference_explore` keys states on their serialization, recomputes Φ for
every square, filters the full product of state indices for k-input tuples
and checks each square with `reference_square`, which builds both sides as
`Charged`/`ExpectedCharged` values and compares them whole, apart from the
checker's own square engine. Both explorers run on random small coalgebras
over Fin n, whose states are labelled with values that Python compares
equal in pairs (``1``, ``True``, ``Fraction(1)``, ...) but that serialize
apart, in a deterministic, a randomized and a word-cost flavour (string
costs over the non-commutative `TRACE_COST`). The reports must agree
on every count, on the slack and on the kept counterexamples, in order.
"""

import random
from fractions import Fraction
from itertools import product

from amortcheck import (
    INT_COST,
    RATIONAL_COST,
    STOP,
    TRACE_COST,
    UNIT,
    Charged,
    Coalgebra,
    Continue,
    Dist,
    ExpectedCharged,
    Method,
    MethodSig,
    Mode,
    PotentialMorphism,
    SquareCheck,
    StateDomain,
    VerificationCase,
    Verdict,
    apply_phi_tuple,
    charge,
    expect,
    explore,
)
from amortcheck.checker import arg_literal
from amortcheck.encoding import encode

LABELS = (0, 1, True, Fraction(1), (1,), (True,), "1", None)
WORDS = ("", "a", "b", "ab")
INDEX = {encode(s): j for j, s in enumerate(LABELS)}

STEP = MethodSig("step", arg_domain=(0, 1))
DROP = MethodSig("drop", may_stop=True)
MERGE = MethodSig("merge", in_arity=2, out_arity=2)


def reference_square(case, method, inputs, arg):
    """The square at `inputs` with both sides built and compared whole."""
    monoid = case.monoid
    impl = case.impl.method(method)
    phi_cost, phi_values = apply_phi_tuple(monoid, case.phi, inputs)
    spec_res = case.spec.method(method).run(phi_values, arg)
    impl_res = impl.run(inputs, arg)
    if case.randomized:
        spec_cost, spec_outs = spec_res.expected_cost, spec_res.dist.branches
        rhs_cost, impl_outs = impl_res.expected_cost, impl_res.dist.branches
    else:
        spec_cost, spec_outs = spec_res.cost, ((1, spec_res.value),)
        rhs_cost, impl_outs = impl_res.cost, ((1, impl_res.value),)
    lhs_cost = monoid.combine(phi_cost, spec_cost)
    rhs_outs = []
    for w, out in impl_outs:
        if out is not STOP:
            mapped_cost, mapped = apply_phi_tuple(monoid, case.phi, out.states)
            rhs_cost = monoid.combine(rhs_cost, mapped_cost if w == 1 else w * mapped_cost)
            out = Continue(out.obs, mapped)
        rhs_outs.append((w, out))
    if case.randomized:
        lhs = ExpectedCharged(lhs_cost, Dist.from_branches(spec_outs))
        rhs = ExpectedCharged(rhs_cost, Dist.from_branches(rhs_outs))
        same = lhs.dist == rhs.dist
    else:
        lhs = Charged(lhs_cost, spec_outs[0][1])
        rhs = Charged(rhs_cost, rhs_outs[0][1])
        same = lhs.value == rhs.value
    exact = case.phi.mode is Mode.EXACT
    if not same:
        verdict = Verdict.BEHAVIOR_MISMATCH
    elif lhs_cost == rhs_cost if exact else monoid.leq(rhs_cost, lhs_cost):
        verdict = Verdict.PASS
    else:
        verdict = Verdict.COST_MISMATCH
    serialized = tuple(case.impl.state_domain.serialize(s) for s in inputs)
    return SquareCheck(method, inputs, arg, lhs, rhs, verdict, serialized, arg_literal(arg))


def reference_explore(case, max_depth, max_states, limit):
    serialize = case.impl.state_domain.serialize
    states, depths, index = [], [], {}

    def admit(s, depth):
        if case.explore_filter is not None and not case.explore_filter(s):
            return
        key = serialize(s)
        if key in index or len(states) >= max_states:
            return
        index[key] = len(states)
        states.append(s)
        depths.append(depth)

    for seed in case.impl.seeds:
        admit(seed, 0)
    squares = failures = 0
    kept, slack_max = [], None
    i = 0
    while i < len(states):
        for m in case.impl.methods:
            for t in product(range(i + 1), repeat=m.sig.in_arity):
                if max(t) != i:
                    continue
                inputs = tuple(states[j] for j in t)
                succ_depth = 1 + max(depths[j] for j in t)
                for arg in m.sig.arg_domain:
                    check = reference_square(case, m.sig.name, inputs, arg)
                    squares += 1
                    if case.monoid.numeric:
                        gap = check.lhs_cost - check.rhs_cost
                        if slack_max is None or gap > slack_max:
                            slack_max = gap
                    if check.verdict is not Verdict.PASS:
                        failures += 1
                        if len(kept) < limit:
                            kept.append(check)
                    res = m.run(inputs, arg)
                    outs = res.dist.branches if case.randomized else ((1, res.value),)
                    for _w, out in outs:
                        if succ_depth <= max_depth and out is not STOP:
                            for s in out.states:
                                admit(s, succ_depth)
        i += 1
    kept.sort(key=lambda c: (c.method, c.inputs_serialized, c.arg_literal))
    return len(states), squares, failures, slack_max, kept


def transition(rng, n, sources, outs, potential, may_stop=False):
    """One impl entry and its spec twin for an input tuple of Fin n indices.

    An entry is None (Stop) or (cost, observable, successor indices). The
    spec cost is the one that balances the square, off by a drawn amount;
    a twisted entry changes the spec's observable or Stop tag.
    """
    twisted = rng.random() < 0.125
    if may_stop and rng.random() < 0.5:
        return None, ((rng.randint(0, 3), 0, (0,) * outs) if twisted else None)
    cost, obs = rng.randint(0, 3), rng.randint(0, 1)
    succ = tuple(rng.randrange(n) for _ in range(outs))
    balanced = cost + sum(potential[j] for j in succ) - sum(potential[j] for j in sources)
    spec_cost = balanced + rng.choice([0, 0, 0, 1, -1])
    return (cost, obs, succ), (spec_cost, obs + 10 * twisted, succ)


def word_transition(rng, n, sources, outs, potential, may_stop=False):
    """`transition` over `TRACE_COST`: costs and potentials are words.

    The spec cost balances the exact square Φ(in)·spec = impl·Φ(out) when
    Φ(in) is a prefix of the right side and is a drawn word otherwise; a
    drawn suffix may still unbalance it.
    """
    twisted = rng.random() < 0.125
    if may_stop and rng.random() < 0.5:
        return None, ((rng.choice(WORDS), 0, (0,) * outs) if twisted else None)
    cost, obs = rng.choice(WORDS), rng.randint(0, 1)
    succ = tuple(rng.randrange(n) for _ in range(outs))
    rhs = cost + "".join(potential[j] for j in succ)
    lhs = "".join(potential[j] for j in sources)
    balanced = rhs[len(lhs):] if rhs.startswith(lhs) else rng.choice(WORDS)
    spec_cost = balanced + rng.choice(["", "", "", "z"])
    return (cost, obs, succ), (spec_cost, obs + 10 * twisted, succ)


def weighted_transition(rng, n, sources, outs, potential, may_stop=False):
    """A randomized entry pair: 1 or 2 weighted branches, each a `transition`.

    Each spec branch mirrors its impl branch, so the spec law is the impl
    law under Φ unless a branch is twisted, and the expected spec cost is
    the balanced one up to the drawn offsets.
    """
    w = rng.choice([1, Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)])
    weights = (w,) if w == 1 else (w, 1 - w)
    pairs = [transition(rng, n, sources, outs, potential, may_stop) for _ in weights]
    return tuple(tuple(zip(weights, side)) for side in zip(*pairs))


def random_case(rng, randomized=False, words=False):
    """A random case over Fin n with its `explore` bounds.

    The randomized flavour draws every entry as 1–2 weighted branches over
    `RATIONAL_COST`, so `explore` compares expected costs and laws. The
    word flavour checks `step` and `drop` in exact mode over the
    non-commutative `TRACE_COST`, so the order in which each side of the
    square combines its costs must match the reference.
    """
    draw = weighted_transition if randomized else word_transition if words else transition
    monoid = TRACE_COST if words else RATIONAL_COST if randomized else INT_COST
    sigs = (STEP, DROP) if words else (STEP, DROP, MERGE)
    n = rng.randint(1, len(LABELS))
    potential = [rng.choice(WORDS) if words else rng.randint(0, 3) for _ in range(n)]
    step = {
        (j, a): draw(rng, n, (j,), 1, potential)
        for j in range(n)
        for a in STEP.arg_domain
    }
    drop = {(j,): draw(rng, n, (j,), 1, potential, may_stop=True) for j in range(n)}
    merge = {
        (j, l): draw(rng, n, (j, l), 2, potential)
        for j in range(n)
        for l in range(n)
        if MERGE in sigs
    }
    tables = {
        "step": lambda js, a: step[js + (a,)],
        "drop": lambda js, a: drop[js],
        "merge": lambda js, a: merge[js],
    }

    def methods(side):
        def charged(entry):
            if entry is None:
                return charge(monoid.identity, STOP)
            cost, obs, succ = entry
            out = succ if side else tuple(LABELS[j] for j in succ)
            return charge(cost, Continue(obs, out))

        def method_for(name):
            def run(states, arg):
                if side == 0:
                    js = tuple(INDEX[encode(s)] for s in states)
                else:
                    js = states  # spec states are the Fin n indices themselves
                entry = tables[name](js, arg)[side]
                if randomized:
                    return expect([(w, charged(e)) for w, e in entry])
                return charged(entry)

            return run

        return tuple(Method(sig, method_for(sig.name)) for sig in sigs)

    seeds = tuple(LABELS[rng.randrange(n)] for _ in range(rng.randint(1, 3)))
    excluded = set(rng.sample(range(n), rng.randint(0, min(2, n))))
    case = VerificationCase(
        "random",
        monoid,
        Coalgebra(StateDomain("fin"), seeds, methods(0)),
        Coalgebra(StateDomain("fin-spec"), (0,), methods(1)),
        PotentialMorphism(
            lambda s: charge(potential[INDEX[encode(s)]], INDEX[encode(s)]),
            Mode.EXACT if words else rng.choice(list(Mode)),
        ),
        randomized=randomized,
        explore_filter=(lambda s: INDEX[encode(s)] not in excluded) if excluded else None,
    )
    bounds = {
        "max_depth": rng.randint(0, n + 1),
        "max_states": rng.randint(len(seeds), len(seeds) + n - 1),
        "limit": rng.randint(0, 4),
    }
    return case, bounds


def assert_explore_matches_reference(case, bounds, seed):
    report = explore(case, **bounds)
    states, squares, failures, slack_max, kept = reference_explore(case, **bounds)
    got = (report.states_explored, report.squares_checked, report.failures, report.slack_max)
    assert got == (states, squares, failures, slack_max), seed
    assert report.passed == (failures == 0), seed
    assert [c.inputs_serialized for c in report.counterexamples] == [
        c.inputs_serialized for c in kept
    ], seed
    assert list(report.counterexamples) == kept, seed


def test_explore_matches_reference_explorer():
    for seed in range(300):
        case, bounds = random_case(random.Random(seed))
        assert_explore_matches_reference(case, bounds, seed)


def test_randomized_explore_matches_reference_explorer():
    for seed in range(300, 500):
        case, bounds = random_case(random.Random(seed), randomized=True)
        assert_explore_matches_reference(case, bounds, seed)


def test_word_cost_explore_matches_reference_explorer():
    for seed in range(500, 800):
        case, bounds = random_case(random.Random(seed), words=True)
        assert_explore_matches_reference(case, bounds, seed)


def three_input_case(mode):
    """Token banks over `INT_COST` with a 3-input `join`; Φ(2) is wrong.

    A bank of t tokens stores potential t, except that Φ(2) claims 3, so
    every square with the bank 2 among its inputs or successors is off by
    one. Spec states are the banks themselves and `join` observes its
    inputs, so its behaviours compare the Φ values of the three slots in
    slot order.
    """
    deposit = MethodSig("deposit")
    join = MethodSig("join", in_arity=3, out_arity=1)
    potential = {2: 3}

    def methods(deposit_cost):
        return (
            Method(deposit, lambda ts, a: charge(deposit_cost, Continue(UNIT, (ts[0] + 1,)))),
            Method(join, lambda ts, a: charge(0, Continue(ts, (sum(ts),)))),
        )

    return VerificationCase(
        "three-input",
        INT_COST,
        Coalgebra(StateDomain("tokens"), (0,), methods(0)),
        Coalgebra(StateDomain("tokens-spec"), (0,), methods(1)),
        PotentialMorphism(lambda t: charge(potential.get(t, t), t), mode),
    )


def test_three_input_explore_matches_reference_explorer():
    for mode in Mode:
        case = three_input_case(mode)
        for bounds in (
            {"max_depth": 3, "max_states": 6, "limit": 10},
            {"max_depth": 8, "max_states": 9, "limit": 4},
        ):
            assert_explore_matches_reference(case, bounds, (mode, bounds))
            assert not explore(case, **bounds).passed
