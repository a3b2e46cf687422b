"""Differential oracle: `explore` against the plain explorer it replaced.

`reference_explore` keys states on their serialization, recomputes Φ for
every square (through `check_square`) and filters the full product of state
indices for k-input tuples. Both explorers run on random small coalgebras
over Fin n, whose states are labelled with values that Python compares
equal in pairs (``1``, ``True``, ``Fraction(1)``, ...) but that serialize
apart. The reports must agree on every count, on the slack and on the kept
counterexamples, in order.
"""

import random
from fractions import Fraction
from itertools import product

from amortcheck import (
    INT_COST,
    STOP,
    Coalgebra,
    Continue,
    Method,
    MethodSig,
    Mode,
    PotentialMorphism,
    StateDomain,
    VerificationCase,
    Verdict,
    charge,
    check_square,
    explore,
)
from amortcheck.encoding import encode

LABELS = (0, 1, True, Fraction(1), (1,), (True,), "1", None)
INDEX = {encode(s): j for j, s in enumerate(LABELS)}

STEP = MethodSig("step", arg_domain=(0, 1))
DROP = MethodSig("drop", may_stop=True)
MERGE = MethodSig("merge", in_arity=2, out_arity=2)


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
                    check = check_square(case, m.sig.name, inputs, arg)
                    squares += 1
                    gap = check.lhs_cost - check.rhs_cost
                    if slack_max is None or gap > slack_max:
                        slack_max = gap
                    if check.verdict is not Verdict.PASS:
                        failures += 1
                        if len(kept) < limit:
                            kept.append(check)
                    out = m.run(inputs, arg).value
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


def random_case(rng):
    """A random case over Fin n with its `explore` bounds."""
    n = rng.randint(1, len(LABELS))
    potential = [rng.randint(0, 3) for _ in range(n)]
    step = {
        (j, a): transition(rng, n, (j,), 1, potential)
        for j in range(n)
        for a in STEP.arg_domain
    }
    drop = {(j,): transition(rng, n, (j,), 1, potential, may_stop=True) for j in range(n)}
    merge = {
        (j, l): transition(rng, n, (j, l), 2, potential)
        for j in range(n)
        for l in range(n)
    }
    tables = {
        "step": lambda js, a: step[js + (a,)],
        "drop": lambda js, a: drop[js],
        "merge": lambda js, a: merge[js],
    }

    def methods(side):
        def method_for(name):
            def run(states, arg):
                if side == 0:
                    js = tuple(INDEX[encode(s)] for s in states)
                else:
                    js = states  # spec states are the Fin n indices themselves
                entry = tables[name](js, arg)[side]
                if entry is None:
                    return charge(0, STOP)
                cost, obs, succ = entry
                out = succ if side else tuple(LABELS[j] for j in succ)
                return charge(cost, Continue(obs, out))

            return run

        return tuple(Method(sig, method_for(sig.name)) for sig in (STEP, DROP, MERGE))

    seeds = tuple(LABELS[rng.randrange(n)] for _ in range(rng.randint(1, 3)))
    excluded = set(rng.sample(range(n), rng.randint(0, min(2, n))))
    case = VerificationCase(
        "random",
        INT_COST,
        Coalgebra(StateDomain("fin"), seeds, methods(0)),
        Coalgebra(StateDomain("fin-spec"), (0,), methods(1)),
        PotentialMorphism(
            lambda s: charge(potential[INDEX[encode(s)]], INDEX[encode(s)]),
            rng.choice(list(Mode)),
        ),
        explore_filter=(lambda s: INDEX[encode(s)] not in excluded) if excluded else None,
    )
    bounds = {
        "max_depth": rng.randint(0, n + 1),
        "max_states": rng.randint(len(seeds), len(seeds) + n - 1),
        "limit": rng.randint(0, 4),
    }
    return case, bounds


def test_explore_matches_reference_explorer():
    for seed in range(300):
        case, bounds = random_case(random.Random(seed))
        report = explore(case, **bounds)
        states, squares, failures, slack_max, kept = reference_explore(case, **bounds)
        got = (report.states_explored, report.squares_checked, report.failures, report.slack_max)
        assert got == (states, squares, failures, slack_max), seed
        assert report.passed == (failures == 0), seed
        assert [c.inputs_serialized for c in report.counterexamples] == [
            c.inputs_serialized for c in kept
        ], seed
        assert list(report.counterexamples) == kept, seed
