"""Differential oracle: `explore` against the plain explorer it replaced.

`reference_explore` keys states on their serialization, recomputes Φ for
every square, filters the full product of state indices for k-input tuples
and checks each square with `reference_square`, which builds both sides as
`Charged` values and compares them whole, apart from the checker's own
square engine. Both explorers run on random small coalgebras
over Fin n, whose states are labelled with values that Python compares
equal in pairs (``1``, ``True``, ``Fraction(1)``, ...) but that serialize
apart, in a deterministic, a randomized and a word-cost flavour (string
costs over the non-commutative `TRACE_COST`). The reports must agree
on every count, on the slack and on the kept counterexamples, in order.

The same generator also checks the telescoping theorem: along a trace
whose squares all pass, `check_trace` passes, and in exact mode a trace
whose last square alone fails on cost, observable or Stop fails.
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
    Method,
    MethodSig,
    Mode,
    PotentialMorphism,
    SquareCheck,
    StateDomain,
    Trace,
    VerificationCase,
    Verdict,
    charge,
    check_square,
    check_trace,
    expect,
    explore,
    random_trace,
)
from amortcheck.checker import arg_literal
from amortcheck.coalgebra import sum_images
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
    phi_cost, phi_values = sum_images(monoid, map(case.phi.phi, inputs))
    spec_res = case.spec.method(method).run(phi_values, arg)
    impl_res = impl.run(inputs, arg)
    if case.randomized:
        spec_outs, impl_outs = spec_res.value.branches, impl_res.value.branches
    else:
        spec_outs, impl_outs = ((1, spec_res.value),), ((1, impl_res.value),)
    lhs_cost = monoid.combine(phi_cost, spec_res.cost)
    rhs_cost, rhs_outs = impl_res.cost, []
    for w, out in impl_outs:
        if out is not STOP:
            mapped_cost, mapped = sum_images(monoid, map(case.phi.phi, out.states))
            rhs_cost = monoid.combine(rhs_cost, mapped_cost if w == 1 else w * mapped_cost)
            out = Continue(out.obs, mapped)
        rhs_outs.append((w, out))
    if case.randomized:
        lhs = Charged(lhs_cost, Dist(spec_outs))
        rhs = Charged(rhs_cost, Dist(rhs_outs))
    else:
        lhs = Charged(lhs_cost, spec_outs[0][1])
        rhs = Charged(rhs_cost, rhs_outs[0][1])
    exact = case.phi.mode is Mode.EXACT
    if lhs.value != rhs.value:
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
                    outs = res.value.branches if case.randomized else ((1, res.value),)
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


def square_walk(case, trace):
    """The squares along `trace`, up to its first failing square or Stop.

    Returns the steps walked and each step's square; `check_square` checks
    each from the current impl state, whose successor the impl gives.
    """
    state = case.impl.seeds[trace.seed_index]
    checks = []
    for method, arg in trace.steps:
        checks.append(check_square(case, method, (state,), arg))
        out = case.impl.method(method).run((state,), arg).value
        if checks[-1].verdict is not Verdict.PASS or out is STOP:
            break
        state = out.states[0]
    return trace.steps[: len(checks)], checks


def telescope_outcomes(case, rng, traces=4, max_steps=8):
    """Walk random traces and check each against its squares.

    Yields "pass" for a trace whose squares all pass, which `check_trace`
    must pass. In exact mode, yields the kind of a trace whose last square
    alone fails, on cost or on its observable or Stop tag, which
    `check_trace` must fail.
    """
    for _ in range(traces):
        trace = random_trace(case, max_steps, rng)
        steps, checks = square_walk(case, trace)
        report = check_trace(case, Trace(steps, trace.seed_index))
        if not checks or checks[-1].verdict is Verdict.PASS:
            assert report.passed, (steps, report.counterexamples)
            yield "pass"
        elif case.phi.mode is Mode.EXACT:
            last = checks[-1]
            lhs, rhs = last.lhs.value, last.rhs.value
            if (lhs is STOP) != (rhs is STOP) or lhs is not STOP and lhs.obs != rhs.obs:
                kind = "behaviour"
            elif last.lhs_cost != last.rhs_cost:
                kind = "cost"
            else:
                continue  # only the spec successor differs, which traces do not see
            assert not report.passed, (steps, kind)
            yield kind


def test_square_passes_telescope_along_random_traces():
    seen = {}  # (word flavour, mode) -> kinds of trace met
    for seed in range(800, 1100):
        for words in (False, True):
            rng = random.Random(seed)
            case, _bounds = random_case(rng, words=words)
            # `TRACE_COST` is unordered, so words are checked exactly only.
            for mode in (Mode.EXACT,) if words else tuple(Mode):
                kinds = seen.setdefault((words, mode), set())
                kinds.update(telescope_outcomes(case.with_mode(mode), rng))
    assert all("pass" in kinds for kinds in seen.values()), seen
    assert all({"cost", "behaviour"} <= seen[words, Mode.EXACT] for words in (False, True))


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
