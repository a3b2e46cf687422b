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
A drawn filter excludes only non-seed states, so every draw compares
squares; a filter that admits no seed must be refused by both.

Every registered case, `allocator-broken` and a planted `varying` defect
run through both explorers too: list-valued states, an explore filter, a
binding state cap, 2-in/2-out methods and composite cases.

The same generator also checks the telescoping theorem: along a trace
whose squares all pass, `check_trace` passes, and in exact mode a trace
whose last square alone fails on cost, observable or Stop fails. A fixed
2-input case checks that `explore`'s Φ table keeps typed states apart.

Random chains A →Φ B →Ψ C over Fin n check that potentials compose: when
leg A→B passes and leg B→C passes explored from Φ's image of A's reached
states, the composite `compose_phi(Φ, Ψ)` passes. Legs that pass from
their own seeds certify nothing: a cost defect of leg B→C at a B-state
that only Φ's image reaches fails the composite. Random sequential cases
check pairing, the tensor of potentials: each pair square is one
component's square with the other's potential added, so two passing
components make a passing colax `pair_cases`, and a failing pair square
is a failing square of one component unless that component stops (a Stop
drops the other's potential, which an exact pair cannot absorb).

Renaming every impl state, as ``("r", s)`` or as one namedtuple type,
leaves every registered case's counts and slack unchanged: typed dedup
neither merges nor splits states. So does reordering the seeds of a case
whose every state is a seed, and failures never decrease as the depth
bound grows. And every counted square can fail: raising the impl cost of
one seeded square past the report's slack fails that square and no other.
"""

import random
from collections import namedtuple
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest

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
    compose_phi,
    expect,
    explore,
    pair_cases,
    random_trace,
)
from amortcheck.checker import arg_literal
from amortcheck.encoding import encode, state_key
from amortcheck.registry import get_case, registered_names
from amortcheck.structures import varying_cost_case

LABELS = (0, 1, True, Fraction(1), (1,), (True,), "1", None)
WORDS = ("", "a", "b", "ab")
INDEX = {encode(s): j for j, s in enumerate(LABELS)}

STEP = MethodSig("step", arg_domain=(0, 1))
DROP = MethodSig("drop", may_stop=True)
MERGE = MethodSig("merge", in_arity=2, out_arity=2)


def branches(value):
    """A transition's (weight, outcome) pairs: a `Dist`'s, or the point's."""
    return value.branches if type(value) is Dist else ((1, value),)


def fold_images(monoid, states, phi):
    """(Φ cost, Φ spec states) of `states`: costs added in slot order from
    the identity. The checker's own fold is not used, so a fault in it
    cannot hide in both explorers."""
    cost, values = monoid.identity, []
    for s in states:
        image = phi(s)
        cost = cost + image.cost
        values.append(image.value)
    return cost, tuple(values)


def reference_square(case, method, inputs, arg):
    """The square at `inputs` with both sides built and compared whole.

    The sides are laws when either transition returns a `Dist`, else
    outcomes. A law's rhs cost is the impl cost plus the expected Φ cost,
    ``Fraction(w) * cost`` summed from 0 over the impl branches, a point
    law's one branch too; an outcome's adds its Φ cost as it is. Neither
    `tensor` nor `expect` is called here. Laws compare whole (a `Dist`
    compares typed encodings); outcomes compare by ``==`` and their
    observables by encoding too, so ``True`` is not ``1``.
    """
    monoid = case.monoid
    impl = case.impl.method(method)
    phi_cost, phi_values = fold_images(monoid, inputs, case.phi.phi)
    spec_res = case.spec.method(method).run(phi_values, arg)
    impl_res = impl.run(inputs, arg)
    spec_outs, impl_outs = branches(spec_res.value), branches(impl_res.value)
    randomized = Dist in (type(spec_res.value), type(impl_res.value))
    lhs_cost = phi_cost + spec_res.cost
    rhs_cost, rhs_outs, expected = impl_res.cost, [], Fraction(0)
    for w, out in impl_outs:
        if out is not STOP:
            mapped_cost, mapped = fold_images(monoid, out.states, case.phi.phi)
            if randomized:
                expected = expected + Fraction(w) * mapped_cost
            else:
                rhs_cost = rhs_cost + mapped_cost
            out = Continue(out.obs, mapped)
        rhs_outs.append((w, out))
    if randomized:
        rhs_cost = rhs_cost + expected
        lhs = Charged(lhs_cost, Dist(spec_outs))
        rhs = Charged(rhs_cost, Dist(rhs_outs))
    else:
        lhs = Charged(lhs_cost, spec_outs[0][1])
        rhs = Charged(rhs_cost, rhs_outs[0][1])
    exact = case.phi.mode is Mode.EXACT
    if lhs.value != rhs.value or (
        type(lhs.value) is Continue is type(rhs.value)
        and encode(lhs.value.obs) != encode(rhs.value.obs)
    ):
        verdict = Verdict.BEHAVIOR_MISMATCH
    elif lhs_cost == rhs_cost if exact else rhs_cost <= lhs_cost:
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
    if not states:
        raise ValueError(f"{case.name}: the explore filter admits no seed")
    squares = failures = 0
    kept, slack_min, slack_max = [], None, None
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
                    if case.monoid.ordered:
                        gap = check.lhs.cost - check.rhs.cost
                        if slack_max is None or gap > slack_max:
                            slack_max = gap
                        if slack_min is None or gap < slack_min:
                            slack_min = gap
                    if check.verdict is not Verdict.PASS:
                        failures += 1
                        if len(kept) < limit:
                            kept.append(check)
                    for _w, out in branches(m.run(inputs, arg).value):
                        if succ_depth <= max_depth and out is not STOP:
                            for s in out.states:
                                admit(s, succ_depth)
        i += 1
    kept.sort(key=lambda c: (c.method, c.inputs_serialized, c.arg_literal))
    return len(states), squares, failures, slack_min, slack_max, kept


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


def random_case(rng, randomized=False, words=False, merge=True):
    """A random case over Fin n with its `explore` bounds.

    The randomized flavour draws every entry as 1–2 weighted branches over
    `RATIONAL_COST`, so `explore` compares expected costs and laws, a
    one-branch entry on one side being a plain outcome, its point law. The
    word flavour checks `step` and `drop` in exact mode over the
    non-commutative `TRACE_COST`, so the order in which each side of the
    square combines its costs must match the reference. Without `merge`
    the case has the sequential methods `step` and `drop` only.
    """
    draw = weighted_transition if randomized else word_transition if words else transition
    monoid = TRACE_COST if words else RATIONAL_COST if randomized else INT_COST
    sigs = (STEP, DROP, MERGE) if merge and not words else (STEP, DROP)
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
                if not randomized:
                    return charged(entry)
                # A one-branch entry comes back as its outcome, no `Dist`:
                # on the spec side for `step`, on the impl side for `drop`
                # and `merge`, so squares mix a law with a point either way.
                if len(entry) == 1 and (name == "step") == bool(side):
                    return charged(entry[0][1])
                return expect([(w, charged(e)) for w, e in entry])

            return run

        return tuple(Method(sig, method_for(sig.name)) for sig in sigs)

    seeds = tuple(LABELS[rng.randrange(n)] for _ in range(rng.randint(1, 3)))
    # Exclude non-seed states only (by index: ``1 == True``), so the filter
    # always admits a seed and every draw compares squares.
    seeded = {INDEX[encode(s)] for s in seeds}
    others = [j for j in range(n) if j not in seeded]
    excluded = set(rng.sample(others, rng.randint(0, min(2, len(others)))))
    case = VerificationCase(
        "random",
        monoid,
        Coalgebra(StateDomain("fin"), seeds, methods(0)),
        Coalgebra(StateDomain("fin-spec"), (0,), methods(1)),
        PotentialMorphism(
            lambda s: charge(potential[INDEX[encode(s)]], INDEX[encode(s)]),
            Mode.EXACT if words else rng.choice(list(Mode)),
        ),
        explore_filter=(lambda s: INDEX[encode(s)] not in excluded) if excluded else None,
    )
    bounds = {
        "max_depth": rng.randint(0, n + 1),
        "max_states": rng.randint(len(seeds), len(seeds) + n - 1),
        "limit": rng.randint(0, 4),
    }
    return case, bounds


def assert_explore_matches_reference(case, bounds, seed):
    """Both explorers report alike."""
    report = explore(case, **bounds)
    states, squares, failures, slack_min, slack_max, kept = reference_explore(case, **bounds)
    got = (report.states_explored, report.squares_checked, report.failures)
    assert got == (states, squares, failures), seed
    assert squares > 0, seed
    assert (report.slack_min, report.slack_max) == (slack_min, slack_max), seed
    assert report.passed == (failures == 0), seed
    assert [c.inputs_serialized for c in report.counterexamples] == [
        c.inputs_serialized for c in kept
    ], seed
    assert list(report.counterexamples) == kept, seed
    for c in report.counterexamples:  # each kept square replays as it was
        assert check_square(case, c.method, c.inputs, c.arg) == c, seed


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


def test_both_explorers_refuse_a_filter_that_admits_no_seed():
    case, bounds = random_case(random.Random(0))
    seeded = {INDEX[encode(s)] for s in case.impl.seeds}
    case = replace(case, explore_filter=lambda s: INDEX[encode(s)] not in seeded)
    for run in (explore, reference_explore):
        with pytest.raises(ValueError, match="^random: the explore filter admits no seed$"):
            run(case, **bounds)


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
            elif last.lhs.cost != last.rhs.cost:
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


class One(IntEnum):
    ONE = 1


def test_phi_table_keeps_equal_states_of_different_types_apart():
    """A 2-input case whose successors are ``1``, ``True``, ``Fraction(1)``
    and an `IntEnum` 1.

    The four compare equal but are distinct states, each with its own
    potential. A case with a k-input method applies Φ through one table
    per run; keyed by ``==`` it would hand all four the first one's
    image, so Φ would run twice, not five times, and the costs of every
    square reaching ``True``, ``Fraction(1)`` or ``One.ONE`` would change.
    Only an exact int or str is looked up as itself.
    """
    labels = (0, 1, True, Fraction(1), One.ONE)
    index = {encode(s): j for j, s in enumerate(labels)}
    step = MethodSig("step")
    join = MethodSig("join", in_arity=2, out_arity=1)
    applied = []

    def potential(s):
        applied.append(encode(s))
        return charge(index[encode(s)], UNIT)

    def impl_step(states, arg):
        return charge(0, Continue(UNIT, (labels[(index[encode(states[0])] + 1) % 5],)))

    def impl_join(states, arg):
        total = sum(index[encode(s)] for s in states)
        return charge(1, Continue(UNIT, (labels[total % 5],)))

    one = Continue(UNIT, (UNIT,))
    spec = (
        Method(step, lambda states, arg: charge(1, one)),
        Method(join, lambda states, arg: charge(0, one)),
    )
    impl = (Method(step, impl_step), Method(join, impl_join))
    # `step` fails at 4 alone (exact), `join` at every pair (exact) or at
    # the 15 whose index sum is below 5 (colax).
    for mode, failures in ((Mode.EXACT, 26), (Mode.COLAX, 15)):
        case = VerificationCase(
            "typed-join",
            INT_COST,
            Coalgebra(StateDomain("labels"), (0,), impl),
            Coalgebra(StateDomain("unit"), (UNIT,), spec),
            PotentialMorphism(potential, mode),
        )
        applied.clear()
        report = explore(case, limit=20)
        assert sorted(applied) == sorted(encode(s) for s in labels), mode
        got = (report.states_explored, report.squares_checked, report.failures)
        assert got == (5, 30, failures), mode
        bounds = {"max_depth": 12, "max_states": 5000, "limit": 20}
        assert_explore_matches_reference(case, bounds, mode)


def test_registered_cases_match_reference_explorer():
    # Each case at its own bounds; deque's 16,129 states are cut to 600,
    # which its cap then binds, to keep the reference's quadratic work small.
    cases = [get_case(name) for name in registered_names()]
    cases.append(varying_cost_case(defect_at=5))
    for case in cases:
        bounds = {
            "max_depth": case.max_depth,
            "max_states": 600 if case.name == "deque" else case.max_states,
            "limit": 10,
        }
        assert_explore_matches_reference(case, bounds, case.name)


# --- adequacy: renaming states changes nothing ------------------------------

Wrapped = namedtuple("Wrapped", "state")


def relabel(case, wrap, unwrap):
    """`case` with every impl state s replaced by wrap(s): in its seeds, in
    every transition (each branch of a law too), in Φ, filter and invariant."""

    def relabelled(outcome):
        if outcome is STOP:
            return STOP
        return Continue(outcome.obs, tuple(map(wrap, outcome.states)))

    def method(m):
        def run(states, arg):
            res = m.run(tuple(map(unwrap, states)), arg)
            if type(res.value) is Dist:
                return Charged(res.cost, Dist((w, relabelled(o)) for w, o in res.value.branches))
            return Charged(res.cost, relabelled(res.value))

        return Method(m.sig, run)

    def pulled(fn):
        return None if fn is None else lambda s: fn(unwrap(s))

    impl = replace(
        case.impl,
        seeds=tuple(map(wrap, case.impl.seeds)),
        methods=tuple(map(method, case.impl.methods)),
        state_invariant=pulled(case.impl.state_invariant),
    )
    phi = replace(case.phi, phi=pulled(case.phi.phi))
    return replace(case, impl=impl, phi=phi, explore_filter=pulled(case.explore_filter))


def counts(report):
    return (
        report.states_explored,
        report.squares_checked,
        report.failures,
        report.slack_min,
        report.slack_max,
    )


@pytest.mark.parametrize(
    "wrap, unwrap",
    [(lambda s: ("r", s), lambda r: r[1]), (Wrapped, lambda w: w.state)],
    ids=["tagged-pair", "namedtuple"],
)
def test_renaming_impl_states_changes_no_count(wrap, unwrap, explored):
    # Typed dedup must neither merge nor split renamed states: a collision
    # would let one state's squares stand in for another's.
    runs = [(get_case(name), explored(name)) for name in registered_names()]
    defect = varying_cost_case(defect_at=5)
    runs.append((defect, explore(defect)))
    small = [(case, report) for case, report in runs if report.squares_checked <= 3000]
    assert len(small) == len(runs) - 1  # all but deque's 96,774 squares
    for case, report in small:
        assert counts(explore(relabel(case, wrap, unwrap))) == counts(report), case.name


@pytest.mark.parametrize(
    "name, n_seeds", [("allocator", 8), ("alloc16-via-8", 16), ("rand-alloc", 4)]
)
def test_permuting_the_seeds_of_a_closed_case_changes_no_count(name, n_seeds, explored):
    # Every state of these cases is a seed, so the space is closed whatever
    # the admission order: reordering the seeds must not move a count.
    case = get_case(name)
    seeds = list(case.impl.seeds)
    shuffled = seeds[:]
    random.Random(f"seeds-{name}").shuffle(shuffled)
    assert len(seeds) == n_seeds and shuffled != seeds
    for order in (seeds[::-1], shuffled):
        permuted = replace(case, impl=replace(case.impl, seeds=tuple(order)))
        assert counts(explore(permuted)) == counts(explored(name)), (name, order)


def test_failures_never_decrease_as_the_depth_bound_grows():
    rng = random.Random(2424)
    cases = [get_case("allocator-broken")]
    cases += [varying_cost_case(defect_at=d) for d in rng.sample(range(1, 64), 3)]
    for case in cases:
        failures = [explore(case, max_depth=depth).failures for depth in range(65)]
        assert failures == sorted(failures), case.name
        assert failures[-1] == explore(case).failures > 0, case.name


# --- adequacy: one raised square is the one failure ------------------------


def square_key(method, inputs, arg):
    """A square's typed key: its method, the `state_key` of each input and
    its argument's literal (a `NamedFn` argument has no `state_key`)."""
    return method, tuple(map(state_key, inputs)), arg_literal(arg)


def with_impl_runs(case, wrap):
    """`case` with each impl method's transition replaced by wrap(method)."""
    methods = tuple(Method(m.sig, wrap(m)) for m in case.impl.methods)
    return replace(case, impl=replace(case.impl, methods=methods))


def recorded_runs(case):
    """(key, inputs, impl outcome) of every square one `explore` of `case`
    checks, read off its impl calls."""
    calls = []

    def wrap(m):
        def run(states, arg):
            res = m.run(states, arg)
            calls.append((square_key(m.sig.name, states, arg), states, res.value))
            return res

        return run

    explore(with_impl_runs(case, wrap))
    return calls


def recorded_squares(case):
    """The key of every square one `explore` of `case` checks."""
    return [key for key, _, _ in recorded_runs(case)]


def raised_at(case, key, bump):
    """`case` with `bump` added to the impl cost of the one square `key`."""

    def wrap(m):
        def run(states, arg):
            res = m.run(states, arg)
            if square_key(m.sig.name, states, arg) != key:
                return res
            return Charged(res.cost + bump, res.value)

        return run

    return with_impl_runs(case, wrap)


def test_one_raised_square_is_the_one_failure(explored):
    # Mutants: raising one square's impl cost past the report's own slack
    # (appending "x" under the unordered `trace` model) must fail exactly
    # that square. A key collision or a vacuous square shows as 0 failures.
    names = registered_names(include_negative=False)
    small = [name for name in names if explored(name).squares_checked <= 3000]
    assert len(small) == len(names) - 1  # all but deque's 96,774 squares
    mutants = 0
    for name in small:
        case, report = get_case(name), explored(name)
        squares = recorded_squares(case)
        assert len(set(squares)) == len(squares) == report.squares_checked, name
        bump = report.slack_max + 1 if case.monoid.ordered else "x"
        for key in random.Random(name).sample(squares, min(5, len(squares))):
            mutant = explore(raised_at(case, key, bump))
            assert mutant.failures == 1, (name, key)
            (c,) = mutant.counterexamples
            assert square_key(c.method, c.inputs, c.arg) == key
            mutants += 1
    assert mutants == 64  # rand-alloc has 4 squares


def phi_raised_at(case, key):
    """`case` with Φ's cost raised by 1 at the one state whose `state_key` is `key`."""
    phi = case.phi.phi

    def raised(s):
        ch = phi(s)
        return Charged(ch.cost + 1, ch.value) if state_key(s) == key else ch

    return replace(case, phi=replace(case.phi, phi=raised))


def test_one_raised_potential_fails_the_squares_that_hold_it_unevenly(explored):
    # Mutants: raising Φ(s) by 1 moves an exact square's lhs by the number
    # of times s is an input and its rhs by the number of times s is a
    # successor, so exactly the squares where the two differ fail. piggy's
    # merge(s, s) holds s twice. Deterministic cases only: a law's branch
    # weighs Φ(out) by its weight.
    names = registered_names(include_negative=False)
    mutated = []
    for name in names:
        case, report = get_case(name), explored(name)
        if case.phi.mode is not Mode.EXACT or not case.monoid.ordered:
            continue
        if report.squares_checked > 3000:
            continue
        runs = recorded_runs(case)
        if any(type(out) is Dist for _, _, out in runs):
            continue
        assert report.failures == 0, name
        seeds = set(map(state_key, case.impl.seeds))
        states = {state_key(s): s for _, inputs, _ in runs for s in inputs}
        candidates = [k for k in states if k not in seeds]
        if not candidates:
            continue
        key = random.Random(name).choice(candidates)

        def held(slots):
            return sum(state_key(s) == key for s in slots)

        def uneven(inputs, out):
            return held(inputs) != held(() if out is STOP else out.states)

        expected = sum(uneven(inputs, out) for _, inputs, out in runs)
        assert expected > 0, name
        assert explore(phi_raised_at(case, key)).failures == expected, (name, states[key])
        mutated.append(name)
    assert "piggy" in mutated
    assert len(mutated) == 7, mutated


# --- composition ------------------------------------------------------------


def chain_table(rng, upper, n_upper, n, potential, colax):
    """Transitions over Fin n that refine `upper`'s over Fin n_upper.

    State i stands for the upper state i % n_upper (n is a multiple of
    n_upper). An entry is (cost, observable, successor), the observable and
    successor None for Stop. Each entry copies its upper entry's behaviour,
    with a successor drawn among the states standing for the upper one,
    and costs what balances the square under the potential i ↦
    (potential[i], i % n_upper), less a drawn slack in colax mode, plus a
    defect of 1 in one entry of twenty.
    """
    table = {}
    for (name, j, arg), (cost, obs, succ) in upper.items():
        for i in range(j, n, n_upper):
            to = None if succ is None else succ + n_upper * rng.randrange(n // n_upper)
            balanced = potential[i] + cost - (0 if to is None else potential[to])
            drawn = rng.randint(0, 1) if colax else 0
            table[name, i, arg] = (balanced - drawn + (rng.random() < 0.05), obs, to)
    return table


def chain_coalgebra(table, seeds):
    def method(sig):
        def run(states, arg):
            cost, obs, succ = table[sig.name, states[0], arg]
            return charge(cost, STOP if succ is None else Continue(obs, (succ,)))

        return Method(sig, run)

    return Coalgebra(StateDomain("fin"), seeds, (method(STEP), method(DROP)))


def reached(coalgebra):
    """Every state reachable from the seeds (deterministic, 1-in/1-out)."""
    seen, frontier = set(coalgebra.seeds), list(coalgebra.seeds)
    while frontier:
        s = frontier.pop()
        for m in coalgebra.methods:
            for arg in m.sig.arg_domain:
                out = m.run((s,), arg).value
                if out is not STOP and out.states[0] not in seen:
                    seen.add(out.states[0])
                    frontier.append(out.states[0])
    return seen


def random_chain(rng, mode, plant=False):
    """Legs A→B and B→C of a random chain over Fin n, and the composite A→C.

    C is drawn over Fin n_C (`step` always continues, `drop` may Stop, at
    cost 0); B refines C and A refines B (`chain_table`). Returns (A→B, B→C,
    A→C, Φ's image of A's reached states). With `plant`, B's entries at
    one B-state in that image, but out of B's own reach, cost 3 more, and
    so do the A entries refining them, so leg A→B still balances; if there
    is no such state, the result is None.
    """
    colax = mode is Mode.COLAX
    n_c = rng.randint(1, 3)
    n_b = n_c * rng.randint(1, 2)
    n_a = n_b * rng.randint(1, 2)
    top = {}
    for j in range(n_c):
        for arg in STEP.arg_domain:
            top["step", j, arg] = (rng.randint(0, 3), rng.randint(0, 1), rng.randrange(n_c))
        stop = rng.random() < 0.5
        top["drop", j, UNIT] = (0, None, None) if stop else (
            rng.randint(0, 3), rng.randint(0, 1), rng.randrange(n_c)
        )
    psi = [rng.randint(0, 3) for _ in range(n_b)]
    phi = [rng.randint(0, 3) for _ in range(n_a)]
    b_table = chain_table(rng, top, n_c, n_b, psi, colax)
    a_table = chain_table(rng, b_table, n_b, n_a, phi, colax)
    a = chain_coalgebra(a_table, tuple(rng.sample(range(n_a), rng.randint(1, min(2, n_a)))))
    b = chain_coalgebra(b_table, (rng.randrange(n_b),))
    c = chain_coalgebra(top, (0,))
    images = tuple(sorted({i % n_b for i in reached(a)}))
    if plant:
        spare = sorted(set(images) - reached(b))
        if not spare:
            return None
        j = rng.choice(spare)
        for table in (a_table, b_table):
            for key, (cost, obs, to) in table.items():
                if key[1] % n_b == j:
                    table[key] = (cost + 3, obs, to)
    first = PotentialMorphism(lambda i: charge(phi[i], i % n_b), mode)
    second = PotentialMorphism(lambda j: charge(psi[j], j % n_c), mode)
    return (
        VerificationCase("a-b", INT_COST, a, b, first),
        VerificationCase("b-c", INT_COST, b, c, second),
        VerificationCase("a-c", INT_COST, a, c, compose_phi(first, second)),
        images,
    )


def seeded(case, seeds):
    return replace(case, impl=replace(case.impl, seeds=seeds))


def test_legs_passing_on_the_first_legs_image_compose():
    legs = {(mode, passed): 0 for mode in Mode for passed in (False, True)}
    for seed in range(400):
        rng = random.Random(seed)
        mode = rng.choice(list(Mode))
        ab, bc, ac, images = random_chain(rng, mode)
        passed = explore(ab).passed and explore(seeded(bc, images)).passed
        if passed:
            assert explore(ac).passed, seed
        legs[mode, passed] += 1
    # In each mode, enough chains pass both legs, and defects fail enough.
    assert all(n >= 40 for n in legs.values()), legs


def test_legs_passing_from_their_own_seeds_do_not_certify_the_composite():
    planted = {mode: 0 for mode in Mode}
    for seed in range(1000):
        rng = random.Random(seed)
        mode = rng.choice(list(Mode))
        chain = random_chain(rng, mode, plant=True)
        if chain is None:
            continue
        ab, bc, ac, images = chain
        if explore(ab).passed and explore(bc).passed:
            assert not explore(ac).passed, seed
            assert not explore(seeded(bc, images)).passed, seed
            planted[mode] += 1
    assert all(n >= 20 for n in planted.values()), planted


# --- pairing ----------------------------------------------------------------


def sequential_components(seeds=range(1200, 1400), modes=tuple(Mode)):
    """Random sequential components in `modes` with no filter, explored
    until closed, so every state a pair reaches has its components' squares
    checked. Each comes with whether it passes."""
    components = []
    for seed in seeds:
        case, _ = random_case(random.Random(seed), merge=False)
        if case.phi.mode not in modes:
            continue
        case = replace(case, explore_filter=None)
        closed = explore(case, max_depth=len(LABELS), max_states=len(LABELS))
        components.append((case, closed.passed))
    return components


def test_each_pair_square_is_a_square_of_one_component():
    # A pair square at (l, r) is its component's square at l (or r) with
    # the other component's potential added to both sides. So two passing
    # components make a passing colax pair, and a failing pair square fails
    # as its component's square does. The one exception is the rule for
    # Stop: a component's Stop ends the pair, so the other potential is
    # added to the left side only, and a Stop square that passes in its
    # component fails in the pair only in exact mode, beside a nonzero
    # potential.
    components = sequential_components()
    passing = [c for c in components if c[1]]
    # Every two passing components (few pass, and they are small), and each
    # component beside a passing one.
    pairs = list(product(passing, repeat=2))
    pairs += [(c, passing[n % len(passing)]) for n, c in enumerate(components)]
    seen = {"passing colax pairs": 0, "component failures": 0, "stop squares": 0}
    for (left, left_ok), (right, right_ok) in pairs:
        pair = pair_cases(left, right)
        report = explore(pair, limit=10**6)
        if left_ok and right_ok and pair.phi.mode is Mode.COLAX:
            assert report.passed
            seen["passing colax pairs"] += 1
        assert len(report.counterexamples) == report.failures
        for c in report.counterexamples:
            side, method = c.method.split(".")
            (states,) = c.inputs
            j = int(side == "right")
            own = check_square((left, right)[j], method, (states[j],), c.arg)
            other_phi = (right, left)[j].phi.phi(states[1 - j]).cost
            assert c.lhs.cost == own.lhs.cost + other_phi, c
            if own.rhs.value is STOP:
                assert c.rhs.cost == own.rhs.cost, c
                seen["stop squares"] += 1
                if own.verdict is Verdict.PASS:
                    assert pair.phi.mode is Mode.EXACT and other_phi != 0, c
                    continue
            else:
                assert c.rhs.cost == own.rhs.cost + other_phi, c
            assert own.verdict is c.verdict, c
            seen["component failures"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def test_a_stop_ends_the_pair_beside_the_other_potential():
    # Every failure of a pair of two passing exact components is a Stop
    # square beside a nonzero potential of the other component, and the
    # registered pair below shows every such square failing.
    components = sequential_components(range(1200, 3200), (Mode.EXACT,))
    passing = [c for c, ok in components if ok]
    stops = 0
    for left, right in product(passing, repeat=2):
        for c in explore(pair_cases(left, right), limit=10**6).counterexamples:
            (states,) = c.inputs
            j = int(c.method.startswith("right."))
            other_phi = (right, left)[j].phi.phi(states[1 - j]).cost
            assert c.rhs.value is STOP and c.verdict is Verdict.COST_MISMATCH, c
            assert c.lhs.cost - other_phi == c.rhs.cost and other_phi != 0, c
            stops += 1
    assert len(passing) >= 10 and stops >= 20, (len(passing), stops)
    allocator = get_case("allocator")
    report = explore(pair_cases(get_case("queue-exact"), allocator))
    assert (report.failures, report.squares_checked) == (7, 16_416)
    assert {(c.method, c.inputs[0][0]) for c in report.counterexamples} == {
        ("left.dequeue", ((), ()))
    }
    # The allocator states beside which the empty queue's dequeue fails
    # are exactly those with a nonzero potential: all but d = 7.
    failing = sorted(c.inputs[0][1] for c in report.counterexamples)
    assert failing == [d for d in range(8) if allocator.phi.phi(d).cost != 0]
