"""Pointwise and trace-level verification of amortization claims.

The central check is the amortization square for one method at one input:

    lhs = potential(inputs) ; spec transition
    rhs = impl transition ; potential(successors)

Exact mode demands cost(lhs) = cost(rhs); colax mode demands
cost(rhs) <= cost(lhs) in the monoid order. Behaviors (Stop/Continue tag,
observable, specification successor states) must agree in both modes.

`explore` quantifies the square over a breadth-first-reachable state space,
and `check_trace` verifies the telescoped identity over a concrete operation
sequence. For randomized structures the square compares expected costs and
outcome distributions; a deterministic transition is the point-distribution
case of the same square.
"""

import random
import time
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from .charged import Charged, Dist
from .coalgebra import (
    STOP,
    UNIT,
    Continue,
    Mode,
    VerificationCase,
    arg_literal,
    guard_outcome,
    sum_images,
)
from .encoding import state_key, typed_eq
from .errors import (
    ArityMismatch,
    BadWeights,
    StateInvariantViolation,
    TraceParseError,
    UnsupportedArity,
)


class Verdict(Enum):
    PASS = "pass"
    COST_MISMATCH = "cost-mismatch"
    BEHAVIOR_MISMATCH = "behavior-mismatch"


@dataclass(frozen=True)
class SquareCheck:
    """Result of one amortization-square check, fully reproducible.

    Built only for reported squares: `check_square` and kept counterexamples.
    The square's costs are its sides' own, `lhs.cost` and `rhs.cost`.
    """

    method: str
    inputs: Tuple[Any, ...]
    arg: Any
    lhs: Charged
    rhs: Charged
    verdict: Verdict
    inputs_serialized: Tuple[str, ...]
    arg_literal: str


@dataclass(frozen=True)
class TraceMismatch:
    """A failing step or failing telescoped total along a trace."""

    step: int  # -1 marks the final telescoping comparison
    kind: str  # "observable" | "stop" | "telescope"
    detail: str


Counterexample = Union[SquareCheck, TraceMismatch]


@dataclass(frozen=True)
class Report:
    """The verdict of one `explore` or `check_trace` run and what it covered.

    `failures` counts every failing square or trace step; `counterexamples`
    keeps the first few. `slack_min`/`slack_max` bound lhs − rhs cost over
    the squares (a trace's one telescoped gap), and stay None unless the
    cost model is ordered.
    """

    case_name: str
    mode: Mode
    states_explored: int
    squares_checked: int
    failures: int
    counterexamples: Tuple[Counterexample, ...]
    wall_time: float
    slack_max: Optional[Any] = None
    slack_min: Optional[Any] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class Trace:
    """An operation sequence: (method name, argument) steps from a seed."""

    steps: Tuple[Tuple[str, Any], ...]
    seed_index: int = 0


def _mk_check(case, method, inputs, arg, square) -> SquareCheck:
    """The `SquareCheck` of a reported square: its sides and state text.

    A deterministic (observable, states) behaviour becomes a `Continue`;
    `STOP` and a randomized `Dist` are the side's value as they are.
    """
    verdict, lhs_cost, rhs_cost, lhs_beh, rhs_beh = square
    lhs = Charged(lhs_cost, Continue(*lhs_beh) if type(lhs_beh) is tuple else lhs_beh)
    rhs = Charged(rhs_cost, Continue(*rhs_beh) if type(rhs_beh) is tuple else rhs_beh)
    ser = tuple(case.impl.state_domain.serialize(s) for s in inputs)
    return SquareCheck(method, tuple(inputs), arg, lhs, rhs, verdict, ser, arg_literal(arg))


def _square_for(case: VerificationCase, failed=None):
    """The case's one square engine and its Φ, with the case's constants bound.

    Returns (`engine`, `image`); `image(s)` is s's Φ image as a `Charged`.
    `engine(impl, spec, tuples, args, batch, slack)` checks the square of
    one method pair at each argument in `args` of each (inputs, Φ cost,
    Φ spec states) in `tuples`, appends the impl successors to `batch`
    unless it is None, and calls back only for a failing square:
    `failed(signature, inputs, arg, square)`, whose sides `_mk_check`
    builds. A square is (verdict, lhs cost, rhs cost, lhs behaviour, rhs
    behaviour). It returns (squares, slack, last square or None), `slack`
    extending the (min, max) of lhs − rhs cost passed in; it stays (None,
    None) unless the monoid is ordered. The outcomes pick each square's
    law. When neither side's value is a `Dist`, a behaviour is `STOP` or
    (observable, states), the impl's states taken through Φ (summed from
    the identity, left to right, after the impl's cost). An outcome of
    type exactly `Continue` with ``out_arity`` states passes with no call,
    any other goes to `guard_outcome` (the one shape rule), and the spec
    outcome last passed in a call (a shared constant) is not checked
    again. When either is, both behaviours are `Dist`s, compared on
    expected cost: the spec's law as returned, and a side that is not a
    `Dist` is its point law ``Dist(((1, outcome),))``; a weight that
    cannot scale a cost (``trace``) raises `BadWeights`.

    Behaviour compares by typed identity. A `Dist` compares its outcomes'
    encodings. Two observables agree when they are one object (a shared
    ``()`` or alphabet string: one ``is`` per square) or when `typed_eq`
    holds, so ``True`` is not ``1``. The spec states of a deterministic
    square compare by ``==``: keying them too made `all` a third slower.

    With a k-input method (k >= 2) every Φ application goes through one
    table from `state_key(s)` to Φ(s) as Φ returns it, so Φ runs once per
    distinct typed state (``1``, ``True`` and ``Fraction(1)`` keep their
    own); a lone successor that is an exact int or str is its own key there.
    Else `image` is Φ itself. Every Φ sum folds from the identity once.
    """
    monoid = case.monoid
    combine, identity, leq = monoid.combine, monoid.identity, monoid.leq
    phi, exact = case.phi.phi, case.phi.mode is Mode.EXACT
    ordered, PASS = monoid.ordered, Verdict.PASS
    table = {} if any(m.sig.in_arity > 1 for m in case.impl.methods) else None

    def lookup(s):
        key = state_key(s)
        ch = table.get(key)
        if ch is None:
            ch = table[key] = phi(s)
        return ch

    image = phi if table is None else lookup

    def engine(impl, spec, tuples, args, batch, slack):
        sig, impl_run, spec_run, n_out = impl.sig, impl.run, spec.run, impl.sig.out_arity
        slack_min, slack_max = slack
        count = 0
        unset = last_out = object()  # the last spec outcome guarded: none yet
        for (inputs, phi_cost, phi_values), arg in product(tuples, args):
            spec_res = spec_run(phi_values, arg)
            lhs_cost = combine(phi_cost, spec_res.cost)
            impl_res = impl_run(inputs, arg)
            spec_out, out = spec_res.value, impl_res.value
            if type(out) is Dist or type(spec_out) is Dist:
                spec_outs = spec_out.branches if type(spec_out) is Dist else ((1, spec_out),)
                for _w, branch in spec_outs:
                    guard_outcome(sig, branch)
                lhs_beh = spec_out if type(spec_out) is Dist else Dist(spec_outs)
                last_out = unset  # lhs_beh is this square's law now
                rhs_cost, rhs_outs = impl_res.cost, []
                for w, out in out.branches if type(out) is Dist else ((1, out),):
                    guard_outcome(sig, out)
                    if out is not STOP:
                        mapped_cost, mapped = sum_images(monoid, map(image, out.states))
                        try:
                            scaled = mapped_cost if w == 1 else w * mapped_cost
                        except TypeError:
                            msg = f"{sig.name}: weight {w} cannot scale a {monoid.name} cost"
                            raise BadWeights(msg) from None
                        rhs_cost = combine(rhs_cost, scaled)
                        if batch is not None:
                            batch += out.states
                        out = Continue(out.obs, mapped)
                    rhs_outs.append((w, out))
                rhs_beh = Dist(rhs_outs)
            else:
                if spec_out is not last_out:  # else lhs_beh is still last_out's
                    if type(spec_out) is not Continue or len(spec_out.states) != n_out:
                        guard_outcome(sig, spec_out)
                    last_out = spec_out
                    spec_obs = spec_out if spec_out is STOP else spec_out.obs
                    lhs_beh = spec_out if spec_out is STOP else (spec_obs, spec_out.states)
                if type(out) is not Continue or len(out.states) != n_out:
                    guard_outcome(sig, out)
                if out is STOP:
                    rhs_cost, rhs_beh = impl_res.cost, STOP
                else:
                    successors = out.states
                    if len(successors) != 1:
                        mapped_cost, mapped = sum_images(monoid, map(image, successors))
                    else:  # one image, `lookup` inlined: no frame per square
                        s = successors[0]
                        if table is None:
                            ch = phi(s)
                        else:  # an exact int or str is its own `state_key`; a Charged is truthy
                            t = type(s)
                            ch = table.get(s if t is int or t is str else state_key(s)) or lookup(s)
                        mapped_cost, mapped = combine(identity, ch.cost), (ch.value,)
                    rhs_cost = combine(impl_res.cost, mapped_cost)
                    rhs_beh = (out.obs, mapped)
                    if out.obs is not spec_obs:  # a Continue never equals lhs_beh
                        typed = typed_eq(out.obs, spec_obs)
                        rhs_beh = (spec_obs, mapped) if typed else Continue(*rhs_beh)
                    if batch is not None:
                        batch += successors
            count += 1
            if ordered:
                gap = lhs_cost - rhs_cost
                if slack_max is None:
                    slack_min = slack_max = gap
                elif gap > slack_max:
                    slack_max = gap
                elif gap < slack_min:
                    slack_min = gap
            if lhs_beh != rhs_beh:
                verdict = Verdict.BEHAVIOR_MISMATCH
            elif lhs_cost == rhs_cost if exact else leq(rhs_cost, lhs_cost):
                verdict = PASS
            else:
                verdict = Verdict.COST_MISMATCH
            if verdict is not PASS and failed is not None:
                failed(sig, inputs, arg, (verdict, lhs_cost, rhs_cost, lhs_beh, rhs_beh))
        last = (verdict, lhs_cost, rhs_cost, lhs_beh, rhs_beh) if count else None
        return count, (slack_min, slack_max), last

    return engine, image


def check_square(
    case: VerificationCase, method: str, inputs: Sequence[Any], arg: Any = UNIT
) -> SquareCheck:
    """Check the generalized amortization square at one input tuple.

    The engine (`_square_for`) runs on this tuple and `arg` alone, with no
    batch or callback; the square it returns gets its sides. Where either
    side's value is a `Dist`, both sides are laws compared on expected
    cost (a deterministic side is its point law). A wrong number of inputs,
    or an argument the method's `MethodSig.admits` refuses (typed
    membership: ``True`` is not ``1``), raises `ArityMismatch`.
    """
    impl = case.impl.method(method)
    sig = impl.sig
    inputs = tuple(inputs)
    if len(inputs) != sig.in_arity:
        raise ArityMismatch(
            f"{method} takes {sig.in_arity} input state(s), got {len(inputs)}"
        )
    sig.admits(arg)
    spec = case.spec.method(method)
    engine, image = _square_for(case)
    tuples = ((inputs, *sum_images(case.monoid, map(image, inputs))),)
    square = engine(impl, spec, tuples, (arg,), None, (None, None))[2]
    return _mk_check(case, method, inputs, arg, square)


def _tuples_with_max(entries, i: int, k: int, monoid) -> Iterator[tuple]:
    """(inputs, Φ cost, Φ spec states) of each k-tuple over entries[:i + 1] containing i.

    `entries` holds ((state,), Φ cost, (Φ spec state,)) per state, and
    tuples join those kept 1-tuples, in ``product(range(i + 1), repeat=k)``
    order, each a shared (k-1)-prefix, built once, plus one component; costs
    fold as `sum_images` does.
    """
    combine, head, last = monoid.combine, entries[: i + 1], entries[i]
    prefixes = [((), monoid.identity, (), False)]  # + whether index i occurs
    for _ in range(k - 1):
        prefixes = [
            (inputs + s, combine(cost, c), values + v, has or j == i)
            for inputs, cost, values, has in prefixes
            for j, (s, c, v) in enumerate(head)
        ]
    for inputs, cost, values, has in prefixes:
        for s, c, v in head if has else (last,):
            yield inputs + s, combine(cost, c), values + v


def explore(
    case: VerificationCase,
    max_depth: Optional[int] = None,
    max_states: Optional[int] = None,
    limit: int = 10,
) -> Report:
    """Breadth-first exploration from the seeds, checking every square.

    For every reached input tuple (all ordered in_arity-sized combinations
    of reached states, generated once each), every method and every argument
    in its domain, the amortization square is checked by the case's one
    square engine (`_square_for`), built once per call and called once per
    expanded state and method with the tuples that state closes: itself, or
    `_tuples_with_max`'s k-tuples, which join the 1-tuples of kept
    ((state,), Φ cost, (Φ spec state,)) entries, each image as Φ returns it;
    a tuple's Φ cost folds its images from the identity once, as
    `sum_images` does. Φ runs once on each state as it is expanded and once
    per successor, or, with a k-input method (k >= 2), once per distinct
    typed state. The engine collects a state's successors into one batch,
    admitted in order once its squares are checked, by the rule the seeds
    pass too: `explore_filter`, dedup by typed value (`state_key`: ``1`` and
    ``True`` stay distinct), the state cap and the state invariant. None is
    collected past the depth limit or once the cap has refused an unseen
    state (a cap merely reached stops nothing). Sides and state text are
    built only for the first `limit` failures the engine calls back, the
    counterexamples kept. A case whose filter admits no seed checks
    nothing, so it is refused (`ValueError` naming the case).
    """
    if max_depth is None:
        max_depth = case.max_depth
    if max_states is None:
        max_states = case.max_states
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if max_states < len(case.impl.seeds):
        raise ValueError("max_states must cover at least the seeds")

    t0 = time.perf_counter()
    monoid = case.monoid
    keep = case.explore_filter
    invariant = case.impl.state_invariant
    states: List[Any] = []
    depths: List[int] = []
    seen = set()
    squares = failures = 0
    counterexamples: List[SquareCheck] = []
    slack = (None, None)  # (min, max)

    def failed(sig, inputs, arg, square):
        nonlocal failures
        failures += 1
        if len(counterexamples) < limit:
            counterexamples.append(_mk_check(case, sig.name, inputs, arg, square))

    engine, image = _square_for(case, failed)
    methods = [(m, case.spec.method(m.sig.name), m.sig) for m in case.impl.methods]
    combine, identity = monoid.combine, monoid.identity
    entries = [] if any(sig.in_arity > 1 for _, _, sig in methods) else None
    full = False  # the cap has refused an unseen state: nothing more gets in

    # Candidates wait in `batch` for the one admission rule: first the
    # seeds, then the successors of each state, once its squares are done.
    batch, depth = case.impl.seeds, 0
    i = 0
    while True:
        for s in batch or ():
            if keep is not None and not keep(s):
                continue
            key = state_key(s)
            if key in seen:
                continue
            if full := len(states) >= max_states:
                break
            if invariant is not None and not invariant(s):
                raise StateInvariantViolation(
                    f"{case.name}: state {case.impl.state_domain.serialize(s)} "
                    f"at depth {depth} breaks the invariant"
                )
            seen.add(key)
            states.append(s)
            depths.append(depth)
        if i == len(states):
            break
        # Breadth-first admission keeps depths sorted, so state i is the
        # deepest component of every tuple it closes.
        depth = depths[i] + 1
        batch = [] if not full and depth <= max_depth else None
        ch = image(states[i])
        if entries is not None:
            entries.append(((states[i],), ch.cost, (ch.value,)))
        unary = (((states[i],), combine(identity, ch.cost), (ch.value,)),)
        for impl, spec, sig in methods:
            k = sig.in_arity
            # Every ordered k-tuple over reached states, generated once:
            # exactly those whose newest component is state i.
            tuples = unary if k == 1 else _tuples_with_max(entries, i, k, monoid)
            n, slack, _ = engine(impl, spec, tuples, sig.arg_domain, batch, slack)
            squares += n
        i += 1
    if not states:  # only the filter can refuse every seed
        raise ValueError(f"{case.name}: the explore filter admits no seed")

    counterexamples.sort(key=lambda c: (c.method, c.inputs_serialized, c.arg_literal))
    return Report(
        case_name=case.name,
        mode=case.phi.mode,
        states_explored=len(states),
        squares_checked=squares,
        failures=failures,
        counterexamples=tuple(counterexamples),
        wall_time=time.perf_counter() - t0,
        slack_max=slack[1],
        slack_min=slack[0],
    )


def check_trace(case: VerificationCase, trace: Trace) -> Report:
    """Verify the telescoped amortization identity along one trace.

    The implementation runs from the chosen seed; the specification runs
    from the seed's image under the potential. Per-step observables must
    agree by typed identity (one object, or `typed_eq`: ``True`` is not
    ``1``), Stop must happen on both sides together, and the totals must
    satisfy  potential(start) + spec total  vs  impl total + potential(end)
    under the case's mode; a trace whose two sides Stop ends on `STOP`,
    where potential(end) vanishes. Each side of a step is `guard_outcome`'s
    outcome: Stop only from a ``may_stop`` method, else exactly one
    successor state, and a point law stands for its one outcome while a
    law that branches raises `ArityMismatch`; an outcome of type exactly
    `Continue` with one state is its own, with no call. The trace's
    `seed_index` must index the case's seeds (else `ValueError`).

    Each step passes the door before it runs, and a refused step raises
    after the steps before it ran: a method name that is unknown or not
    1-in/1-out is refused by `Coalgebra.step_method`, and an argument
    outside the method's domain by `MethodSig.admits` (`ArityMismatch`). A
    member object of the domain passes with no call (``members.get(arg) is
    arg``, `admits`' own first rule); anything else goes to `admits`.
    """
    seeds = case.impl.seeds
    if not 0 <= trace.seed_index < len(seeds):
        raise ValueError(f"{case.name}: seed_index must lie in range({len(seeds)})")
    t0 = time.perf_counter()
    mode, monoid, combine = case.phi.mode, case.monoid, case.monoid.combine

    impl_state = seeds[trace.seed_index]
    phi0 = case.phi.phi(impl_state)
    spec_state = phi0.value

    total_impl = total_spec = monoid.identity
    step_no = -1  # the last step that ran
    mismatches: List[TraceMismatch] = []
    methods = {
        m.sig.name: (m.run, case.spec.method(m.sig.name).run, m.sig, m.sig.members)
        for m in case.impl.methods
        if m.sig.sequential
    }

    for step_no, (method, arg) in enumerate(trace.steps):
        step = methods.get(method)
        if step is None:  # unknown, or not 1-in/1-out: the door refuses it
            case.impl.step_method(method)
        impl_run, spec_run, sig, members = step
        try:
            if members.get(arg) is not arg:
                sig.admits(arg)
        except TypeError:  # unhashable: `admits` refuses it
            sig.admits(arg)
        res = impl_run((impl_state,), arg)
        impl_cost, impl_out = res.cost, res.value
        if type(impl_out) is not Continue or len(impl_out.states) != 1:
            impl_out = guard_outcome(sig, impl_out)
        res = spec_run((spec_state,), arg)
        spec_cost, spec_out = res.cost, res.value
        if type(spec_out) is not Continue or len(spec_out.states) != 1:
            spec_out = guard_outcome(sig, spec_out)
        total_impl = combine(total_impl, impl_cost)
        total_spec = combine(total_spec, spec_cost)

        if impl_out is STOP or spec_out is STOP:
            if impl_out is not spec_out:
                side = "impl" if impl_out is STOP else "spec"
                mismatches.append(
                    TraceMismatch(step_no, "stop", f"{method}: only {side} stopped")
                )
            impl_state = STOP
            break
        if impl_out.obs is not spec_out.obs and not typed_eq(impl_out.obs, spec_out.obs):
            mismatches.append(
                TraceMismatch(
                    step_no,
                    "observable",
                    f"{method}: impl observed {impl_out.obs!r}, "
                    f"spec observed {spec_out.obs!r}",
                )
            )
            break
        impl_state = impl_out.states[0]
        spec_state = spec_out.states[0]

    slack = None
    if not mismatches:
        lhs = combine(phi0.cost, total_spec)
        end = monoid.identity if impl_state is STOP else case.phi.phi(impl_state).cost
        rhs = combine(total_impl, end)
        if not (lhs == rhs if mode is Mode.EXACT else monoid.leq(rhs, lhs)):
            rel = "=" if mode is Mode.EXACT else ">="
            mismatches.append(
                TraceMismatch(
                    -1,
                    "telescope",
                    f"wanted lhs {rel} rhs, got lhs={lhs!r} rhs={rhs!r}",
                )
            )
        if monoid.ordered:
            slack = lhs - rhs

    return Report(
        case_name=case.name,
        mode=mode,
        states_explored=step_no + 2,
        squares_checked=step_no + 1,
        failures=len(mismatches),
        counterexamples=tuple(mismatches),
        wall_time=time.perf_counter() - t0,
        slack_max=slack,
        slack_min=slack,
    )


def random_trace(
    case: VerificationCase, max_steps: int, rng: random.Random
) -> Trace:
    """A random trace over the case's sequential methods and argument domains."""
    sequential = [m.sig for m in case.impl.methods if m.sig.sequential]
    if not sequential:
        raise UnsupportedArity(f"{case.name} has no 1-in/1-out methods")
    n = rng.randint(0, max_steps)
    steps = []
    for _ in range(n):
        sig = rng.choice(sequential)
        steps.append((sig.name, rng.choice(sig.arg_domain)))
    return Trace(tuple(steps), seed_index=rng.randrange(len(case.impl.seeds)))


def parse_trace(case: VerificationCase, text: str) -> Trace:
    """Parse the plain-text trace format.

    One record per line: ``method_name argument_literal``. Lines starting
    with ``#`` and blank lines are ignored. Argument literals are integers,
    ``true`` and ``false``, double-quoted strings, ``()`` for unit, or the
    name of a function in the method's domain (`coalgebra.arg_literal`);
    each is looked up in its method's `MethodSig.literals`, so every
    argument a report prints reads back. The trace runs from the case's
    first seed.
    """
    table = case.impl.sig_table
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name = stripped.split(None, 1)[0]
        column = raw.index(name) + 1
        if name not in table:
            raise TraceParseError(line_no, column, f"unknown method {name!r}")
        rest = stripped[len(name):].strip()
        literals = table[name].literals
        if rest not in literals:
            problem = f"argument {rest!r} is not in the domain of" if rest else "missing argument for"
            arg_col = len(raw.rstrip()) - len(rest) + 1
            raise TraceParseError(line_no, arg_col, f"{problem} {name!r}")
        steps.append((name, literals[rest]))
    return Trace(tuple(steps))
