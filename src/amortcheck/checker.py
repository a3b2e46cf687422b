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
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

from .charged import Charged, Dist
from .coalgebra import (
    STOP,
    UNIT,
    Continue,
    MethodSig,
    Mode,
    NamedFn,
    VerificationCase,
    guard_outcome,
    sum_images,
)
from .encoding import state_key
from .errors import (
    ArityMismatch,
    StateInvariantViolation,
    TraceParseError,
    UnknownMethod,
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
    """

    method: str
    inputs: Tuple[Any, ...]
    arg: Any
    lhs: Charged
    rhs: Charged
    verdict: Verdict
    inputs_serialized: Tuple[str, ...]
    arg_literal: str

    @property
    def lhs_cost(self) -> Any:
        return self.lhs.cost

    @property
    def rhs_cost(self) -> Any:
        return self.rhs.cost


@dataclass(frozen=True)
class TraceMismatch:
    """A failing step or failing telescoped total along a trace."""

    step: int  # -1 marks the final telescoping comparison
    kind: str  # "observable" | "stop" | "telescope"
    detail: str


Counterexample = Union[SquareCheck, TraceMismatch]


@dataclass(frozen=True)
class Report:
    case_name: str
    mode: Mode
    states_explored: int
    squares_checked: int
    failures: int
    counterexamples: Tuple[Counterexample, ...]
    wall_time: float
    slack_max: Optional[Any] = None

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
    verdict, lhs_cost, rhs_cost, _successors, lhs_beh, rhs_beh = square
    lhs = Charged(lhs_cost, Continue(*lhs_beh) if type(lhs_beh) is tuple else lhs_beh)
    rhs = Charged(rhs_cost, Continue(*rhs_beh) if type(rhs_beh) is tuple else rhs_beh)
    ser = tuple(case.impl.state_domain.serialize(s) for s in inputs)
    return SquareCheck(method, tuple(inputs), arg, lhs, rhs, verdict, ser, arg_literal(arg))


def _square_for(case: VerificationCase):
    """The one square engine, `_square`, with the case's constants bound."""
    monoid = case.monoid
    combine, identity, leq = monoid.combine, monoid.identity, monoid.leq
    phi, exact = case.phi.phi, case.phi.mode is Mode.EXACT
    randomized = case.randomized

    def _square(impl, spec, inputs, arg, phi_cost, phi_values):
        """Check the square at `inputs`, whose Φ image is (`phi_cost`, `phi_values`).

        `impl` and `spec` are the method on each side. Returns (verdict,
        lhs cost, rhs cost, impl successors, lhs behaviour, rhs behaviour)
        and builds no sides: `_mk_check` does, for reported squares only.
        A deterministic behaviour is `STOP` or (observable, states), the
        impl's states taken through Φ (summed from the identity, left to
        right, after the impl's cost); a randomized one is a `Dist` on both
        sides, the spec's law as the spec returned it.
        """
        sig = impl.sig
        spec_res = spec.run(phi_values, arg)
        lhs_cost = combine(phi_cost, spec_res.cost)
        impl_res = impl.run(inputs, arg)
        if randomized:
            lhs_beh = _law(sig, spec_res.value)
            for _w, out in lhs_beh.branches:
                guard_outcome(sig, out)
            rhs_cost, rhs_outs, successors = impl_res.cost, [], []
            for w, out in _law(sig, impl_res.value).branches:
                guard_outcome(sig, out)
                if out is not STOP:
                    mapped_cost, mapped = sum_images(monoid, map(phi, out.states))
                    rhs_cost = combine(rhs_cost, mapped_cost if w == 1 else w * mapped_cost)
                    successors.extend(out.states)
                    out = Continue(out.obs, mapped)
                rhs_outs.append((w, out))
            rhs_beh = Dist(rhs_outs)
        else:
            spec_out = spec_res.value
            guard_outcome(sig, spec_out)
            lhs_beh = spec_out if spec_out is STOP else (spec_out.obs, spec_out.states)
            out = impl_res.value
            guard_outcome(sig, out)
            if out is STOP:
                rhs_cost, rhs_beh, successors = impl_res.cost, STOP, ()
            else:
                successors = out.states
                if len(successors) == 1:
                    ch = phi(successors[0])
                    mapped_cost, mapped = combine(identity, ch.cost), (ch.value,)
                else:
                    mapped_cost, mapped = sum_images(monoid, map(phi, successors))
                rhs_cost = combine(impl_res.cost, mapped_cost)
                rhs_beh = (out.obs, mapped)

        if lhs_beh != rhs_beh:
            verdict = Verdict.BEHAVIOR_MISMATCH
        elif lhs_cost == rhs_cost if exact else leq(rhs_cost, lhs_cost):
            verdict = Verdict.PASS
        else:
            verdict = Verdict.COST_MISMATCH
        return verdict, lhs_cost, rhs_cost, successors, lhs_beh, rhs_beh

    return _square


def check_square(
    case: VerificationCase, method: str, inputs: Sequence[Any], arg: Any = UNIT
) -> SquareCheck:
    """Check the generalized amortization square at one input tuple.

    Randomized cases are checked on expected costs and canonical outcome
    distributions.
    """
    impl = case.impl.method(method)
    sig = impl.sig
    inputs = tuple(inputs)
    if len(inputs) != sig.in_arity:
        raise ArityMismatch(
            f"{method} takes {sig.in_arity} input state(s), got {len(inputs)}"
        )
    spec = case.spec.method(method)
    phi_cost, phi_values = sum_images(case.monoid, map(case.phi.phi, inputs))
    square = _square_for(case)(impl, spec, inputs, arg, phi_cost, phi_values)
    return _mk_check(case, method, inputs, arg, square)


def _tuples_with_max(entries, i: int, k: int, monoid) -> Iterator[tuple]:
    """(inputs, Φ cost, Φ spec states) of each k-tuple over entries[:i + 1] containing i.

    `entries` holds (state, Φ cost, Φ spec state) per state. Tuples come in
    ``product(range(i + 1), repeat=k)`` order, each a shared (k-1)-prefix,
    built once, plus one component; costs fold as `sum_images` does.
    """
    combine, head, last = monoid.combine, entries[: i + 1], entries[i]
    prefixes = [((), monoid.identity, (), False)]  # + whether index i occurs
    for _ in range(k - 1):
        prefixes = [
            (inputs + (s,), combine(cost, c), values + (v,), has or j == i)
            for inputs, cost, values, has in prefixes
            for j, (s, c, v) in enumerate(head)
        ]
    for inputs, cost, values, has in prefixes:
        for s, c, v in head if has else (last,):
            yield inputs + (s,), combine(cost, c), values + (v,)


def explore(
    case: VerificationCase,
    max_depth: Optional[int] = None,
    max_states: Optional[int] = None,
    limit: int = 10,
) -> Report:
    """Breadth-first exploration from the seeds, checking every square.

    For every reached input tuple (all ordered in_arity-sized combinations
    of reached states, generated once each), every method and every
    argument in its domain, the amortization square is checked by the
    case's one square engine (`_square_for`), built once per call. Φ runs
    once on each state as it is expanded and once per successor. For k >= 2
    inputs each expanded state keeps a (state, Φ cost, Φ spec state) entry
    and `_tuples_with_max` extends shared prefixes of them; unary-only
    cases keep none. Once a state's squares are checked, its successors
    are admitted in order by the rule the seeds pass too: `explore_filter`,
    dedup by typed value (`state_key`: ``1`` and ``True`` stay distinct),
    the state cap and the state invariant, none past the depth limit. Once
    the cap refuses an unseen state no more successors are collected (a
    cap merely reached stops nothing). Sides and state text are built only
    for the first `limit` failures, the counterexamples kept.
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
    numeric = monoid.numeric
    keep = case.explore_filter
    invariant = case.impl.state_invariant
    square = _square_for(case)

    states: List[Any] = []
    depths: List[int] = []
    seen = set()
    squares = failures = 0
    counterexamples: List[SquareCheck] = []
    slack_max: Optional[Any] = None
    methods = [(m, case.spec.method(m.sig.name), m.sig) for m in case.impl.methods]
    phi, combine, identity = case.phi.phi, monoid.combine, monoid.identity
    entries = [] if any(sig.in_arity > 1 for _, _, sig in methods) else None
    full = False  # the cap has refused an unseen state: nothing more gets in

    # Candidates wait in `batch` for the one admission rule: first the
    # seeds, then the successors of each state, once its squares are done.
    batch, depth = case.impl.seeds, 0
    i = 0
    while True:
        for s in batch:
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
        can_expand = not full and depth <= max_depth
        batch = []
        image = phi(states[i])
        if entries is not None:
            entries.append((states[i], image.cost, image.value))
        unary = (((states[i],), combine(identity, image.cost), (image.value,)),)
        for impl, spec, sig in methods:
            k = sig.in_arity
            # Every ordered k-tuple over reached states, generated once:
            # exactly those whose newest component is state i.
            tuples = unary if k == 1 else _tuples_with_max(entries, i, k, monoid)
            for inputs, phi_cost, phi_values in tuples:
                for arg in sig.arg_domain:
                    result = square(impl, spec, inputs, arg, phi_cost, phi_values)
                    verdict, lhs_cost, rhs_cost, successors, _, _ = result
                    squares += 1
                    if numeric:
                        gap = lhs_cost - rhs_cost
                        if slack_max is None or gap > slack_max:
                            slack_max = gap
                    if verdict is not Verdict.PASS:
                        failures += 1
                        if len(counterexamples) < limit:
                            counterexamples.append(
                                _mk_check(case, sig.name, inputs, arg, result)
                            )
                    if can_expand:
                        batch += successors
        i += 1

    counterexamples.sort(key=lambda c: (c.method, c.inputs_serialized, c.arg_literal))
    return Report(
        case_name=case.name,
        mode=case.phi.mode,
        states_explored=len(states),
        squares_checked=squares,
        failures=failures,
        counterexamples=tuple(counterexamples),
        wall_time=time.perf_counter() - t0,
        slack_max=slack_max,
    )


def _law(sig, value) -> Dist:
    """A randomized transition's outcome law: a `Dist`, else `ArityMismatch`."""
    if type(value) is Dist:
        return value
    raise ArityMismatch(f"{sig.name} returned {type(value).__name__} in a randomized case")


def _point(case, sig, dist):
    """The one outcome of a randomized trace step's `Dist`."""
    if not _law(sig, dist).is_point():
        raise UnsupportedArity(
            f"{case.name}: trace checking needs point outcome "
            f"distributions, {sig.name} branches"
        )
    return dist.branches[0][1]


def check_trace(case: VerificationCase, trace: Trace) -> Report:
    """Verify the telescoped amortization identity along one trace.

    The implementation runs from the chosen seed; the specification runs
    from the seed's image under the potential. Per-step observables must
    agree, Stop must happen on both sides together, and the totals must
    satisfy  potential(start) + spec total  vs  impl total + potential(end)
    under the case's mode (the final potential term vanishes if the trace
    ends in Stop). Steps get the same shape guard as squares: Stop only
    from a ``may_stop`` method, else exactly one successor state. The
    trace's `seed_index` must index the case's seeds (else `ValueError`).
    """
    seeds = case.impl.seeds
    if not 0 <= trace.seed_index < len(seeds):
        raise ValueError(f"{case.name}: seed_index must lie in range({len(seeds)})")
    t0 = time.perf_counter()
    mode = case.phi.mode
    monoid = case.monoid
    combine, randomized = monoid.combine, case.randomized

    seed = seeds[trace.seed_index]
    phi0 = case.phi.phi(seed)
    impl_state = seed
    spec_state = phi0.value

    total_impl = monoid.identity
    total_spec = monoid.identity
    steps_run = 0
    stopped = False
    mismatches: List[TraceMismatch] = []
    methods = {
        m.sig.name: (m.run, case.spec.method(m.sig.name).run, m.sig, m.sig.sequential)
        for m in case.impl.methods
    }

    for step_no, (method, arg) in enumerate(trace.steps):
        try:
            impl_run, spec_run, sig, sequential = methods[method]
        except KeyError:
            raise UnknownMethod(method) from None
        if not sequential:
            raise UnsupportedArity(
                f"{method} is {sig.in_arity}-in/{sig.out_arity}-out; "
                "traces cover sequential methods only"
            )
        res = impl_run((impl_state,), arg)
        impl_cost, impl_out = res.cost, res.value
        if randomized:
            impl_out = _point(case, sig, impl_out)
        guard_outcome(sig, impl_out)
        res = spec_run((spec_state,), arg)
        spec_cost, spec_out = res.cost, res.value
        if randomized:
            spec_out = _point(case, sig, spec_out)
        guard_outcome(sig, spec_out)
        total_impl = combine(total_impl, impl_cost)
        total_spec = combine(total_spec, spec_cost)
        steps_run += 1

        impl_stop = impl_out is STOP
        spec_stop = spec_out is STOP
        if impl_stop != spec_stop:
            side = "impl" if impl_stop else "spec"
            mismatches.append(
                TraceMismatch(step_no, "stop", f"{method}: only {side} stopped")
            )
            break
        if impl_stop:
            stopped = True
            break
        if impl_out.obs != spec_out.obs:
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
        lhs = monoid.combine(phi0.cost, total_spec)
        if stopped:
            rhs = total_impl
        else:
            rhs = monoid.combine(total_impl, case.phi.phi(impl_state).cost)
        if not (lhs == rhs if mode is Mode.EXACT else monoid.leq(rhs, lhs)):
            rel = "=" if mode is Mode.EXACT else ">="
            mismatches.append(
                TraceMismatch(
                    -1,
                    "telescope",
                    f"wanted lhs {rel} rhs, got lhs={lhs!r} rhs={rhs!r}",
                )
            )
        if monoid.numeric:
            slack = lhs - rhs

    return Report(
        case_name=case.name,
        mode=mode,
        states_explored=steps_run + 1,
        squares_checked=steps_run,
        failures=len(mismatches),
        counterexamples=tuple(mismatches),
        wall_time=time.perf_counter() - t0,
        slack_max=slack,
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


def arg_literal(arg: Any) -> str:
    """The documented textual encoding of a method argument."""
    if arg == UNIT and isinstance(arg, tuple):
        return "()"
    if isinstance(arg, bool):
        raise TypeError("boolean arguments have no trace encoding")
    if isinstance(arg, int):
        return str(arg)
    if isinstance(arg, str):
        return '"' + arg.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(arg, NamedFn):
        return arg.name
    raise TypeError(f"argument {arg!r} has no trace encoding")


def parse_arg(sig: MethodSig, token: str, line: int, column: int) -> Any:
    for candidate in sig.arg_domain:
        if arg_literal(candidate) == token:
            return candidate
    raise TraceParseError(
        line, column, f"argument {token!r} is not in the domain of {sig.name}"
    )


def parse_trace(case: VerificationCase, text: str) -> Trace:
    """Parse the plain-text trace format.

    One record per line: ``method_name argument_literal``. Lines starting
    with ``#`` and blank lines are ignored. Argument literals are integers,
    double-quoted strings, ``()`` for unit, or the name of a function in
    the method's domain. The trace runs from the case's first seed.
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
        if not rest:
            raise TraceParseError(
                line_no, column + len(name), f"missing argument for {name!r}"
            )
        arg_col = raw.index(rest[0], column + len(name) - 1) + 1
        steps.append((name, parse_arg(table[name], rest, line_no, arg_col)))
    return Trace(tuple(steps))
