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

from .charged import Charged, Dist, ExpectedCharged
from .coalgebra import (
    STOP,
    UNIT,
    Continue,
    MethodSig,
    Mode,
    NamedFn,
    VerificationCase,
    apply_phi_tuple,
)
from .encoding import encode, state_key
from .errors import (
    ArityMismatch,
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
    """Result of one amortization-square check, fully reproducible."""

    method: str
    inputs: Tuple[Any, ...]
    arg: Any
    lhs: Union[Charged, ExpectedCharged]
    rhs: Union[Charged, ExpectedCharged]
    verdict: Verdict
    inputs_serialized: Tuple[str, ...]
    arg_literal: str

    @property
    def lhs_cost(self) -> Any:
        return _cost_of(self.lhs)

    @property
    def rhs_cost(self) -> Any:
        return _cost_of(self.rhs)


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
    passed: bool
    failures: int
    counterexamples: Tuple[Counterexample, ...]
    wall_time: float
    slack_max: Optional[Any] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class Trace:
    """An operation sequence: (method name, argument) steps from a seed."""

    steps: Tuple[Tuple[str, Any], ...]
    seed_index: int = 0


def _cost_of(result: Union[Charged, ExpectedCharged]) -> Any:
    if isinstance(result, ExpectedCharged):
        return result.expected_cost
    return result.cost


def _cost_ok(case: VerificationCase, mode: Mode, lhs_cost: Any, rhs_cost: Any) -> bool:
    if mode is Mode.EXACT:
        return lhs_cost == rhs_cost
    return case.monoid.leq(rhs_cost, lhs_cost)


def _mk_check(case, method, inputs, arg, lhs, rhs, verdict) -> SquareCheck:
    ser = tuple(case.impl.state_domain.serialize(s) for s in inputs)
    return SquareCheck(method, tuple(inputs), arg, lhs, rhs, verdict, ser, arg_literal(arg))


def _guard_outcome(sig: MethodSig, outcome: Any) -> None:
    """Transitions must honor their declared shape."""
    if outcome is STOP:
        if not sig.may_stop:
            raise ArityMismatch(f"{sig.name} returned Stop but is not may_stop")
    elif len(outcome.states) != sig.out_arity:
        raise ArityMismatch(
            f"{sig.name} produced {len(outcome.states)} successor state(s), "
            f"declared out_arity is {sig.out_arity}"
        )


def _outcomes(case, result):
    """A transition result as (cost, weighted outcomes).

    A deterministic result is the point distribution on its outcome; a
    randomized one contributes its expected cost and its branches.
    """
    if case.randomized:
        return result.expected_cost, result.dist.branches
    return result.cost, ((1, result.value),)


def _square(case, sig, inputs, arg, phi_in):
    """Build lhs/rhs of the square at `inputs`, whose image under Φ is `phi_in`.

    Returns (verdict, lhs, rhs, impl successors); no state text is built.
    """
    monoid = case.monoid
    spec_res = case.spec.method(sig.name).run(phi_in.value, arg)
    spec_cost, spec_outs = _outcomes(case, spec_res)
    for _w, out in spec_outs:
        _guard_outcome(sig, out)
    lhs_cost = monoid.combine(phi_in.cost, spec_cost)

    impl_res = case.impl.method(sig.name).run(inputs, arg)
    rhs_cost, impl_outs = _outcomes(case, impl_res)
    rhs_outs = []
    successors: List[Any] = []
    for w, out in impl_outs:
        _guard_outcome(sig, out)
        if out is STOP:
            rhs_outs.append((w, STOP))
            continue
        mapped = apply_phi_tuple(monoid, case.phi, out.states)
        rhs_cost = monoid.combine(rhs_cost, mapped.cost if w == 1 else w * mapped.cost)
        rhs_outs.append((w, Continue(out.obs, mapped.value)))
        successors.extend(out.states)

    if case.randomized:
        lhs = ExpectedCharged(lhs_cost, Dist(spec_outs))
        rhs = ExpectedCharged(rhs_cost, Dist.from_branches(rhs_outs))
        behave_ok = lhs.dist == rhs.dist
    else:
        lhs = Charged(lhs_cost, spec_outs[0][1])
        rhs = Charged(rhs_cost, rhs_outs[0][1])
        behave_ok = lhs.value == rhs.value or encode(lhs.value) == encode(rhs.value)
    if not behave_ok:
        verdict = Verdict.BEHAVIOR_MISMATCH
    elif _cost_ok(case, case.phi.mode, lhs_cost, rhs_cost):
        verdict = Verdict.PASS
    else:
        verdict = Verdict.COST_MISMATCH
    return verdict, lhs, rhs, successors


def check_square(
    case: VerificationCase, method: str, inputs: Sequence[Any], arg: Any = UNIT
) -> SquareCheck:
    """Check the generalized amortization square at one input tuple.

    Randomized cases are checked on expected costs and canonical outcome
    distributions.
    """
    sig = case.sig(method)
    inputs = tuple(inputs)
    if len(inputs) != sig.in_arity:
        raise ArityMismatch(
            f"{method} takes {sig.in_arity} input state(s), got {len(inputs)}"
        )
    phi_in = apply_phi_tuple(case.monoid, case.phi, inputs)
    verdict, lhs, rhs, _ = _square(case, sig, inputs, arg, phi_in)
    return _mk_check(case, method, inputs, arg, lhs, rhs, verdict)


def _slack(monoid, lhs, rhs) -> Optional[Any]:
    if not monoid.numeric:
        return None
    return _cost_of(lhs) - _cost_of(rhs)


def _tuples_with_max(i: int, k: int) -> Iterator[Tuple[int, ...]]:
    """The k-tuples over range(i + 1) whose largest entry is i.

    Yields them in lexicographic order: the order of
    ``product(range(i + 1), repeat=k)`` restricted to those tuples.
    """
    if k == 1:
        yield (i,)
        return
    for head in range(i):
        for rest in _tuples_with_max(i, k - 1):
            yield (head,) + rest
    for rest in product(range(i + 1), repeat=k - 1):
        yield (i,) + rest


def explore(
    case: VerificationCase,
    max_depth: Optional[int] = None,
    max_states: Optional[int] = None,
    limit: int = 10,
) -> Report:
    """Breadth-first exploration from the seeds, checking every square.

    For every reached input tuple (all ordered in_arity-sized combinations
    of reached states, generated once each), every method and every
    argument in its domain, the amortization square is checked. Continue
    successors join the frontier, deduplicated by typed value identity
    (`state_key`: equal values of different types, such as ``1`` and
    ``True``, stay distinct), until the depth or state limits are hit; the
    case's `explore_filter` keeps out-of-scope successors from being
    admitted at all. State text is built only for kept counterexamples.
    """
    if max_depth is None:
        max_depth = case.max_depth
    if max_states is None:
        max_states = case.max_states
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if max_states < len(case.impl.seeds):
        raise ValueError("max_states must cover at least the seeds")

    t0 = time.perf_counter()
    monoid = case.monoid
    keep = case.explore_filter
    invariant = case.impl.state_invariant

    states: List[Any] = []
    depths: List[int] = []
    seen = set()

    def admit(s: Any, depth: int) -> None:
        if keep is not None and not keep(s):
            return
        key = state_key(s)
        if key in seen or len(states) >= max_states:
            return
        if invariant is not None and not invariant(s):
            raise StateInvariantViolation(
                f"{case.name}: state {case.impl.state_domain.serialize(s)} "
                f"at depth {depth} breaks the invariant"
            )
        seen.add(key)
        states.append(s)
        depths.append(depth)

    for seed in case.impl.seeds:
        admit(seed, 0)

    squares = 0
    failures = 0
    counterexamples: List[SquareCheck] = []
    slack_max: Optional[Any] = None

    i = 0
    while i < len(states):
        # Breadth-first admission keeps depths sorted, so state i is the
        # deepest component of every tuple it closes.
        succ_depth = depths[i] + 1
        can_expand = succ_depth <= max_depth
        phi_one = None  # Φ of (state i,), shared by every unary square
        for m in case.impl.methods:
            sig = m.sig
            k = sig.in_arity
            if k == 1 and phi_one is None:
                phi_one = apply_phi_tuple(monoid, case.phi, (states[i],))
            # Every ordered k-tuple over reached states, generated once:
            # exactly those whose newest component is state i.
            for idx_tuple in _tuples_with_max(i, k):
                inputs = tuple(states[j] for j in idx_tuple)
                phi_in = phi_one if k == 1 else apply_phi_tuple(monoid, case.phi, inputs)
                for arg in sig.arg_domain:
                    verdict, lhs, rhs, successors = _square(case, sig, inputs, arg, phi_in)
                    squares += 1
                    gap = _slack(monoid, lhs, rhs)
                    if gap is not None and (slack_max is None or gap > slack_max):
                        slack_max = gap
                    if verdict is not Verdict.PASS:
                        failures += 1
                        if len(counterexamples) < limit:
                            counterexamples.append(
                                _mk_check(case, sig.name, inputs, arg, lhs, rhs, verdict)
                            )
                    if can_expand:
                        for s in successors:
                            admit(s, succ_depth)
        i += 1

    counterexamples.sort(key=lambda c: (c.method, c.inputs_serialized, c.arg_literal))
    return Report(
        case_name=case.name,
        mode=case.phi.mode,
        states_explored=len(states),
        squares_checked=squares,
        passed=failures == 0,
        failures=failures,
        counterexamples=tuple(counterexamples),
        wall_time=time.perf_counter() - t0,
        slack_max=slack_max,
    )


def _step_point(case, coalg, method, state, arg):
    """Run one 1-in/1-out step, unwrapping the randomized point outcome."""
    res = coalg.method(method).run((state,), arg)
    if case.randomized:
        if not res.dist.is_point():
            raise UnsupportedArity(
                f"{case.name}: trace checking needs point outcome "
                f"distributions, {method} branches"
            )
        return res.expected_cost, res.dist.branches[0][1]
    return res.cost, res.value


def check_trace(case: VerificationCase, trace: Trace) -> Report:
    """Verify the telescoped amortization identity along one trace.

    The implementation runs from the chosen seed; the specification runs
    from the seed's image under the potential. Per-step observables must
    agree, Stop must happen on both sides together, and the totals must
    satisfy  potential(start) + spec total  vs  impl total + potential(end)
    under the case's mode (the final potential term vanishes if the trace
    ends in Stop).
    """
    t0 = time.perf_counter()
    mode = case.phi.mode
    monoid = case.monoid

    seed = case.impl.seeds[trace.seed_index]
    phi0_cost = case.phi.cost_of(seed)
    impl_state = seed
    spec_state = case.phi.beh_of(seed)

    total_impl = monoid.identity
    total_spec = monoid.identity
    steps_run = 0
    stopped = False
    mismatches: List[TraceMismatch] = []

    for step_no, (method, arg) in enumerate(trace.steps):
        sig = case.sig(method)
        if not sig.sequential:
            raise UnsupportedArity(
                f"{method} is {sig.in_arity}-in/{sig.out_arity}-out; "
                "traces cover sequential methods only"
            )
        impl_cost, impl_out = _step_point(case, case.impl, method, impl_state, arg)
        spec_cost, spec_out = _step_point(case, case.spec, method, spec_state, arg)
        total_impl = monoid.combine(total_impl, impl_cost)
        total_spec = monoid.combine(total_spec, spec_cost)
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
        if impl_out.obs != spec_out.obs and encode(impl_out.obs) != encode(spec_out.obs):
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
        lhs = monoid.combine(phi0_cost, total_spec)
        if stopped:
            rhs = total_impl
        else:
            rhs = monoid.combine(total_impl, case.phi.cost_of(impl_state))
        if not _cost_ok(case, mode, lhs, rhs):
            rel = "=" if mode is Mode.EXACT else ">="
            mismatches.append(
                TraceMismatch(
                    -1,
                    "telescope",
                    f"wanted lhs {rel} rhs, got lhs={lhs!r} rhs={rhs!r}",
                )
            )
        if case.monoid.numeric:
            slack = lhs - rhs

    return Report(
        case_name=case.name,
        mode=mode,
        states_explored=steps_run + 1,
        squares_checked=steps_run,
        passed=not mismatches,
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


def parse_trace(case: VerificationCase, text: str, seed_index: int = 0) -> Trace:
    """Parse the plain-text trace format.

    One record per line: ``method_name argument_literal``. Lines starting
    with ``#`` and blank lines are ignored. Argument literals are integers,
    double-quoted strings, ``()`` for unit, or the name of a function in
    the method's domain.
    """
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name = stripped.split(None, 1)[0]
        column = raw.index(name) + 1
        table = case.impl.sig_table
        if name not in table:
            raise TraceParseError(line_no, column, f"unknown method {name!r}")
        rest = stripped[len(name):].strip()
        if not rest:
            raise TraceParseError(
                line_no, column + len(name), f"missing argument for {name!r}"
            )
        arg_col = raw.index(rest[0], column + len(name) - 1) + 1
        steps.append((name, parse_arg(table[name], rest, line_no, arg_col)))
    return Trace(tuple(steps), seed_index=seed_index)
