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

from .charged import Charged, Dist, expect, tensor
from .coalgebra import (
    STOP,
    UNIT,
    Continue,
    Mode,
    VerificationCase,
    arg_literal,
    guard_outcome,
)
from .encoding import state_key, typed_eq
from .errors import (
    ArityMismatch,
    BadWeights,
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
    behaviour); its costs add with their own `+`, and colax mode compares
    them by ``rhs <= lhs``. It returns (squares, slack, last square or
    None), `slack` extending the (min, max) of lhs − rhs cost passed in; it
    stays (None, None) unless the monoid is ordered. The outcomes pick each square's
    law. When neither side's value is a `Dist`, a behaviour is `STOP` or
    (observable, states), the impl's states taken through Φ by `tensor`
    (one image folded inline as `tensor` folds it) after the impl's cost.
    An outcome of type exactly `Continue` with ``out_arity`` states passes
    with no call, any other goes to `guard_outcome` (the one shape rule),
    and the spec outcome last passed in a call (a shared constant) is not
    checked again. When either is, a side that is not a `Dist` is its point
    law, and the rhs is the impl cost plus `expect` of the impl branches
    through Φ (`tensor`'s cost and a `Continue` of its values, or the
    identity and `STOP`). A cost no weight can scale (``trace``, in a point
    law too) raises `expect`'s `BadWeights`, the method's name in front.

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
    identity = monoid.identity
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
            lhs_cost = phi_cost + spec_res.cost
            impl_res = impl_run(inputs, arg)
            spec_out, out = spec_res.value, impl_res.value
            if type(out) is Dist or type(spec_out) is Dist:
                spec_outs = spec_out.branches if type(spec_out) is Dist else ((1, spec_out),)
                for _w, branch in spec_outs:
                    guard_outcome(sig, branch)
                lhs_beh = spec_out if type(spec_out) is Dist else Dist(spec_outs)
                last_out = unset  # lhs_beh is this square's law now
                branches = []  # each impl branch through Φ
                for w, out in out.branches if type(out) is Dist else ((1, out),):
                    guard_outcome(sig, out)
                    if out is STOP:
                        branches.append((w, Charged(identity, STOP)))
                    else:
                        ch = tensor(monoid, *map(image, out.states))
                        branches.append((w, Charged(ch.cost, Continue(out.obs, ch.value))))
                        if batch is not None:
                            batch += out.states
                try:
                    law = expect(branches)
                except BadWeights as err:
                    raise BadWeights(f"{sig.name}: {err}") from None
                rhs_cost, rhs_beh = impl_res.cost + law.cost, law.value
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
                        ch = tensor(monoid, *map(image, successors))
                        mapped_cost, mapped = ch.cost, ch.value
                    else:  # one image, `lookup` inlined: no frame per square
                        s = successors[0]
                        if table is None:
                            ch = phi(s)
                        else:  # an exact int or str is its own `state_key`; a Charged is truthy
                            t = type(s)
                            ch = table.get(s if t is int or t is str else state_key(s)) or lookup(s)
                        mapped_cost, mapped = identity + ch.cost, (ch.value,)
                    rhs_cost = impl_res.cost + mapped_cost
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
            elif lhs_cost == rhs_cost if exact else rhs_cost <= lhs_cost:
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
    ch = tensor(case.monoid, *map(image, inputs))
    tuples = ((inputs, ch.cost, ch.value),)
    square = engine(impl, spec, tuples, (arg,), None, (None, None))[2]
    return _mk_check(case, method, inputs, arg, square)


def _tuples_with_max(entries, i: int, k: int, monoid) -> Iterator[tuple]:
    """(inputs, Φ cost, Φ spec states) of each k-tuple over entries[:i + 1] containing i.

    `entries` holds ((state,), Φ cost, (Φ spec state,)) per state, and
    tuples join those kept 1-tuples, in ``product(range(i + 1), repeat=k)``
    order, each a shared (k-1)-prefix, built once, plus one component; costs
    fold inline as `tensor` folds them, from the identity in slot order.
    """
    head, last = entries[: i + 1], entries[i]
    prefixes = [((), monoid.identity, (), False)]  # + whether index i occurs
    for _ in range(k - 1):
        prefixes = [
            (inputs + s, cost + c, values + v, has or j == i)
            for inputs, cost, values, has in prefixes
            for j, (s, c, v) in enumerate(head)
        ]
    for inputs, cost, values, has in prefixes:
        for s, c, v in head if has else (last,):
            yield inputs + s, cost + c, values + v


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
    a tuple's Φ cost folds its images from the identity once, inline as
    `tensor` folds them (a 1-tuple's too). Φ runs once on each state as it
    is expanded and once per successor, or, with a k-input method (k >= 2),
    once per distinct typed state. The engine collects a state's successors
    into one batch, admitted in order once its squares are checked, by the
    rule the seeds pass too: `explore_filter`, dedup by typed value
    (`state_key`: ``1`` and ``True`` stay distinct), the state cap and the
    state invariant. None is collected past the depth limit or once the cap
    has refused an unseen state (a cap merely reached stops nothing). Sides
    and state text are built only for the first `limit` failures the engine
    calls back, the counterexamples kept. A case whose filter admits no seed
    checks nothing, so it is refused (`ValueError` naming the case).

    An admitted tuple state that is its own `state_key` (exact strs, ints
    and such tuples) is stored with each part replaced by the equal part
    stored first, so an equal part (a deque's side) is one object across
    the reached states; where parts never recur, the table of parts costs
    about 27 bytes per state. Transitions, Φ and counterexamples receive
    that typed-identical copy, which a pure transition cannot tell from the
    state it built. A state holding any other value (a bool, a namedtuple,
    a `Fraction`) is stored as built, and the filter and invariant see
    every state as built.
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
    seen = set()
    share = {}.setdefault  # share(v, v): the first stored part equal to v
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
    entries = [] if any(sig.in_arity > 1 for _, _, sig in methods) else None
    full = False  # the cap has refused an unseen state: nothing more gets in

    # Candidates wait in `batch` for the one admission rule: first the
    # seeds, then the successors of each state, once its squares are done.
    # Breadth-first admission keeps depths sorted, so state i is the
    # deepest component of every tuple it closes, and states[level:] are
    # one level deeper than state i, at `depth`, the candidates' depth.
    batch, depth, level = case.impl.seeds, 0, 0
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
            if key is s and type(s) is tuple:  # plain: its parts are stored once each
                key = s = tuple(map(share, s, s))
            seen.add(key)
            states.append(s)
        if i == len(states):
            break
        if i == level:  # state i opens the next level
            level, depth = len(states), depth + 1
        batch = [] if not full and depth <= max_depth else None
        ch = image(states[i])
        if entries is not None:
            entries.append(((states[i],), ch.cost, (ch.value,)))
        unary = (((states[i],), monoid.identity + ch.cost, (ch.value,)),)
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

    Each step passes the door before it runs, the steps after a Stop or a
    failing observable too: its method through `Coalgebra.step_method`, its
    argument through `MethodSig.admits`. A refused step raises after the
    steps before it ran.
    """
    seeds = case.impl.seeds
    if not 0 <= trace.seed_index < len(seeds):
        raise ValueError(f"{case.name}: seed_index must lie in range({len(seeds)})")
    t0 = time.perf_counter()
    mode, monoid = case.phi.mode, case.monoid

    impl_state = seeds[trace.seed_index]
    phi0 = case.phi.phi(impl_state)
    spec_state = phi0.value

    total_impl = total_spec = monoid.identity
    ran, live = -1, True  # the last step that ran; a Stop or a mismatch ends the run
    mismatches: List[TraceMismatch] = []
    methods = {}

    for step_no, (method, arg) in enumerate(trace.steps):
        step = methods.get(method)
        if step is None:  # a name's first step passes the door
            m = case.impl.step_method(method)
            step = methods[method] = (m.run, case.spec.method(method).run, m.sig, m.sig.members)
        impl_run, spec_run, sig, members = step
        try:
            if members.get(arg) is not arg:
                sig.admits(arg)
        except TypeError:  # unhashable: `admits` refuses it
            sig.admits(arg)
        if not live:  # the run has ended: the step only passes the door
            continue
        ran = step_no
        res = impl_run((impl_state,), arg)
        impl_cost, impl_out = res.cost, res.value
        if type(impl_out) is not Continue or len(impl_out.states) != 1:
            impl_out = guard_outcome(sig, impl_out)
        res = spec_run((spec_state,), arg)
        spec_cost, spec_out = res.cost, res.value
        if type(spec_out) is not Continue or len(spec_out.states) != 1:
            spec_out = guard_outcome(sig, spec_out)
        total_impl = total_impl + impl_cost
        total_spec = total_spec + spec_cost

        if impl_out is STOP or spec_out is STOP:
            if impl_out is not spec_out:
                side = "impl" if impl_out is STOP else "spec"
                mismatches.append(
                    TraceMismatch(step_no, "stop", f"{method}: only {side} stopped")
                )
            impl_state, live = STOP, False
            continue
        if impl_out.obs is not spec_out.obs and not typed_eq(impl_out.obs, spec_out.obs):
            mismatches.append(
                TraceMismatch(
                    step_no,
                    "observable",
                    f"{method}: impl observed {impl_out.obs!r}, "
                    f"spec observed {spec_out.obs!r}",
                )
            )
            live = False
            continue
        impl_state = impl_out.states[0]
        spec_state = spec_out.states[0]

    slack = None
    if not mismatches:
        lhs = phi0.cost + total_spec
        end = monoid.identity if impl_state is STOP else case.phi.phi(impl_state).cost
        rhs = total_impl + end
        if not (lhs == rhs if mode is Mode.EXACT else rhs <= lhs):
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
        states_explored=ran + 2,
        squares_checked=ran + 1,
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
    argument a report prints reads back. Each line's method passes
    `Coalgebra.step_method`; a name it refuses (unknown, or not 1-in/1-out)
    and a literal outside the table raise `TraceParseError` at their line
    and column. The trace runs from the case's first seed.
    """
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name = stripped.split(None, 1)[0]
        column = raw.index(name) + 1
        try:
            literals = case.impl.step_method(name).sig.literals
        except UnknownMethod:
            raise TraceParseError(line_no, column, f"unknown method {name!r}") from None
        except UnsupportedArity as err:
            raise TraceParseError(line_no, column, str(err)) from None
        rest = stripped[len(name):].strip()
        if rest not in literals:
            problem = f"argument {rest!r} is not in the domain of" if rest else "missing argument for"
            arg_col = len(raw.rstrip()) - len(rest) + 1
            raise TraceParseError(line_no, arg_col, f"{problem} {name!r}")
        steps.append((name, literals[rest]))
    return Trace(tuple(steps))
