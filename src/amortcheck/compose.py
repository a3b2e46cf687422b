"""Composing amortization arguments.

Three constructions:

* `compose_phi` chains two potential morphisms end to end, so a doubly
  amortized implementation verifies against the outermost specification.
* `pair_cases` runs two structures side by side over a shared commutative
  cost model; the paired potential adds the component potentials.
* `translate` implements one interface by deterministic programs
  (`ProgramMethod`s) over another: each target method makes finitely many
  calls into a substrate coalgebra, threading its state and accumulating
  exactly the substrate's costs, so the result is just another coalgebra.
  Translating over a base case's specification isolates the translation's
  own potential; translating over its implementation and composing the
  potentials, `compose_phi(base.phi, phi)`, checks the whole
  pipeline.

A substrate call that Stops (e.g. popping an empty stack) is treated as an
unproductive observation: the program sees `STOP`, the substrate state
is unchanged, and the Stop's cost (zero in every structure here) still
accumulates. Programs need this to probe emptiness and keep going.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable, Tuple

from .charged import Charged, bind, charge, tensor
from .coalgebra import (
    STOP,
    UNIT,
    Coalgebra,
    Continue,
    Method,
    MethodSig,
    Mode,
    PotentialMorphism,
    StateDomain,
    VerificationCase,
    guard_outcome,
)
from .cost import CostMonoid, NAT_COST
from .errors import NonCommutativeTensor, StepBudgetExceeded
from .structures import (
    ALPHABET,
    allocator_case,
    cyclic_allocator,
    list_spec,
    pop_front,
    push_back,
    stack_case,
)


def _join(*modes: Mode) -> Mode:
    """The mode of a potential built from parts in `modes`."""
    return Mode.COLAX if Mode.COLAX in modes else Mode.EXACT


def compose_phi(first: PotentialMorphism, second: PotentialMorphism) -> PotentialMorphism:
    """Sequential composition: `bind` `first`'s image through `second`.

    Costs add left to right. The composite is colax as soon as either
    component is; `VerificationCase` refuses it over an unordered monoid.
    """
    mode = _join(first.mode, second.mode)
    return PotentialMorphism(lambda s: bind(first.phi(s), second.phi), mode)


def _lift_method(method: Method, side: int) -> Method:
    """`method` acting on component `side` (0 or 1) of a pair state, named
    ``left.<name>`` or ``right.<name>`` by that side; a Stop ends the pair."""
    sig = replace(method.sig, name=f"{('left', 'right')[side]}.{method.sig.name}")

    def run(states, arg):
        (pair,) = states
        res = method.run((pair[side],), arg)
        out = guard_outcome(method.sig, res.value)
        if out is not STOP:
            succ = (out.states[0], pair[1]) if side == 0 else (pair[0], out.states[0])
            out = Continue(out.obs, (succ,))
        return Charged(res.cost, out)

    return Method(sig, run)


def _both(left, right):
    """The pair predicate that holds when each component's holds (a missing
    one always holds); None when neither component has one."""
    if left is None and right is None:
        return None
    left, right = left or (lambda s: True), right or (lambda s: True)
    return lambda pair: left(pair[0]) and right(pair[1])


def _pair_coalgebra(left: Coalgebra, right: Coalgebra) -> Coalgebra:
    methods = tuple(
        _lift_method(part.step_method(m.sig.name), side)
        for side, part in enumerate((left, right))
        for m in part.methods
    )
    invariant = _both(left.state_invariant, right.state_invariant)
    seeds = tuple((a, b) for a in left.seeds for b in right.seeds)
    name = f"pair({left.state_domain.name},{right.state_domain.name})"
    return Coalgebra(StateDomain(name), seeds, methods, invariant)


def pair_cases(left: VerificationCase, right: VerificationCase) -> VerificationCase:
    """Run two cases side by side; the paired Φ is `tensor` of the parts' images.

    Methods are tagged ``left.<name>`` / ``right.<name>`` and act on their
    component only. Every method must pass `Coalgebra.step_method`'s door
    (else `UnsupportedArity`): an untouched component would otherwise be
    counted more than once in the potential sum, which is exactly what the
    tensor of potentials must not do. Each component's state invariant and
    explore filter apply to its side. A point law is lifted as its one
    outcome (`guard_outcome`), at its expected cost; a law that branches
    raises `ArityMismatch`.

    A pair square is its component's square with the other potential on
    both sides, but a component's Stop ends the pair, so at a Stop it is
    on the left side only: an exact pair of passing components fails
    exactly at the Stop squares beside a nonzero potential.
    """
    if left.monoid != right.monoid:
        raise ValueError("paired cases must share one cost model")
    if not left.monoid.is_commutative:
        raise NonCommutativeTensor("pairing needs a commutative cost monoid")
    monoid = left.monoid
    lphi, rphi = left.phi, right.phi

    def phi(pair):
        return tensor(monoid, lphi.phi(pair[0]), rphi.phi(pair[1]))

    return VerificationCase(
        name=f"pair({left.name},{right.name})",
        monoid=monoid,
        impl=_pair_coalgebra(left.impl, right.impl),
        spec=_pair_coalgebra(left.spec, right.spec),
        phi=PotentialMorphism(phi, _join(lphi.mode, rphi.mode)),
        max_depth=min(left.max_depth, right.max_depth),
        max_states=min(VerificationCase.max_states, left.max_states * right.max_states),
        explore_filter=_both(left.explore_filter, right.explore_filter),
    )


#: Substrate calls one translated method may make before it is cut off.
STEP_BUDGET = 10_000


class SubstrateRun:
    """One translated-method execution over a substrate coalgebra.

    Threads the substrate state through `call`s and adds their costs, from
    the monoid's identity, so the run's cost is exactly the substrate's.
    """

    def __init__(self, coalg: Coalgebra, monoid: CostMonoid, state: Any):
        self._coalg = coalg
        self.state = state
        self.cost = monoid.identity
        self.calls = 0

    def call(self, method: str, arg: Any = UNIT) -> Any:
        """Run a substrate method; its observable, or `STOP`. A point law
        is its outcome (`guard_outcome`), at its expected cost.

        The call passes the door first: `Coalgebra.step_method` refuses a
        method that is unknown or not 1-in/1-out, and `MethodSig.admits` an
        argument outside its domain (`ArityMismatch`)."""
        if self.calls >= STEP_BUDGET:
            raise StepBudgetExceeded(
                f"translation program exceeded {STEP_BUDGET} substrate calls"
            )
        m = self._coalg.step_method(method)
        m.sig.admits(arg)
        res = m.run((self.state,), arg)
        out = guard_outcome(m.sig, res.value)
        self.cost = self.cost + res.cost
        self.calls += 1
        if out is STOP:
            return STOP
        self.state = out.states[0]
        return out.obs


@dataclass(frozen=True)
class ProgramMethod:
    """A target method implemented as a program over the source interface."""

    sig: MethodSig
    program: Callable[[SubstrateRun, Any], Any]  # returns obs, or STOP


def translate(
    substrate: Coalgebra, monoid: CostMonoid, programs: Tuple[ProgramMethod, ...]
) -> Coalgebra:
    """The coalgebra that runs `programs` over `substrate`, costed in `monoid`.

    It is the substrate with the programs for methods, so its domain, seeds
    and invariant are the substrate's (no program: refused). Programs call
    the substrate by method name through a `SubstrateRun` (`UnknownMethod`
    for a name it lacks) and cost exactly those calls. Each program threads
    one substrate state, so its signature must pass `Coalgebra.step_method`'s
    door (else `UnsupportedArity`).
    """

    def make_runner(pm: ProgramMethod):
        def run(states, arg):
            (state,) = states
            sub = SubstrateRun(substrate, monoid, state)
            obs = pm.program(sub, arg)
            out = STOP if obs is STOP else Continue(obs, (sub.state,))
            return Charged(sub.cost, out)

        return run

    coalg = replace(substrate, methods=tuple(Method(pm.sig, make_runner(pm)) for pm in programs))
    for pm in programs:
        coalg.step_method(pm.sig.name)
    return coalg


# ---------------------------------------------------------------------------
# Concrete composed cases.


def alloc16_to_8_phi() -> PotentialMorphism:
    """The morphism from the 16-burst allocator onto the 8-burst one.

    Behavior folds the 16-cycle onto the 8-cycle; the potential pays the
    8-burst forward during the first half of each 16-cycle.
    """
    return PotentialMorphism(lambda d: Charged(8 if d < 8 else 0, d % 8))


def alloc16_to_8_case() -> VerificationCase:
    """Intermediate stage: 16-burst allocator against the 8-burst one."""
    return VerificationCase(
        name="alloc16-to-8",
        monoid=NAT_COST,
        impl=cyclic_allocator(16),
        spec=cyclic_allocator(8),
        phi=alloc16_to_8_phi(),
    )


def alloc16_via_8_case() -> VerificationCase:
    """16-burst allocator against the unit-cost spec, by composing stages.

    The first stage with the spec of the second, `allocator_case`, and the
    composed potential, which works out to 15 - d.
    """
    stage1, stage2 = alloc16_to_8_case(), allocator_case()
    phi = compose_phi(stage1.phi, stage2.phi)
    return replace(stage1, name="alloc16-via-8", spec=stage2.spec, phi=phi)


def counter_via_stack_case() -> VerificationCase:
    """A counter implemented by pushing/popping a sentinel on a stack.

    The substrate is the stack specification, so increments cost 3 and
    decrements cost 2 (or refuse when empty), exactly like the target
    counter spec; the potential is pure behavior (the stack's length).
    """
    base = stack_case()

    def increment(sub: SubstrateRun, arg):
        sub.call("push", ALPHABET[0])
        return UNIT

    def decrement(sub: SubstrateRun, arg):
        got = sub.call("pop")
        return STOP if got is STOP else UNIT

    inc_sig, dec_sig = MethodSig("increment"), MethodSig("decrement", may_stop=True)
    programs = (ProgramMethod(inc_sig, increment), ProgramMethod(dec_sig, decrement))

    def spec_increment(states, arg):
        (n,) = states
        return charge(3, Continue(UNIT, (n + 1,)))

    def spec_decrement(states, arg):
        (n,) = states
        if n == 0:
            return charge(0, STOP)
        return charge(2, Continue(UNIT, (n - 1,)))

    spec_methods = (Method(inc_sig, spec_increment), Method(dec_sig, spec_decrement))
    return VerificationCase(
        name="counter-via-stack",
        monoid=base.monoid,
        impl=translate(base.spec, base.monoid, programs),
        spec=Coalgebra(StateDomain("nat"), (0,), spec_methods),
        phi=PotentialMorphism(lambda l: Charged(0, len(l))),
        max_depth=8,
    )


def queue_via_stacks_case(over: str = "spec") -> VerificationCase:
    """A queue as programs over a pair of stacks (inbox left, outbox right).

    ``over="spec"`` translates over the stacks' specification and checks the
    translation's own potential against the derived queue costs;
    ``over="impl"`` translates over the array-backed stacks and checks the
    composed potential laxly. Any other `over` is refused (`ValueError`).
    """
    if over not in ("spec", "impl"):
        raise ValueError("over must be 'spec' or 'impl'")
    base = pair_cases(stack_case(), stack_case())
    enq_sig = MethodSig("enqueue", arg_domain=ALPHABET)
    deq_sig = MethodSig("dequeue", may_stop=True)

    def enqueue(sub: SubstrateRun, e):
        sub.call("left.push", e)
        return UNIT

    def dequeue(sub: SubstrateRun, arg):
        got = sub.call("right.pop")
        if got is not STOP:
            return got
        while True:
            moved = sub.call("left.pop")
            if moved is STOP:
                break
            sub.call("right.push", moved)
        return sub.call("right.pop")

    programs = (ProgramMethod(enq_sig, enqueue), ProgramMethod(deq_sig, dequeue))
    # A flush moves each element at pop(2)+push(3)=5, so the potential is
    # 5 per inbox element, and an enqueue costs its push (3) plus the
    # potential increase (5).
    target_spec = list_spec(Method(enq_sig, push_back(8)), Method(deq_sig, pop_front(2)))

    def phi(pair):
        inbox, outbox = pair
        return Charged(5 * len(inbox), outbox + inbox[::-1])

    own = PotentialMorphism(phi)
    return VerificationCase(
        name="queue-via-stacks" if over == "spec" else "queue-via-stacks-full",
        monoid=NAT_COST,
        impl=translate(getattr(base, over), NAT_COST, programs),
        spec=target_spec,
        phi=own if over == "spec" else compose_phi(base.phi, own),
        max_depth=6 if over == "spec" else 5,
    )
