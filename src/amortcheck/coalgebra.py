"""Signatures, coalgebras and potential morphisms.

A data structure is modeled as a coalgebra: a state set plus one transition
function per method. Methods have a fixed number of input state slots and
output state slots, an argument domain, an observable, and may terminate
(`Stop`). A specification is just another coalgebra over the same signature
table; a potential morphism maps each implementation state to a charged
specification state, carrying the stored potential in its cost component.

Multi-slot methods make sense only over commutative cost monoids, because
the potentials of parallel states are combined by `charged.tensor`, which
has no order to add them in.
"""

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, Optional, Tuple

from .charged import Charged, Dist
from .cost import CostMonoid
from .encoding import encode, quote, typed_eq
from .errors import (
    ArityMismatch,
    NonCommutativeTensor,
    OrderUnavailable,
    UnknownMethod,
    UnsupportedArity,
)

#: The trivial argument/observable value, rendered ``()`` in trace files.
UNIT = ()


@dataclass(frozen=True)
class NamedFn:
    """A function argument with a stable name.

    Function-valued argument domains (the update-all method) must be finite
    and serializable; naming the members gives them a textual encoding and
    an equality that survives reconstruction.
    """

    name: str
    fn: Callable[[Any], Any] = field(compare=False, repr=False)

    def __call__(self, x: Any) -> Any:
        return self.fn(x)

    def __repr__(self) -> str:
        return self.name


def arg_literal(arg: Any) -> str:
    """The trace-file literal of a method argument: ``()`` for unit,
    ``true``/``false``, an integer, a double-quoted string or a `NamedFn`'s
    name. This is the one encoder; `MethodSig` keeps its inverse. Any other
    argument raises `TypeError`, which `MethodSig` turns into
    `ArityMismatch` when the domain is declared."""
    if arg == UNIT and isinstance(arg, tuple):
        return "()"
    if isinstance(arg, bool):
        return "true" if arg else "false"
    if isinstance(arg, int):
        return str(arg)
    if isinstance(arg, str):
        return quote(arg)
    if isinstance(arg, NamedFn):
        return arg.name
    raise TypeError(f"argument {arg!r} has no trace literal")


@dataclass(frozen=True)
class MethodSig:
    """Shape of one method: slot arities, argument domain, termination.

    A name a trace line cannot hold (empty, with whitespace or starting
    with ``#``) raises `ArityMismatch`. The domain must be non-empty, and
    `literals` maps each member's trace literal (`arg_literal`) back to it.
    A member with no literal, two members with one literal (duplicates
    included) and a literal a trace file cannot read back (empty, spanning
    lines, or with leading or trailing whitespace) raise `ArityMismatch`
    naming the member(s). `members` maps each member to itself, for
    `admits`.
    """

    name: str
    in_arity: int = 1
    out_arity: int = 1
    arg_domain: Tuple[Any, ...] = (UNIT,)
    may_stop: bool = False
    literals: Dict[str, Any] = field(init=False, repr=False, compare=False)
    members: Dict[Any, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = self.name
        if not name or name.startswith("#") or any(c.isspace() for c in name):
            raise ArityMismatch(f"method name {name!r} cannot be named in a trace")
        if self.in_arity < 1:
            raise ArityMismatch(f"{self.name}: in_arity must be positive")
        if self.out_arity < 0:
            raise ArityMismatch(f"{self.name}: out_arity must be non-negative")
        if not self.arg_domain:
            raise ArityMismatch(f"{self.name}: arg_domain must not be empty")
        literals = {}
        for arg in self.arg_domain:
            try:
                lit = arg_literal(arg)
            except TypeError as err:
                raise ArityMismatch(f"{self.name}: {err}") from None
            if lit in literals:
                twin = literals[lit]
                raise ArityMismatch(
                    f"{self.name}: {type(twin).__name__} {twin!r} and "
                    f"{type(arg).__name__} {arg!r} share literal {lit}"
                )
            if len(lit.splitlines()) != 1 or lit != lit.strip():
                kind = type(arg).__name__
                raise ArityMismatch(f"{self.name}: {kind} literal {lit!r} does not read back")
            literals[lit] = arg
        object.__setattr__(self, "literals", literals)
        object.__setattr__(self, "members", {arg: arg for arg in self.arg_domain})

    def admits(self, arg: Any) -> None:
        """The door rule for arguments: pass if `arg` is in the domain by
        typed identity (``True`` is not ``1``), else raise `ArityMismatch`.
        A member object passes in one lookup and one ``is``; anything else
        is scanned with `typed_eq` (an unhashable value matches nothing)."""
        try:
            if self.members.get(arg) is arg or any(typed_eq(m, arg) for m in self.arg_domain):
                return
        except TypeError:  # unhashable
            pass
        raise ArityMismatch(f"{self.name}: argument {arg!r} is not in its domain")

    @property
    def sequential(self) -> bool:
        return self.in_arity == 1 and self.out_arity == 1


class Stop(Enum):
    """Terminal outcome: the method refuses on this input (no successors)."""

    STOP = "stop"

    def __repr__(self) -> str:
        return "Stop"

    __str__ = __repr__

    def __encode_parts__(self) -> tuple:
        return ("stop",)


STOP = Stop.STOP


@dataclass(frozen=True, slots=True, init=False)
class Continue:
    """Productive outcome: an observable plus the successor state slots.

    `init=False` for the reason `Charged` gives.
    """

    obs: Any
    states: Tuple[Any, ...]

    def __init__(self, obs: Any, states: Tuple[Any, ...]):
        _set_obs(self, obs)
        _set_states(self, states)

    def __encode_parts__(self) -> tuple:
        return ("cont", self.obs, self.states)


_set_obs, _set_states = Continue.obs.__set__, Continue.states.__set__


Outcome = Any  # Stop | Continue


def guard_outcome(sig: MethodSig, outcome: Outcome) -> Outcome:
    """The one outcome a step stands for, checked against its method's
    shape (else `ArityMismatch` naming the method): `STOP` from a
    ``may_stop`` method, a `Continue` with ``out_arity`` states, or a point
    law, which stands for its outcome. A law that branches is refused; the
    square engine guards a law's branches one by one."""
    try:
        if outcome is STOP:
            if not sig.may_stop:
                raise ArityMismatch(f"{sig.name} returned Stop but is not may_stop")
        elif len(outcome.states) != sig.out_arity:
            raise ArityMismatch(
                f"{sig.name} produced {len(outcome.states)} successor state(s), "
                f"declared out_arity is {sig.out_arity}"
            )
        return outcome
    except AttributeError:
        if type(outcome) is not Dist:
            kind = type(outcome).__name__
            raise ArityMismatch(f"{sig.name} returned {kind}, not Stop or Continue") from None
    n = len(outcome.branches)
    if n != 1:
        raise ArityMismatch(f"{sig.name} returned a law of {n} outcomes, not one")
    return guard_outcome(sig, outcome.branches[0][1])


@dataclass(frozen=True)
class StateDomain:
    """Carrier description: naming plus deterministic serialization.

    `serialize` is for reports only (counterexample inputs and invariant
    errors); it plays no part in which states count as the same.
    Exploration identifies states by typed value (`encoding.state_key`).
    """

    name: str
    serialize: Callable[[Any], str] = encode


@dataclass(frozen=True)
class Method:
    """A signature together with its transition function.

    The transition takes (input state tuple, argument) and returns a
    `Charged` outcome, built directly: ``charge(cost, Continue(obs, succs))``
    with one successor per output slot, or ``charge(cost, STOP)``. A
    randomized transition's cost is the expected cost and its value a
    `Dist` of outcomes (see `charged.expect`); a deterministic one is the
    point law of its outcome. Transitions must be pure: equal inputs give
    equal charged outcomes. Outcomes are immutable, so a transition whose
    outcome does not depend on its inputs may return one shared object.
    """

    sig: MethodSig
    run: Callable[[Tuple[Any, ...], Any], Any]


@dataclass(frozen=True)
class Coalgebra:
    """A carrier, its seed states and one `Method` per distinct name.

    With no seed or no method it has no square, so it is refused
    (`ValueError`). `method` resolves any method by name; `step_method` is
    the one door for a step that threads one state (traces, pairs,
    translations, substrate calls).
    """

    state_domain: StateDomain
    seeds: Tuple[Any, ...]
    methods: Tuple[Method, ...]
    state_invariant: Optional[Callable[[Any], bool]] = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("a coalgebra needs at least one seed state")
        if not self.methods:
            raise ValueError("a coalgebra needs at least one method")
        names = [m.sig.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate method names: {names}")
        object.__setattr__(self, "_by_name", {m.sig.name: m for m in self.methods})

    def method(self, name: str) -> Method:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownMethod(name) from None

    def step_method(self, name: str) -> Method:
        """The door rule for methods of a one-state step (trace steps,
        pairs, translations, substrate calls): `UnknownMethod` for a missing
        name, `UnsupportedArity` (``split is 1-in/2-out, not 1-in/1-out``)
        for a method that is not 1-in/1-out."""
        m = self.method(name)
        if not m.sig.sequential:
            arity = f"{m.sig.in_arity}-in/{m.sig.out_arity}-out"
            raise UnsupportedArity(f"{name} is {arity}, not 1-in/1-out")
        return m

    @property
    def sig_table(self) -> Dict[str, MethodSig]:
        return {m.sig.name: m.sig for m in self.methods}


class Mode(Enum):
    """Exact: the amortization square commutes on the nose.
    Colax: spec-side cost may exceed impl-side cost (amortized upper bound).
    """

    EXACT = "exact"
    COLAX = "colax"


@dataclass(frozen=True)
class PotentialMorphism:
    """Per-state map to (potential cost, specification state)."""

    phi: Callable[[Any], Charged]
    mode: Mode = Mode.EXACT


@dataclass(frozen=True)
class VerificationCase:
    """Everything the checker needs: impl, spec, potential and bounds.

    `max_depth`/`max_states` bound exploration when no explicit bounds are
    given; a case states its own only where the default would not bind.
    `explore_filter`, when present, restricts the explored state space:
    seeds and successors falling outside it are not admitted, and `explore`
    refuses a case whose filter admits no seed (`ValueError`).
    """

    name: str
    monoid: CostMonoid
    impl: Coalgebra
    spec: Coalgebra
    phi: PotentialMorphism
    max_depth: int = 12
    max_states: int = 5000
    explore_filter: Optional[Callable[[Any], bool]] = None

    def __post_init__(self):
        # A domain compares by typed literal too: ``(1,) == (True,)``.
        impl_sigs, spec_sigs = (
            {m.sig.name: (m.sig, tuple(m.sig.literals)) for m in side.methods}
            for side in (self.impl, self.spec)
        )
        for name in sorted(impl_sigs.keys() | spec_sigs.keys()):
            if impl_sigs.get(name) != spec_sigs.get(name):
                raise ValueError(f"{self.name}: impl and spec disagree on the signature of {name}")
        for sig in self.impl.sig_table.values():
            if max(sig.in_arity, sig.out_arity) > 1 and not self.monoid.is_commutative:
                raise NonCommutativeTensor(
                    f"{self.name}: method {sig.name} has multiple state slots "
                    f"but monoid {self.monoid.name} is not commutative"
                )
        if self.phi.mode is Mode.COLAX and not self.monoid.ordered:
            raise OrderUnavailable(
                f"{self.name}: colax mode needs an ordered cost monoid"
            )

    def with_mode(self, mode: Mode) -> "VerificationCase":
        """Same case with the potential checked under a different mode."""
        if mode is self.phi.mode:
            return self
        return replace(self, phi=replace(self.phi, mode=mode))
