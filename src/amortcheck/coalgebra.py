"""Signatures, coalgebras and potential morphisms.

A data structure is modeled as a coalgebra: a state set plus one transition
function per method. Methods have a fixed number of input state slots and
output state slots, an argument domain, an observable, and may terminate
(`Stop`). A specification is just another coalgebra over the same signature
table; a potential morphism maps each implementation state to a charged
specification state, carrying the stored potential in its cost component.

Multi-slot methods make sense only over commutative cost monoids, because
the potentials of parallel states must be summed order-independently.
"""

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from .charged import Charged
from .cost import CostMonoid
from .encoding import encode
from .errors import (
    ArityMismatch,
    NonCommutativeTensor,
    OrderUnavailable,
    UnknownMethod,
)

#: The trivial argument/observable value, rendered ``()`` in trace files.
UNIT = ()

#: Argument domain of methods taking no meaningful argument.
UNIT_DOMAIN = (UNIT,)


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


@dataclass(frozen=True)
class MethodSig:
    """Shape of one method: slot arities, argument domain, termination."""

    name: str
    in_arity: int = 1
    out_arity: int = 1
    arg_domain: Tuple[Any, ...] = UNIT_DOMAIN
    may_stop: bool = False

    def __post_init__(self):
        if self.in_arity < 1:
            raise ArityMismatch(f"{self.name}: in_arity must be positive")
        if self.out_arity < 0:
            raise ArityMismatch(f"{self.name}: out_arity must be non-negative")

    @property
    def multi_slot(self) -> bool:
        return self.in_arity >= 2 or self.out_arity >= 2

    @property
    def sequential(self) -> bool:
        return self.in_arity == 1 and self.out_arity == 1


class Stop:
    """Terminal outcome: the method refuses on this input (no successors)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Stop"

    def __encode_parts__(self) -> tuple:
        return ("stop",)


STOP = Stop()


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


def guard_outcome(sig: MethodSig, outcome: Outcome) -> None:
    """Transitions must honor their declared shape (else `ArityMismatch`):
    `STOP` or a `Continue`, so a `Dist` outside a randomized case is refused."""
    try:
        if outcome is STOP:
            if not sig.may_stop:
                raise ArityMismatch(f"{sig.name} returned Stop but is not may_stop")
        elif len(outcome.states) != sig.out_arity:
            raise ArityMismatch(
                f"{sig.name} produced {len(outcome.states)} successor state(s), "
                f"declared out_arity is {sig.out_arity}"
            )
    except AttributeError:
        kind = type(outcome).__name__
        raise ArityMismatch(f"{sig.name} returned {kind}, not Stop or Continue") from None


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
    `Charged` outcome; in randomized mode its cost is the expected cost and
    its value a `Dist` of outcomes (see `charged.expect`). Transitions must
    be pure: equal inputs give equal charged outcomes.
    """

    sig: MethodSig
    run: Callable[[Tuple[Any, ...], Any], Any]


@dataclass(frozen=True)
class Coalgebra:
    state_domain: StateDomain
    seeds: Tuple[Any, ...]
    methods: Tuple[Method, ...]
    state_invariant: Optional[Callable[[Any], bool]] = None

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("a coalgebra needs at least one seed state")
        names = [m.sig.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate method names: {names}")
        object.__setattr__(self, "_by_name", {m.sig.name: m for m in self.methods})

    def method(self, name: str) -> Method:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownMethod(name) from None

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


def sum_images(monoid: CostMonoid, images: Iterable[Charged]) -> Tuple[Any, Tuple[Any, ...]]:
    """The one Φ fold: sum images in slot order, costs from the identity.

    Returns (cost, spec states). Images of several slots are summed only in
    cases whose monoid is commutative, which `VerificationCase` enforces.
    """
    combine, total, values = monoid.combine, monoid.identity, []
    for ch in images:
        total = combine(total, ch.cost)
        values.append(ch.value)
    return total, tuple(values)


@dataclass(frozen=True)
class VerificationCase:
    """Everything the checker needs: impl, spec, potential and bounds.

    `max_depth`/`max_states` bound exploration when no explicit bounds are
    given; a case states its own only where the default would not bind.
    `explore_filter`, when present, restricts the explored state space:
    successors falling outside it are not admitted to the frontier.
    """

    name: str
    monoid: CostMonoid
    impl: Coalgebra
    spec: Coalgebra
    phi: PotentialMorphism
    randomized: bool = False
    max_depth: int = 12
    max_states: int = 5000
    explore_filter: Optional[Callable[[Any], bool]] = None

    def __post_init__(self):
        impl_table = self.impl.sig_table
        spec_table = self.spec.sig_table
        if impl_table != spec_table:
            raise ValueError(
                f"{self.name}: impl and spec disagree on the signature table "
                f"({sorted(impl_table)} vs {sorted(spec_table)})"
            )
        for sig in impl_table.values():
            if sig.multi_slot and not self.monoid.is_commutative:
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
