"""Stable CLI names for the shipped verification cases."""

from dataclasses import dataclass
from typing import Callable, Dict, List

from .coalgebra import VerificationCase
from . import compose, structures


@dataclass(frozen=True)
class CaseEntry:
    name: str
    factory: Callable[[], VerificationCase]
    negative: bool = False  # expected to fail; excluded from `all`


_ENTRIES = [
    CaseEntry("allocator", structures.allocator_case),
    CaseEntry("varying", structures.varying_cost_case),
    CaseEntry("dynarray", lambda: structures.dynamic_array_case(False)),
    CaseEntry("dynarray-update", lambda: structures.dynamic_array_case(True)),
    CaseEntry("stack", structures.stack_case),
    CaseEntry("queue-lax", lambda: structures.batched_queue_case(1)),
    CaseEntry("queue-exact", lambda: structures.batched_queue_case(2)),
    CaseEntry("deque", structures.deque_case),
    CaseEntry("buffer", structures.buffer_case),
    CaseEntry("rand-alloc", structures.randomized_allocator_case),
    CaseEntry("piggy", structures.piggy_bank_case),
    CaseEntry("alloc16-via-8", compose.alloc16_via_8_case),
    CaseEntry("counter-via-stack", compose.counter_via_stack_case),
    CaseEntry("queue-via-stacks", compose.queue_via_stacks_case),
    CaseEntry("allocator-broken", structures.broken_allocator_case, negative=True),
    CaseEntry("typed-observable", structures.typed_observable_case, negative=True),
    CaseEntry("typed-state", structures.typed_state_case, negative=True),
]

REGISTRY: Dict[str, CaseEntry] = {e.name: e for e in _ENTRIES}


def get_case(name: str) -> VerificationCase:
    return REGISTRY[name].factory()


def registered_names(include_negative: bool = True) -> List[str]:
    return [e.name for e in _ENTRIES if include_negative or not e.negative]
