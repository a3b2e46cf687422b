"""Stable CLI names for the shipped verification cases."""

from typing import Callable, Dict, List

from .coalgebra import VerificationCase
from . import compose, structures

Factory = Callable[[], VerificationCase]

# The cases `all` checks, in listing order.
CASES: Dict[str, Factory] = {
    "allocator": structures.allocator_case,
    "varying": structures.varying_cost_case,
    "dynarray": lambda: structures.dynamic_array_case(False),
    "dynarray-update": lambda: structures.dynamic_array_case(True),
    "stack": structures.stack_case,
    "queue-lax": lambda: structures.batched_queue_case(1),
    "queue-exact": lambda: structures.batched_queue_case(2),
    "deque": structures.deque_case,
    "buffer": structures.buffer_case,
    "rand-alloc": structures.randomized_allocator_case,
    "piggy": structures.piggy_bank_case,
    "alloc16-via-8": compose.alloc16_via_8_case,
    "counter-via-stack": compose.counter_via_stack_case,
    "queue-via-stacks": compose.queue_via_stacks_case,
}

# Negative controls: expected to fail, so `all` skips them.
CONTROLS: Dict[str, Factory] = {
    "allocator-broken": structures.broken_allocator_case,
    "typed-observable": structures.typed_observable_case,
    "typed-state": structures.typed_state_case,
}

REGISTRY: Dict[str, Factory] = {**CASES, **CONTROLS}


def get_case(name: str) -> VerificationCase:
    return REGISTRY[name]()


def registered_names(include_negative: bool = True) -> List[str]:
    return list(REGISTRY if include_negative else CASES)
