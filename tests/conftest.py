import sys

import pytest

# Bytecode left under src/ would be loaded by every later benchmark pass,
# which then reads a lower set-up time and peak RSS than a clean checkout.
sys.dont_write_bytecode = True

from amortcheck import explore, get_case


@pytest.fixture(scope="session")
def explored():
    """Explore registered cases at their documented bounds, memoized."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = explore(get_case(name))
        return cache[name]

    return run
