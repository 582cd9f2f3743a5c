"""One module-level RNG stream shared by two consumers.

Whichever consumer runs first takes the values the other would have
drawn, so swapping their call order changes what each one sees.
``tests/sanitize/test_rule_runtime_pin.py`` imports this module fresh
under two sanitize contexts, calls the consumers in opposite orders and
checks that the differ names the first divergent draw.
"""

from repro.utils.rng import derive_rng

SHARED_RNG = derive_rng(1234, "fixture", "shared")


def scalar_losses(n):
    """The event-path spelling: one scalar draw per packet."""
    return [SHARED_RNG.random() for _ in range(n)]


def buffered_losses(n):
    """The array-path spelling: one batched draw."""
    return SHARED_RNG.random(n)
