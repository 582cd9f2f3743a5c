"""Each consumer derives its own substream, so call order does not matter."""

from repro.utils.rng import derive_rng


def scalar_losses(master_seed, n):
    rng = derive_rng(master_seed, "losses", "scalar")
    return [rng.random() for _ in range(n)]


def buffered_losses(master_seed, n):
    rng = derive_rng(master_seed, "losses", "buffered")
    return rng.random(n)
