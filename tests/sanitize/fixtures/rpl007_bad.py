"""RNG draws under iteration whose order the caller does not control.

Two shapes: a direct loop over a set literal, and a call site passing a
set to a function that draws per element.

``tests/sanitize/test_rule_runtime_pin.py`` calls ``fold_weights`` with
two different element orders. The per-element ``uniform(0, len(tag))``
draws scale by the element, so the fingerprints diverge at the first
position where the orders disagree.
"""


def fold_weights(tags, rng):
    """One order-sensitive draw per element of ``tags``."""
    total = 0.0
    for tag in tags:
        total += rng.uniform(0.0, float(len(tag)))
    return total


def collect(rng):
    labels = {"alpha", "beta", "gamma", "delta"}
    out = []
    for label in labels:
        out.append(rng.uniform(0.0, float(len(label))))
    return out


def run(rng):
    return fold_weights({"n1", "n22", "n333"}, rng)
