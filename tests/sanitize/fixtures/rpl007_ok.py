"""``sorted(...)`` fixes the iteration order before any draw."""


def fold_weights(tags, rng):
    total = 0.0
    for tag in sorted(tags):
        total += rng.uniform(0.0, float(len(tag)))
    return total


def collect(rng):
    labels = {"alpha", "beta", "gamma", "delta"}
    out = []
    for label in sorted(labels):
        out.append(rng.uniform(0.0, float(len(label))))
    return out


def run(rng):
    return fold_weights({"n1", "n22", "n333"}, rng)
