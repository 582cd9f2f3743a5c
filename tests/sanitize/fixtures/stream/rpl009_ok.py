"""The drop is counted, so accounting balances."""


def decode_cost(record, rng):
    if record is None:
        raise ValueError("corrupt record")
    return rng.uniform(0.0, float(len(record)))


def drain(records, rng, stats):
    total = 0.0
    for record in records:
        try:
            total += decode_cost(record, rng)
        except ValueError:
            stats["dropped"] = stats.get("dropped", 0) + 1
    return total
