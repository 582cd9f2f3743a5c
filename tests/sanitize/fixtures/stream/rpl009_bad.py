"""A handler that swallows bad records without counting them.

``tests/sanitize/test_rule_runtime_pin.py`` drains the same batch with
and without one corrupt record. The swallowed record silently shifts
every later draw, nothing counts the drop, and only the sanitizer's
fingerprint diff names where the evidence disappeared.
"""


def decode_cost(record, rng):
    if record is None:
        raise ValueError("corrupt record")
    return rng.uniform(0.0, float(len(record)))


def drain(records, rng):
    total = 0.0
    for record in records:
        try:
            total += decode_cost(record, rng)
        except ValueError:
            continue
    return total
