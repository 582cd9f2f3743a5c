"""Runtime RNG/ordering sanitizer — the dynamic half of reprolint.

The static rules (RPL001–RPL005) flag per-file code *shapes* that can
break determinism; this package observes the *run* itself, and so pins
the defect classes no single file shows (a stream shared by two
consumers, draws under unordered iteration, durability effects out of
order — DESIGN.md §13). With a sanitizer active, every seeded RNG
stream is wrapped in a recording proxy at creation, the simulator logs
its event-queue pop order, and the streaming sink logs its durability
effects. The resulting
:class:`~repro.sanitize.fingerprint.Fingerprint` is a complete,
bit-exact trace of everything that must match between two runs that
claim to be identical — and when they are not,
:func:`~repro.sanitize.differ.diff_fingerprints` names the first
divergent draw as a ``file:line`` call site with its stream name and
draw index.

Activation:

* ``REPRO_SANITIZE=1`` in the environment traces a whole process (the
  CLI writes the fingerprint to ``REPRO_SANITIZE_OUT`` if set);
* :func:`sanitize_run` scopes tracing to a ``with`` block in tests.

Off is the default and costs nothing per draw: instrumented code checks
one module global at stream-creation/effect time and hands out raw
numpy Generators when it is ``None``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.sanitize import hooks
from repro.sanitize.differ import Divergence, diff_fingerprints, verify_effect_protocol
from repro.sanitize.fingerprint import DrawRecord, EffectRecord, Fingerprint
from repro.sanitize.tracer import Sanitizer, TracedGenerator, value_bits

__all__ = [
    "Sanitizer",
    "TracedGenerator",
    "Fingerprint",
    "DrawRecord",
    "EffectRecord",
    "Divergence",
    "diff_fingerprints",
    "verify_effect_protocol",
    "value_bits",
    "sanitize_run",
    "hooks",
]


@contextmanager
def sanitize_run(label: str = "run") -> Iterator[Sanitizer]:
    """Trace everything inside the block under a fresh :class:`Sanitizer`.

    Restores the previously active sanitizer (usually none) on exit, so
    nested/sequential contexts compose::

        with sanitize_run("event") as san_a:
            run_scenario(engine="event")
        with sanitize_run("array") as san_b:
            run_scenario(engine="array")
        assert diff_fingerprints(san_a.fingerprint(), san_b.fingerprint()) == []
    """
    sanitizer = Sanitizer(label=label)
    previous = hooks.activate(sanitizer)
    try:
        yield sanitizer
    finally:
        if previous is None:
            hooks.deactivate()
        else:
            hooks.activate(previous)
