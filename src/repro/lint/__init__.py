"""reprolint: static enforcement of the repo's determinism contract.

The parallel execution engine made bit-determinism a hard contract:
``--jobs N`` output is byte-identical to ``--jobs 1``. Golden traces
catch a violation only *after* a flaky diff has landed; this package
catches the usual causes at lint time, before a single simulation runs.

Rules (see DESIGN.md §"Static guarantees" for the full rationale):

* **RPL001** — global or unseeded RNG use (``random.*`` module state,
  ``np.random.*`` legacy global state, zero-argument ``default_rng()``).
  Randomness must be threaded in as a ``numpy.random.Generator``
  parameter (see :mod:`repro.utils.rng`).
* **RPL002** — wall-clock/entropy sources (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid4``, ...) inside the
  simulation paths (``core/``, ``net/``, ``workloads/``, ``exec/``,
  ``stream/``). Simulated time is ``sim.now``; host time must never
  leak into it.
* **RPL003** — lambdas / closures / locally-defined functions handed to
  scenario registries, approach factories, or anything else that
  crosses the :class:`repro.exec.ParallelRunner` process boundary.
  Such callables do not pickle.
* **RPL004** — unordered ``set``/``frozenset`` contents materialised
  into an ordered sequence without ``sorted(...)``, which makes any
  downstream hashing or trace output order-dependent.
* **RPL005** — mutable default arguments, and mutable defaults on
  (frozen) dataclass fields: shared mutable state breaks both
  replicate independence and hashability.

Every rule is per-file and syntactic. Defect classes a single file
cannot show (one RNG stream shared by two consumers, draws under
unordered iteration, WAL/manifest effect order, swallowed evidence,
atomic-write order) are pinned at runtime instead: by the sanitizer
(:mod:`repro.sanitize`, ``REPRO_SANITIZE=1``) and by the stream tests
(DESIGN.md §13).

A finding is reported on one line, and a pragma on that line
suppresses it::

    t = time.monotonic()  # reprolint: disable=RPL002

(a bare ``disable`` suppresses every rule on the line; a pragma that is
neither form suppresses nothing).

Run as ``python -m repro.lint src benchmarks examples`` (``--format
json`` for machine-readable output); exit status is 0 when clean, 1 when
any violation is reported, 2 on usage or parse errors. ``tests/`` is
held to zero findings outside its rule fixtures by
``tests/lint/test_self_check.py``.
"""

from __future__ import annotations

from repro.lint.engine import (
    LintError,
    Violation,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.rules import ALL_RULES, RULE_DOCS

__all__ = [
    "ALL_RULES",
    "RULE_DOCS",
    "LintError",
    "Violation",
    "lint_file",
    "lint_paths",
    "lint_source",
]
