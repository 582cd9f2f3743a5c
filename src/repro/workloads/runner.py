"""Comparison runner: several measurement approaches on one shared run.

All approaches under comparison observe the *same* simulation (they are
passive observers, so attaching several never perturbs the channel or
routing randomness) — paired comparisons with common random numbers.
:func:`run_comparison` executes one seed; :func:`run_replicated` averages
over several, optionally sharding the replicates over a process pool
(``jobs``) — see :mod:`repro.exec`.

Everything an :class:`ApproachSpec` holds must be picklable: factories
are classes or frozen-dataclass callables and extractors are module-level
functions (never closures), because specs ride inside
:class:`repro.exec.ComparisonTask` payloads to pool workers.
``tests/workloads/test_dispatchable.py`` enforces this for every spec
this module exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import AccuracyReport, compare_estimates
from repro.analysis.overhead import OverheadSummary, summarize_overhead
from repro.coding.baseline_codes import IntegerCode
from repro.core.config import DophyConfig
from repro.core.dophy import DophySystem
from repro.net.simulation import CollectionObserver, SimulationResult
from repro.tomography.em import EMTomography
from repro.tomography.linear import LinearTomography
from repro.tomography.mle_tree import TreeRatioTomography
from repro.tomography.path_measurement import PathMeasurement
from repro.utils.rng import spawn_seeds
from repro.workloads.scenarios import Scenario

__all__ = [
    "ApproachOutcome",
    "ApproachSpec",
    "ComparisonRow",
    "ReplicatedRow",
    "dophy_approach",
    "huffman_dophy_approach",
    "path_measurement_approach",
    "tree_ratio_approach",
    "linear_approach",
    "em_approach",
    "run_comparison",
    "run_replicated",
]

Link = Tuple[int, int]


@dataclass
class ApproachOutcome:
    """What one approach produced on one run."""

    losses: Dict[Link, float]
    support: Dict[Link, int] = field(default_factory=dict)
    #: Per-packet annotation bit counts ([] for end-to-end approaches).
    annotation_bits: List[int] = field(default_factory=list)
    annotation_hops: List[int] = field(default_factory=list)
    control_bits: int = 0
    #: Failure taxonomy counts (decode-failure causes, salvage
    #: activity); {} for approaches without one.
    failure_counts: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ApproachSpec:
    """Named recipe: build an observer, then extract its outcome."""

    name: str
    factory: Callable[[], CollectionObserver]
    extract: Callable[[CollectionObserver, SimulationResult], ApproachOutcome]


# -- standard approach specs ----------------------------------------------------------
#
# Factories are classes or frozen-dataclass callables and extractors
# module-level functions so every spec pickles to process-pool workers.


def _failure_taxonomy(report) -> Dict[str, int]:
    """Flatten a Dophy-style report's failure counters (0s for reports
    that predate a counter, e.g. the Huffman variant's)."""
    counts: Dict[str, int] = dict(getattr(report, "decode_failure_causes", {}) or {})
    counts["decode_failures"] = getattr(report, "decode_failures", 0)
    counts["salvaged_packets"] = getattr(report, "salvaged_packets", 0)
    counts["salvaged_hops"] = getattr(report, "salvaged_hops", 0)
    return counts


def _extract_model_report(obs, result: SimulationResult) -> ApproachOutcome:
    """Shared extractor for Dophy-style observers (full pipeline reports)."""
    report = obs.report()
    return ApproachOutcome(
        losses={l: e.loss for l, e in report.estimates.items()},
        support={l: e.n_samples for l, e in report.estimates.items()},
        annotation_bits=report.annotation_bits,
        annotation_hops=report.annotation_hops,
        control_bits=report.dissemination_bits,
        failure_counts=_failure_taxonomy(report),
    )


def _extract_path_report(
    obs: PathMeasurement, result: SimulationResult
) -> ApproachOutcome:
    report = obs.report()
    return ApproachOutcome(
        losses={l: e.loss for l, e in report.estimates.items()},
        support={l: e.n_samples for l, e in report.estimates.items()},
        annotation_bits=report.annotation_bits,
        annotation_hops=report.annotation_hops,
    )


def _extract_end_to_end(obs, result: SimulationResult) -> ApproachOutcome:
    tomo = obs.solve()
    return ApproachOutcome(
        losses=tomo.losses,
        support=tomo.support,
        control_bits=obs.control_overhead_bits(),
    )


@dataclass(frozen=True)
class _DophyFactory:
    config: Optional[DophyConfig] = None

    def __call__(self) -> DophySystem:
        return DophySystem(self.config or DophyConfig())


def dophy_approach(
    name: str = "dophy", config: Optional[DophyConfig] = None
) -> ApproachSpec:
    return ApproachSpec(name, _DophyFactory(config), _extract_model_report)


@dataclass(frozen=True)
class _HuffmanDophyFactory:
    config: Optional[DophyConfig] = None

    def __call__(self):
        from repro.core.huffman_variant import HuffmanDophyVariant

        return HuffmanDophyVariant(self.config or DophyConfig())


def huffman_dophy_approach(
    name: str = "dophy_huffman", config: Optional[DophyConfig] = None
) -> ApproachSpec:
    """Dophy's full pipeline with canonical Huffman instead of arithmetic
    coding — the surgical entropy-coder ablation."""
    return ApproachSpec(name, _HuffmanDophyFactory(config), _extract_model_report)


@dataclass(frozen=True)
class _PathMeasurementFactory:
    count_code: Optional[IntegerCode] = None
    path_encoding: str = "explicit"

    def __call__(self) -> PathMeasurement:
        return PathMeasurement(self.count_code, path_encoding=self.path_encoding)


def path_measurement_approach(
    name: str = "direct",
    count_code: Optional[IntegerCode] = None,
    *,
    path_encoding: str = "explicit",
) -> ApproachSpec:
    return ApproachSpec(
        name, _PathMeasurementFactory(count_code, path_encoding), _extract_path_report
    )


def tree_ratio_approach(name: str = "tree_ratio") -> ApproachSpec:
    return ApproachSpec(name, TreeRatioTomography, _extract_end_to_end)


def linear_approach(name: str = "linear") -> ApproachSpec:
    return ApproachSpec(name, LinearTomography, _extract_end_to_end)


def em_approach(name: str = "em") -> ApproachSpec:
    return ApproachSpec(name, EMTomography, _extract_end_to_end)


# -- execution ---------------------------------------------------------------------------


@dataclass
class ComparisonRow:
    """One approach's scores on one (or several averaged) run(s)."""

    approach: str
    accuracy: AccuracyReport
    overhead: OverheadSummary
    delivery_ratio: float
    churn_rate: float

    @property
    def mae(self) -> Optional[float]:
        return self.accuracy.mae


@dataclass(frozen=True)
class _AnnotationView:
    """Report-shaped adapter feeding an outcome's bit lists to
    :func:`summarize_overhead` (module-scoped: workers pickle rows built
    from it, and an inner class would defeat that)."""

    annotation_bits: List[int]
    annotation_hops: List[int]


def run_comparison(
    scenario: Scenario,
    approaches: Sequence[ApproachSpec],
    *,
    seed: int,
    min_support: int = 0,
    truth_kind: str = "empirical",
) -> Tuple[Dict[str, ComparisonRow], SimulationResult]:
    """Run one seed of ``scenario`` with every approach attached."""
    observers = [(spec, spec.factory()) for spec in approaches]
    sim = scenario.make_simulation(seed, [obs for _, obs in observers])
    result = sim.run()
    truth = result.ground_truth.true_loss_map(kind=truth_kind)
    rows: Dict[str, ComparisonRow] = {}
    for spec, obs in observers:
        outcome = spec.extract(obs, result)
        accuracy = compare_estimates(
            outcome.losses,
            truth,
            method=spec.name,
            min_support=min_support,
            support=outcome.support,
        )
        overhead = summarize_overhead(
            _AnnotationView(outcome.annotation_bits, outcome.annotation_hops),
            method=spec.name,
            control_bits=outcome.control_bits,
        )
        rows[spec.name] = ComparisonRow(
            approach=spec.name,
            accuracy=accuracy,
            overhead=overhead,
            delivery_ratio=result.delivery_ratio,
            churn_rate=result.churn_rate,
        )
    return rows, result


@dataclass
class ReplicatedRow:
    """Scores averaged over replicates."""

    approach: str
    mae_mean: float
    mae_std: float
    p90_mean: float
    coverage_mean: float
    bits_per_packet_mean: float
    bits_per_hop_mean: float
    control_bits_mean: float
    delivery_ratio_mean: float
    churn_rate_mean: float
    replicates: int


def run_replicated(
    scenario: Scenario,
    approaches: Sequence[ApproachSpec],
    *,
    master_seed: int,
    replicates: int = 3,
    min_support: int = 0,
    truth_kind: str = "empirical",
    jobs: int = 1,
    runner: Optional["ParallelRunner"] = None,
) -> Dict[str, ReplicatedRow]:
    """Average :func:`run_comparison` over independent replicate seeds.

    Replicate seeds are derived up-front with :func:`spawn_seeds`, so
    each replicate's random streams are fixed by ``(master_seed, index)``
    alone — never by scheduling. ``jobs > 1`` shards the replicates over
    a process pool with byte-identical output to ``jobs=1``. Pass an
    explicit ``runner`` to read ``runner.stats`` afterwards.
    """
    from repro.exec.parallel import ComparisonTask, ParallelRunner

    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    seeds = spawn_seeds(master_seed, replicates)
    if runner is None:
        runner = ParallelRunner(jobs=jobs)
    tasks = [
        ComparisonTask(
            scenario=scenario,
            approaches=tuple(approaches),
            seed=seed,
            min_support=min_support,
            truth_kind=truth_kind,
        )
        for seed in seeds
    ]
    acc: Dict[str, List[ComparisonRow]] = {spec.name: [] for spec in approaches}
    for task_result in runner.run_comparisons(tasks):
        for name, row in task_result.rows.items():
            acc[name].append(row)
    out: Dict[str, ReplicatedRow] = {}
    for name, rows_list in acc.items():
        maes = [r.accuracy.mae for r in rows_list if r.accuracy.mae is not None]
        p90s = [r.accuracy.p90_error for r in rows_list if r.accuracy.p90_error is not None]
        out[name] = ReplicatedRow(
            approach=name,
            mae_mean=float(np.mean(maes)) if maes else float("nan"),
            mae_std=float(np.std(maes)) if maes else float("nan"),
            p90_mean=float(np.mean(p90s)) if p90s else float("nan"),
            coverage_mean=float(np.mean([r.accuracy.coverage for r in rows_list])),
            bits_per_packet_mean=float(
                np.mean([r.overhead.mean_bits_per_packet for r in rows_list])
            ),
            bits_per_hop_mean=float(
                np.mean([r.overhead.mean_bits_per_hop for r in rows_list])
            ),
            control_bits_mean=float(
                np.mean([r.overhead.control_bits for r in rows_list])
            ),
            delivery_ratio_mean=float(
                np.mean([r.delivery_ratio for r in rows_list])
            ),
            churn_rate_mean=float(np.mean([r.churn_rate for r in rows_list])),
            replicates=len(rows_list),
        )
    return out
