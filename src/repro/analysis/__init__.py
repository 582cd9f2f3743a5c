"""Accuracy metrics and overhead accounting for estimator comparisons."""

from repro.analysis.metrics import AccuracyReport, compare_estimates
from repro.analysis.energy import EnergyReport, RadioEnergyModel, energy_report
from repro.analysis.detection import (
    DetectionReport,
    bad_links_from_truth,
    detection_metrics,
)
from repro.analysis.overhead import OverheadSummary, summarize_overhead

__all__ = [
    "EnergyReport",
    "RadioEnergyModel",
    "energy_report",
    "DetectionReport",
    "bad_links_from_truth",
    "detection_metrics",
    "AccuracyReport",
    "compare_estimates",
    "OverheadSummary",
    "summarize_overhead",
]
