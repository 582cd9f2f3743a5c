"""Accuracy metrics: estimated vs ground-truth per-link loss ratios.

Every estimator in this package ultimately produces a mapping
``directed link -> loss ratio``; the simulator's ground truth provides
the reference. :func:`compare_estimates` pairs them up (over the links
both know about) and produces the error statistics the paper's accuracy
figures report: mean/RMS absolute error, error percentiles, the full
error CDF, and coverage (how much of the network the method could see).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AccuracyReport", "compare_estimates"]

Link = Tuple[int, int]


@dataclass
class AccuracyReport:
    """Everything the accuracy figures need, for one method on one run."""

    method: str
    n_links_compared: int
    n_links_truth: int
    mae: Optional[float]
    rmse: Optional[float]
    median_error: Optional[float]
    p90_error: Optional[float]
    max_error: Optional[float]
    cdf: Dict[float, float] = field(default_factory=dict)
    per_link_errors: Dict[Link, float] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of ground-truth links the method produced estimates for."""
        if self.n_links_truth == 0:
            return 0.0
        return self.n_links_compared / self.n_links_truth


def compare_estimates(
    estimates: Dict[Link, float],
    truth: Dict[Link, float],
    *,
    method: str = "",
    min_support: int = 0,
    support: Optional[Dict[Link, int]] = None,
    cdf_points: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
) -> AccuracyReport:
    """Score ``estimates`` against ``truth``.

    ``min_support``/``support`` restrict the comparison to links informed
    by at least that many observations (accuracy figures conventionally
    exclude links a method barely saw).
    """
    usable = dict(estimates)
    if min_support > 0 and support is not None:
        usable = {
            l: v for l, v in usable.items() if support.get(l, 0) >= min_support
        }
    common = usable.keys() & truth.keys()
    errors = {l: abs(usable[l] - truth[l]) for l in common}
    values = list(errors.values())
    if values:
        arr = np.asarray(values)
        mae = float(arr.mean())
        rmse = float(math.sqrt(np.mean(arr**2)))
        median = float(np.quantile(arr, 0.5))
        p90 = float(np.quantile(arr, 0.9))
        mx = float(arr.max())
        cdf = {float(x): float(np.mean(arr <= x)) for x in cdf_points}
    else:
        mae = rmse = median = p90 = mx = None
        cdf = {float(x): float("nan") for x in cdf_points}
    return AccuracyReport(
        method=method,
        n_links_compared=len(common),
        n_links_truth=len(truth),
        mae=mae,
        rmse=rmse,
        median_error=median,
        p90_error=p90,
        max_error=mx,
        cdf=cdf,
        per_link_errors=errors,
    )
