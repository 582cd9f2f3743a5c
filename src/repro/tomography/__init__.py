"""Loss-tomography baselines.

Classical approaches infer per-link loss from *end-to-end* delivery
ratios plus an assumed routing topology — exactly what breaks in dynamic
networks, where the tree assumed at start-up goes stale as parents
change:

* :class:`TreeRatioTomography` — the telescoping per-subtree ratio
  estimator for convergecast trees (the textbook "traditional" method);
* :class:`LinearTomography` — non-negative least squares over the
  log-delivery path equations, one per origin;
* :class:`EMTomography` — per-packet EM attributing each end-to-end loss
  fractionally to the links of the packet's *assumed* path.

:class:`PathMeasurement` is the other extreme: per-hop counts carried in
every packet, encoded with a classical prefix code — Dophy-grade
accuracy at a (much) larger overhead, the upper-bound baseline for both
axes of the paper's comparison.
"""

from repro.tomography.boolean import BadLinkDiagnosis, BooleanTomography
from repro.tomography.base import (
    EndToEndObserver,
    TomographyResult,
    hop_success_to_frame_loss,
)
from repro.tomography.em import EMTomography
from repro.tomography.linear import LinearTomography
from repro.tomography.mle_tree import TreeRatioTomography
from repro.tomography.path_measurement import PathMeasurement

__all__ = [
    "EndToEndObserver",
    "TomographyResult",
    "hop_success_to_frame_loss",
    "TreeRatioTomography",
    "BooleanTomography",
    "BadLinkDiagnosis",
    "LinearTomography",
    "EMTomography",
    "PathMeasurement",
]
