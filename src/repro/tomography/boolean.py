"""Boolean loss tomography: identifying the *bad* links.

A large slice of the tomography literature asks a coarser question than
per-link ratios: *which links are lossy?* The classical Boolean approach
(smallest-consistent-failure-set, SCFS-style) reasons over path states:

1. an origin whose end-to-end delivery ratio is high has a **good path**
   — every link on it is exonerated;
2. every **bad path** must contain at least one bad link among the
   not-yet-exonerated candidates;
3. the diagnosis is a minimal candidate set covering all bad paths
   (greedy set cover here, the standard approximation).

Like every end-to-end method it trusts the snapshot topology, so
dynamics corrupt both the exoneration and the covering steps — the
detection-quality analogue of the paper's accuracy claim (bench A5).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.tomography.base import EndToEndObserver, TomographyResult
from repro.utils.validation import check_probability

__all__ = ["BooleanTomography", "BadLinkDiagnosis"]

Link = Tuple[int, int]


@dataclass
class BadLinkDiagnosis:
    """Result of Boolean bad-link identification."""

    flagged: Set[Link] = field(default_factory=set)
    exonerated: Set[Link] = field(default_factory=set)
    #: Origins whose paths were classified bad but contained no candidate
    #: (inconsistent evidence — usually stale topology).
    unexplained_paths: int = 0
    good_paths: int = 0
    bad_paths: int = 0


class BooleanTomography(EndToEndObserver):
    """Greedy SCFS-style bad-link identification from end-to-end outcomes."""

    method_name = "boolean_scfs"

    def __init__(
        self,
        *,
        good_path_delivery: float = 0.9,
        min_packets_per_origin: int = 10,
    ):
        """``good_path_delivery``: delivery ratio at/above which a path is
        deemed good (all its links exonerated)."""
        super().__init__()
        check_probability(good_path_delivery, "good_path_delivery")
        if min_packets_per_origin < 1:
            raise ValueError("min_packets_per_origin must be >= 1")
        self.good_path_delivery = good_path_delivery
        self.min_packets_per_origin = min_packets_per_origin

    def diagnose(self) -> BadLinkDiagnosis:
        """Run the exonerate-then-cover procedure."""
        per_origin: Dict[int, Tuple[int, int, Tuple[Link, ...]]] = {}
        counts: Dict[int, List[int]] = defaultdict(lambda: [0, 0])  # [delivered, total]
        links_of: Dict[int, Tuple[Link, ...]] = {}
        for origin, links, delivered in self.packet_observations:
            c = counts[origin]
            c[1] += 1
            if delivered:
                c[0] += 1
            links_of[origin] = links  # latest assumed path
        diagnosis = BadLinkDiagnosis()
        bad_paths: List[FrozenSet[Link]] = []
        for origin, (delivered, total) in counts.items():
            if total < self.min_packets_per_origin:
                continue
            links = links_of.get(origin)
            if not links:
                continue
            ratio = delivered / total
            if ratio >= self.good_path_delivery:
                diagnosis.good_paths += 1
                diagnosis.exonerated.update(links)
            else:
                diagnosis.bad_paths += 1
                bad_paths.append(frozenset(links))
        # Candidates: links on bad paths that no good path exonerated.
        uncovered = []
        for path_links in bad_paths:
            candidates = path_links - diagnosis.exonerated
            if not candidates:
                diagnosis.unexplained_paths += 1
            else:
                uncovered.append(candidates)
        # Greedy set cover over the remaining bad paths.
        while uncovered:
            tally: Dict[Link, int] = defaultdict(int)
            for candidates in uncovered:
                for link in candidates:
                    tally[link] += 1
            best = max(sorted(tally), key=lambda l: tally[l])
            diagnosis.flagged.add(best)
            uncovered = [c for c in uncovered if best not in c]
        return diagnosis

    def solve(self) -> TomographyResult:
        """Ratio-style interface: flagged links get loss 1.0, exonerated 0.0.

        (Boolean methods don't produce ratios; this coarse mapping lets the
        common comparison harness run, but the A5 bench scores the method
        on its native detection metrics instead.)
        """
        diagnosis = self.diagnose()
        losses: Dict[Link, float] = {}
        for link in diagnosis.exonerated:
            losses[link] = 0.0
        for link in diagnosis.flagged:
            losses[link] = 1.0
        return TomographyResult(
            losses=losses,
            converged=diagnosis.unexplained_paths == 0,
            method=self.method_name,
        )
