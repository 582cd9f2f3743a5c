"""Traditional convergecast-tree loss tomography (telescoping ratios).

The textbook method for a static collection tree: every node originates
traffic, so the delivery ratio of node *u*'s own packets estimates the
product of hop successes along *u*'s path. For a node and its assumed
parent the path products telescope,

    s(u -> parent(u)) = R(u) / R(parent(u)),      R(sink) = 1,

giving every tree link's hop success from two measured ratios. It is the
fastest-converging classical estimator on a *static* tree — and the most
brittle under routing dynamics, because both R(u) and the attribution
tree go stale the moment parents change.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.tomography.base import (
    EndToEndObserver,
    TomographyResult,
    hop_success_to_frame_loss,
)

__all__ = ["TreeRatioTomography"]


class TreeRatioTomography(EndToEndObserver):
    """Telescoping-ratio estimator over the assumed collection tree."""

    method_name = "tree_ratio"

    def solve(self) -> TomographyResult:
        ratios = self.delivery_ratios()
        # Assumed parent of each origin = first hop of its assumed path in
        # the start-up snapshot (the sink's only knowledge of the tree).
        losses: Dict[Tuple[int, int], float] = {}
        support: Dict[Tuple[int, int], int] = {}
        converged = True
        for origin, r_origin in ratios.items():
            links = self.assumed_links(origin)
            if not links:
                continue
            first_link = links[0]
            parent = first_link[1]
            if parent in ratios:
                r_parent = ratios[parent]
            elif len(links) == 1:
                r_parent = 1.0  # parent is the sink
            else:
                converged = False
                continue
            if r_parent <= 0.0:
                # Parent delivers nothing: the ratio is undefined; attribute
                # total loss to the link (the conventional fallback).
                hop_success = 0.0
                converged = False
            else:
                hop_success = min(1.0, r_origin / r_parent)
            losses[first_link] = hop_success_to_frame_loss(
                hop_success, self.max_attempts
            )
            support[first_link] = self.packets_resolved(origin)
        return TomographyResult(
            losses=losses, support=support, converged=converged, method=self.method_name
        )
