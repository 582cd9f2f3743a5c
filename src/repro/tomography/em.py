"""EM loss tomography over per-packet end-to-end outcomes.

Treats each hop's success on each packet as a latent Bernoulli. For a
delivered packet every link of its (assumed) path succeeded; for a lost
packet, the failure happened at exactly one link — the E-step attributes
it fractionally according to the current hop-success estimates:

    P(failed at link j | lost) =
        s_1 ... s_{j-1} (1 - s_j) / (1 - s_1 ... s_L).

The M-step re-estimates each link's hop success from its fractional
success/failure tallies. Statistically the most efficient of the
end-to-end baselines — but it inherits their core weakness: the *assumed*
path comes from the start-up topology snapshot, not the path the packet
actually took.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

import numpy as np

from repro.tomography.base import (
    EndToEndObserver,
    TomographyResult,
    hop_success_to_frame_loss_array,
)

__all__ = ["EMTomography", "MAX_ITERATIONS", "TOLERANCE"]

#: EM iteration budget.
MAX_ITERATIONS = 200
#: Convergence threshold on the largest hop-success change per iteration.
TOLERANCE = 1e-6


class EMTomography(EndToEndObserver):
    """Expectation-maximization over assumed per-packet paths."""

    method_name = "em"

    def solve(self) -> TomographyResult:
        observations = self.packet_observations
        if not observations:
            return TomographyResult(losses={}, converged=False, method=self.method_name)
        # Aggregate identical (links, delivered) rows for speed.
        grouped: Dict[Tuple[Tuple[Tuple[int, int], ...], bool], int] = defaultdict(int)
        support: Dict[Tuple[int, int], int] = defaultdict(int)
        for _, links, delivered in observations:
            if not links:
                continue
            grouped[(links, delivered)] += 1
            for link in links:
                support[link] += 1
        link_index: Dict[Tuple[int, int], int] = {}
        for (links, _), _ in grouped.items():
            for link in links:
                link_index.setdefault(link, len(link_index))
        k = len(link_index)
        if k == 0:
            return TomographyResult(losses={}, converged=False, method=self.method_name)
        s = np.full(k, 0.9)  # initial hop-success guess
        converged = False
        for _ in range(MAX_ITERATIONS):
            succ = np.zeros(k)
            fail = np.zeros(k)
            for (links, delivered), count in grouped.items():
                idx = [link_index[l] for l in links]
                if delivered:
                    for j in idx:
                        succ[j] += count
                    continue
                # E-step: attribute the loss across the path.
                path_s = s[idx]
                prefix = np.concatenate(([1.0], np.cumprod(path_s[:-1])))
                fail_probs = prefix * (1.0 - path_s)
                total = fail_probs.sum()
                if total <= 1e-12:
                    # Current estimates say loss was impossible; spread evenly.
                    fail_probs = np.full(len(idx), 1.0 / len(idx))
                    total = 1.0
                fail_probs = fail_probs / total
                # Link j succeeded on this packet iff the failure was later.
                succ_probs = np.concatenate((np.cumsum(fail_probs[1:][::-1])[::-1], [0.0]))
                for pos, j in enumerate(idx):
                    fail[j] += count * fail_probs[pos]
                    succ[j] += count * succ_probs[pos]
            new_s = np.where(succ + fail > 0, succ / np.maximum(succ + fail, 1e-12), s)
            new_s = np.clip(new_s, 1e-6, 1.0)
            if np.max(np.abs(new_s - s)) < TOLERANCE:
                s = new_s
                converged = True
                break
            s = new_s
        frame_loss = hop_success_to_frame_loss_array(s, self.max_attempts)
        losses = {link: float(frame_loss[idx]) for link, idx in link_index.items()}
        return TomographyResult(
            losses=losses,
            support=dict(support),
            converged=converged,
            method=self.method_name,
        )
