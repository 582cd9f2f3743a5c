"""Linear-algebraic loss tomography (NNLS over log-delivery equations).

Each origin with at least :data:`MIN_PACKETS_PER_EQUATION` resolved
packets contributes one equation:

    -log R(origin) = sum over links l of assumed path  x_l,
    x_l = -log s_l >= 0,

with ``R`` the origin's delivery ratio and the path taken from the
topology snapshot captured at start-up. Solving the system with
non-negative least squares yields hop successes ``s_l = exp(-x_l)``,
then frame losses via the ARQ inversion — the classic static
formulation.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np
from scipy import optimize

from repro.tomography.base import (
    EndToEndObserver,
    TomographyResult,
    hop_success_to_frame_loss_array,
)

__all__ = ["LinearTomography", "MIN_PACKETS_PER_EQUATION"]

#: Delivery ratios below this are clamped (log of zero is unusable).
_MIN_RATIO = 1e-3
#: Fewest resolved packets an origin needs before it yields an equation.
MIN_PACKETS_PER_EQUATION = 5


class LinearTomography(EndToEndObserver):
    """NNLS on the log-linear path-loss system."""

    method_name = "linear_nnls"

    def solve(self) -> TomographyResult:
        # Build equations: one per origin with enough traffic.
        per_origin: Dict[int, List[Tuple[Tuple[Tuple[int, int], ...], bool]]] = (
            defaultdict(list)
        )
        for origin, links, delivered in self.packet_observations:
            per_origin[origin].append((links, delivered))
        equations: List[Tuple[Tuple[Tuple[int, int], ...], float, int]] = []
        for origin, rows in per_origin.items():
            n = len(rows)
            if n < MIN_PACKETS_PER_EQUATION:
                continue
            delivered = sum(1 for _, d in rows if d)
            ratio = max(_MIN_RATIO, delivered / n)
            # Every row of an origin shares the snapshot path; take the first.
            links = rows[0][0]
            if links:
                equations.append((links, ratio, n))
        if not equations:
            return TomographyResult(losses={}, converged=False, method=self.method_name)

        link_index: Dict[Tuple[int, int], int] = {}
        for links, _, _ in equations:
            for link in links:
                link_index.setdefault(link, len(link_index))
        m, k = len(equations), len(link_index)
        A = np.zeros((m, k))
        b = np.zeros(m)
        weights = np.zeros(m)
        support: Dict[Tuple[int, int], int] = defaultdict(int)
        for i, (links, ratio, n) in enumerate(equations):
            for link in links:
                A[i, link_index[link]] = 1.0
                support[link] += n
            b[i] = -math.log(ratio)
            weights[i] = math.sqrt(n)  # weight by sample count
        Aw = A * weights[:, None]
        bw = b * weights
        x, residual = optimize.nnls(Aw, bw)
        # Rank check: links that appear in no independent equation are
        # unidentifiable; NNLS still returns a value — flag via converged.
        converged = bool(np.linalg.matrix_rank(A) == k)
        frame_loss = hop_success_to_frame_loss_array(np.exp(-x), self.max_attempts)
        losses: Dict[Tuple[int, int], float] = {
            link: float(frame_loss[idx]) for link, idx in link_index.items()
        }
        return TomographyResult(
            losses=losses,
            support=dict(support),
            converged=converged,
            method=self.method_name,
        )
