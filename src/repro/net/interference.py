"""Spatially-correlated interference (extension).

Real losses are not only bursty in time (Gilbert–Elliott) but correlated
in *space*: a WiFi access point or a microwave oven degrades every link
in its neighbourhood simultaneously. An :class:`InterfererField` places
interference sources in the deployment area, each cycling on/off with
exponential holding times; a link's loss is its base loss plus a penalty
for every active interferer close to either endpoint.

All links share the field's state, so the model induces exactly the
cross-link loss correlation that per-link iid models cannot express —
the spatial analogue of the F9 burstiness experiment.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.net.link import LinkAssigner, LinkModel
from repro.net.topology import Topology
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["Interferer", "InterfererField", "interference_assigner"]


class Interferer:
    """One on/off interference source with exponential holding times."""

    def __init__(
        self,
        position: Tuple[float, float],
        radius: float,
        loss_penalty: float,
        mean_on: float,
        mean_off: float,
        rng: np.random.Generator,
        *,
        start_on: bool = False,
    ):
        check_positive(radius, "radius")
        check_probability(loss_penalty, "loss_penalty")
        check_positive(mean_on, "mean_on")
        check_positive(mean_off, "mean_off")
        self.position = position
        self.radius = radius
        self.loss_penalty = loss_penalty
        self._mean_on = mean_on
        self._mean_off = mean_off
        self._rng = rng
        self._state_on = start_on
        self._state_until = self._draw_holding(0.0)

    def _draw_holding(self, now: float) -> float:
        mean = self._mean_on if self._state_on else self._mean_off
        return now + float(self._rng.exponential(mean))

    def is_on(self, time: float) -> bool:
        """Advance the on/off process lazily up to ``time``."""
        while time >= self._state_until:
            self._state_on = not self._state_on
            self._state_until = self._draw_holding(self._state_until)
        return self._state_on

    def affects(self, point: Tuple[float, float]) -> bool:
        return math.hypot(
            point[0] - self.position[0], point[1] - self.position[1]
        ) <= self.radius


class InterfererField:
    """A set of interferers shared by every link of a deployment."""

    def __init__(self, interferers: Sequence[Interferer]):
        self.interferers = list(interferers)

    @classmethod
    def random(
        cls,
        topology: Topology,
        *,
        seed: int,
        num_interferers: int = 3,
        radius: float = 0.3,
        loss_penalty: float = 0.35,
        mean_on: float = 20.0,
        mean_off: float = 60.0,
        side: float = 1.0,
    ) -> "InterfererField":
        """Uniformly-placed interferers over the deployment square."""
        if num_interferers < 0:
            raise ValueError("num_interferers must be >= 0")
        rng = derive_rng(seed, "interference", "placement")
        interferers = []
        for i in range(num_interferers):
            pos = (float(rng.uniform(0, side)), float(rng.uniform(0, side)))
            interferers.append(
                Interferer(
                    pos,
                    radius,
                    loss_penalty,
                    mean_on,
                    mean_off,
                    derive_rng(seed, "interference", "state", i),
                )
            )
        return cls(interferers)

    def penalty_at(self, point: Tuple[float, float], time: float) -> float:
        """Summed loss penalty of the interferers active near ``point``."""
        total = 0.0
        for interferer in self.interferers:
            if interferer.affects(point) and interferer.is_on(time):
                total += interferer.loss_penalty
        return total

    def active_count(self, time: float) -> int:
        return sum(1 for i in self.interferers if i.is_on(time))


class InterferedLink(LinkModel):
    """Base Bernoulli loss plus the field's time-varying local penalty."""

    _EPS = 1e-4

    def __init__(
        self,
        base_loss: float,
        endpoint_positions: Tuple[Tuple[float, float], Tuple[float, float]],
        field: InterfererField,
    ):
        self.base_loss = check_probability(base_loss, "base_loss")
        self.positions = endpoint_positions
        self.field = field

    def true_loss(self, time: float) -> float:
        # A frame is vulnerable at both endpoints; take the worse exposure.
        penalty = max(
            self.field.penalty_at(self.positions[0], time),
            self.field.penalty_at(self.positions[1], time),
        )
        return min(1.0 - self._EPS, self.base_loss + penalty)

    def sample(self, rng: np.random.Generator, time: float) -> bool:
        return bool(rng.random() >= self.true_loss(time))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InterferedLink(base={self.base_loss:.3f})"


def interference_assigner(
    topology: Topology,
    field: InterfererField,
    *,
    base_low: float = 0.02,
    base_high: float = 0.15,
) -> LinkAssigner:
    """Assigner producing :class:`InterferedLink` models over a shared field.

    Requires node positions (RGG/grid topologies provide them).
    """
    if not topology.positions:
        raise ValueError("interference model requires node positions")

    def make(u: int, v: int, rng: np.random.Generator) -> LinkModel:
        base = float(rng.uniform(base_low, base_high))
        return InterferedLink(
            base, (topology.positions[u], topology.positions[v]), field
        )

    return make
