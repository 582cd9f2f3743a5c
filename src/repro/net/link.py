"""Link loss models and the channel abstraction.

Each *directed* physical link carries a :class:`LinkModel` that decides,
per frame transmission, whether the frame is received. Three regimes
cover what testbeds exhibit:

* :class:`BernoulliLink` — iid loss (the model classical tomography assumes);
* :class:`GilbertElliottLink` — bursty loss via a two-state Markov chain;
* :class:`DriftingLink` — non-stationary loss whose mean drifts over time
  (what makes periodic probability-model updates worthwhile).

The :class:`Channel` owns one model and one RNG substream per directed
edge, so protocol variants compared under the same master seed see the
same channel randomness (common random numbers).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.net.topology import Topology
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_in_range, check_positive, check_probability

__all__ = [
    "LinkModel",
    "BernoulliLink",
    "GilbertElliottLink",
    "DriftingLink",
    "Channel",
    "uniform_loss_assigner",
    "beta_loss_assigner",
    "gilbert_elliott_assigner",
    "drifting_loss_assigner",
]


class LinkModel(ABC):
    """Per-directed-link frame loss process."""

    #: True when ``true_loss`` does not depend on ``time`` — lets the
    #: array engine's vectorized paths cache per-link loss arrays.
    time_invariant_loss: bool = False

    @abstractmethod
    def sample(self, rng: np.random.Generator, time: float) -> bool:
        """Draw one frame transmission at ``time``; True = received."""

    @abstractmethod
    def true_loss(self, time: float) -> float:
        """Instantaneous loss probability at ``time`` (ground truth)."""

    def mean_loss(self, t0: float, t1: float, *, resolution: int = 64) -> float:
        """Average loss probability over [t0, t1] (numeric by default)."""
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return self.true_loss(t0)
        ts = np.linspace(t0, t1, resolution)
        return float(np.mean([self.true_loss(float(t)) for t in ts]))


class BernoulliLink(LinkModel):
    """Independent identically-distributed loss with fixed probability."""

    time_invariant_loss = True

    def __init__(self, loss: float):
        self.loss = check_probability(loss, "loss")

    def sample(self, rng: np.random.Generator, time: float) -> bool:
        # The array kernel's buffered MAC replays exactly this comparison.
        return bool(rng.random() >= self.loss)

    def true_loss(self, time: float) -> float:
        return self.loss

    def mean_loss(self, t0: float, t1: float, *, resolution: int = 64) -> float:
        return self.loss

    @classmethod
    def _prevalidated(cls, loss: float) -> "BernoulliLink":
        """Construct without re-validating ``loss``.

        For the uniform assigner's batch only: the loss comes from
        ``low + (high - low) * u`` with validated ``low``/``high`` in
        [0, 1] and ``u`` in [0, 1), so it is a probability by
        construction and the per-instance range check is pure overhead
        at 2·|edges| instances.
        """
        model = cls.__new__(cls)
        model.loss = loss
        return model

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BernoulliLink(loss={self.loss:.3f})"


class GilbertElliottLink(LinkModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    The chain moves between a *good* and a *bad* state on every frame
    draw; each state has its own loss probability. ``true_loss`` reports
    the stationary loss (the quantity a long-run estimator should
    recover); burstiness is controlled by the transition probabilities
    (small ``p_good_to_bad``/``p_bad_to_good`` = long bursts).
    """

    # The chain state is hidden but the stationary loss is constant.
    time_invariant_loss = True

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.02,
        loss_bad: float = 0.6,
        start_state: str = "good",
    ):
        self.p_gb = check_probability(p_good_to_bad, "p_good_to_bad")
        self.p_bg = check_probability(p_bad_to_good, "p_bad_to_good")
        if self.p_gb == 0.0 and self.p_bg == 0.0:
            raise ValueError("chain must be able to leave at least one state")
        self.loss_good = check_probability(loss_good, "loss_good")
        self.loss_bad = check_probability(loss_bad, "loss_bad")
        if start_state not in ("good", "bad"):
            raise ValueError("start_state must be 'good' or 'bad'")
        self._in_bad = start_state == "bad"

    @property
    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time in the bad state."""
        return self.p_gb / (self.p_gb + self.p_bg)

    def sample(self, rng: np.random.Generator, time: float) -> bool:
        # State transition first, then a draw in the new state.
        if self._in_bad:
            if rng.random() < self.p_bg:
                self._in_bad = False
        else:
            if rng.random() < self.p_gb:
                self._in_bad = True
        loss = self.loss_bad if self._in_bad else self.loss_good
        return bool(rng.random() >= loss)

    def true_loss(self, time: float) -> float:
        pi_bad = self.stationary_bad_fraction
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def mean_loss(self, t0: float, t1: float, *, resolution: int = 64) -> float:
        return self.true_loss(t0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GilbertElliottLink(p_gb={self.p_gb:.3f}, p_bg={self.p_bg:.3f},"
            f" loss={self.true_loss(0):.3f})"
        )


class DriftingLink(LinkModel):
    """Non-stationary loss: sinusoidal drift around a base loss ratio.

    ``loss(t) = clip(base + amplitude * sin(2*pi*t/period + phase), eps, 1-eps)``

    Deterministic drift keeps the ground truth exact at every instant,
    which the estimator-accuracy scoring relies on.
    """

    _EPS = 1e-4

    def __init__(
        self,
        base_loss: float,
        amplitude: float,
        period: float,
        phase: float = 0.0,
    ):
        self.base_loss = check_probability(base_loss, "base_loss")
        self.amplitude = check_in_range(amplitude, "amplitude", 0.0, 0.5)
        self.period = check_positive(period, "period")
        self.phase = float(phase)

    def true_loss(self, time: float) -> float:
        raw = self.base_loss + self.amplitude * math.sin(
            2.0 * math.pi * time / self.period + self.phase
        )
        return min(1.0 - self._EPS, max(self._EPS, raw))

    def sample(self, rng: np.random.Generator, time: float) -> bool:
        return bool(rng.random() >= self.true_loss(time))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DriftingLink(base={self.base_loss:.3f}, amp={self.amplitude:.3f},"
            f" period={self.period:g})"
        )


#: Signature of per-link model factories: (u, v, rng) -> LinkModel.
LinkAssigner = Callable[[int, int, np.random.Generator], LinkModel]

# Assigners are frozen-dataclass callables rather than closures so that
# scenarios embedding them can be pickled to process-pool workers
# (repro.exec).
#
# The uniform assigner's ``batch`` follows the same block-draw
# discipline as the array kernel (net/fastsim.py): ``Generator.random(n)``
# consumes the PCG64 stream exactly as n scalar ``random()`` calls
# would, and ``Generator.uniform(low, high)`` is
# ``low + (high - low) * next_double`` — one raw uniform plus the same
# IEEE-754 multiply/add NumPy's elementwise kernels perform. A batch of
# ``count`` calls therefore replays ``rng.random(count)``, bit-identical
# to the scalar call sequence in both values and post-call stream state
# (pinned by tests/net/test_link.py).


@dataclass(frozen=True)
class _UniformLossAssigner:
    low: float
    high: float

    def __call__(self, u: int, v: int, rng: np.random.Generator) -> LinkModel:
        return BernoulliLink(float(rng.uniform(self.low, self.high)))

    def batch(self, count: int, rng: np.random.Generator) -> "list[LinkModel]":
        """Replay ``count`` sequential ``__call__`` draws array-at-once."""
        raw = rng.random(count)
        losses = self.low + (self.high - self.low) * raw
        return [BernoulliLink._prevalidated(x) for x in losses.tolist()]


def uniform_loss_assigner(low: float, high: float) -> LinkAssigner:
    """Assign each directed link an iid Bernoulli loss drawn U[low, high]."""
    check_probability(low, "low")
    check_probability(high, "high")
    if high < low:
        raise ValueError("high must be >= low")
    return _UniformLossAssigner(low, high)


@dataclass(frozen=True)
class _GilbertElliottAssigner:
    p_good_to_bad: float
    p_bad_to_good: float
    loss_good_range: Tuple[float, float]
    loss_bad_range: Tuple[float, float]

    def __call__(self, u: int, v: int, rng: np.random.Generator) -> LinkModel:
        return GilbertElliottLink(
            self.p_good_to_bad,
            self.p_bad_to_good,
            loss_good=float(rng.uniform(*self.loss_good_range)),
            loss_bad=float(rng.uniform(*self.loss_bad_range)),
        )


def gilbert_elliott_assigner(
    *,
    p_good_to_bad: float = 0.05,
    p_bad_to_good: float = 0.25,
    loss_good_range: Tuple[float, float] = (0.01, 0.1),
    loss_bad_range: Tuple[float, float] = (0.4, 0.8),
) -> LinkAssigner:
    """Assign every directed link a bursty Gilbert–Elliott process.

    Per-link good/bad loss levels are drawn uniformly from the given
    ranges so links are heterogeneous, as on a real testbed.
    """
    check_probability(p_good_to_bad, "p_good_to_bad")
    check_probability(p_bad_to_good, "p_bad_to_good")
    return _GilbertElliottAssigner(
        p_good_to_bad, p_bad_to_good, tuple(loss_good_range), tuple(loss_bad_range)
    )


@dataclass(frozen=True)
class _DriftingLossAssigner:
    base_range: Tuple[float, float]
    amplitude_range: Tuple[float, float]
    period_range: Tuple[float, float]

    def __call__(self, u: int, v: int, rng: np.random.Generator) -> LinkModel:
        return DriftingLink(
            base_loss=float(rng.uniform(*self.base_range)),
            amplitude=float(rng.uniform(*self.amplitude_range)),
            period=float(rng.uniform(*self.period_range)),
            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        )


def drifting_loss_assigner(
    *,
    base_range: Tuple[float, float] = (0.05, 0.3),
    amplitude_range: Tuple[float, float] = (0.05, 0.2),
    period_range: Tuple[float, float] = (100.0, 400.0),
) -> LinkAssigner:
    """Assign every directed link a sinusoidally drifting loss process.

    Random phases decorrelate the links, so the network-wide symbol
    distribution drifts — the regime Dophy's periodic model updates target.
    """
    return _DriftingLossAssigner(
        tuple(base_range), tuple(amplitude_range), tuple(period_range)
    )


@dataclass(frozen=True)
class _BetaLossAssigner:
    alpha: float
    beta: float
    scale: float

    def __call__(self, u: int, v: int, rng: np.random.Generator) -> LinkModel:
        return BernoulliLink(
            float(min(1.0, self.scale * rng.beta(self.alpha, self.beta)))
        )


def beta_loss_assigner(alpha: float, beta: float, scale: float = 1.0) -> LinkAssigner:
    """Assign Bernoulli losses drawn from ``scale * Beta(alpha, beta)``.

    Testbed link-loss distributions are heavy at the low end with a tail
    of bad links; Beta(1.2, 6) scaled to [0, 0.8] is a reasonable stand-in.
    """
    check_positive(alpha, "alpha")
    check_positive(beta, "beta")
    check_probability(scale, "scale")
    return _BetaLossAssigner(alpha, beta, scale)


class Channel:
    """All directed links of a deployment, with per-edge RNG substreams."""

    def __init__(
        self,
        topology: Topology,
        models: Dict[Tuple[int, int], LinkModel],
        rng_registry: RngRegistry,
    ):
        expected = set(topology.directed_edges())
        if set(models.keys()) != expected:
            missing = expected - set(models.keys())
            extra = set(models.keys()) - expected
            raise ValueError(
                f"model/edge mismatch: missing={sorted(missing)[:4]}, extra={sorted(extra)[:4]}"
            )
        self.topology = topology
        self._models = dict(models)
        self._rng = rng_registry
        # Keyed off the models dict (deterministic build order) rather
        # than the validation set, so counter iteration order can never
        # depend on hash-set ordering.
        self._draws: Dict[Tuple[int, int], int] = dict.fromkeys(self._models, 0)
        self._successes: Dict[Tuple[int, int], int] = dict.fromkeys(self._models, 0)

    @classmethod
    def build(
        cls,
        topology: Topology,
        assigner: LinkAssigner,
        rng_registry: RngRegistry,
    ) -> "Channel":
        """Create models for every directed edge using ``assigner``.

        Each physical link draws its forward model, then its backward
        one, from the ``("channel", "assign")`` stream.
        """
        models: Dict[Tuple[int, int], LinkModel] = {}
        assign_rng = rng_registry.get("channel", "assign")
        edges = topology.undirected_edges()
        batch = getattr(assigner, "batch", None)
        if batch is not None:
            # Array-at-once parameter draws. ``batch`` replays the exact
            # per-call uniform stream of the scalar loop below (see the
            # block-draw discipline note above), so both the model
            # parameters and the post-build RNG state are bit-identical.
            drawn = iter(batch(2 * len(edges), assign_rng))
            for u, v in edges:
                models[(u, v)] = next(drawn)
                models[(v, u)] = next(drawn)
        else:
            for u, v in edges:
                models[(u, v)] = assigner(u, v, assign_rng)
                models[(v, u)] = assigner(v, u, assign_rng)
        return cls(topology, models, rng_registry)

    def model(self, sender: int, receiver: int) -> LinkModel:
        return self._models[(sender, receiver)]

    def transmit(self, sender: int, receiver: int, time: float) -> bool:
        """Simulate one frame on (sender -> receiver); True = received."""
        key = (sender, receiver)
        model = self._models[key]
        self._draws[key] += 1
        ok = model.sample(self._rng.get("link", sender, receiver), time)
        if ok:
            self._successes[key] += 1
        return ok

    def link_rng(self, sender: int, receiver: int) -> np.random.Generator:
        """The per-edge RNG substream feeding this directed link's draws.

        Exposed for the array kernel, which pre-draws uniform blocks from
        the same stream :meth:`transmit` would consume scalar-by-scalar.
        Each directed edge has exactly one consumer, so buffered draws
        replay the oracle's stream prefix bit-for-bit.
        """
        return self._rng.get("link", sender, receiver)

    def record_batch(
        self, sender: int, receiver: int, draws: int, successes: int
    ) -> None:
        """Fold externally-simulated frame outcomes into the link counters.

        The array kernel resolves whole ARQ exchanges against buffered
        draws without going through :meth:`transmit`; this keeps
        :meth:`draws` / :meth:`empirical_loss` identical to the oracle's.
        """
        key = (sender, receiver)
        self._draws[key] += draws
        self._successes[key] += successes

    def true_loss(self, sender: int, receiver: int, time: float) -> float:
        return self._models[(sender, receiver)].true_loss(time)

    def mean_loss(self, sender: int, receiver: int, t0: float, t1: float) -> float:
        return self._models[(sender, receiver)].mean_loss(t0, t1)

    def draws(self, sender: int, receiver: int) -> int:
        """Number of frame draws simulated on a directed link (diagnostics)."""
        return self._draws[(sender, receiver)]

    def empirical_loss(self, sender: int, receiver: int) -> Optional[float]:
        """Realized frame-loss fraction on a directed link; None if unused.

        This is the fairest finite-sample ground truth: an ideal estimator
        that saw every frame outcome would report exactly this value.
        """
        draws = self._draws[(sender, receiver)]
        if draws == 0:
            return None
        return 1.0 - self._successes[(sender, receiver)] / draws

    def directed_edges(self) -> Iterable[Tuple[int, int]]:
        return self._models.keys()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Channel(edges={len(self._models)})"
