"""Array-native simulation kernel (``engine="array"``).

The reference engine in :mod:`repro.net.sim` / :mod:`repro.net.simulation`
is an object-per-event design: every frame draw is one scalar RNG call
through two virtual dispatches, every beacon round draws one lognormal
noise sample per directed edge, and every event competes in one global
binary heap. Profiling a 100-node dynamic RGG puts ~54% of the run in
the per-edge beacon sampling loop, ~25–30% in event-queue machinery and
~10% in MAC frame draws — all of it interpreter overhead around work
that is trivially batchable.

This module replaces those three hot paths with struct-of-arrays
equivalents while leaving every piece of *protocol logic* — forwarding,
queueing, routing trees, failures, observers — in the shared
:class:`~repro.net.simulation.CollectionSimulation` code:

* :class:`FastArqMac` — a drop-in :class:`~repro.net.mac.ArqMac`
  replacement that pre-draws each Bernoulli link's uniform stream in
  vectorized numpy blocks and resolves whole ARQ exchanges against the
  buffered values;
* :class:`VectorizedEtxSampler` — computes a beacon round's noisy ETX
  samples for *all* directed edges at once (block lognormal draws,
  array loss/ETX arithmetic) and is installed via
  :meth:`~repro.net.routing.RoutingEngine.set_etx_sampler`;
* :func:`array_simulator` — a :class:`~repro.net.sim.Simulator` backed
  by the bucketed :class:`~repro.net.events.CalendarQueue` wheel instead
  of the global heap.

**Differential-oracle contract.** The event engine stays authoritative:
for identical seeds the array kernel must reproduce its observable
stream — packets created, hops delivered, drops, routing churn, RNG
stream positions — *bit-identically*, the same discipline
``estimate_scipy`` applies to the batched MLE solver. Every batching
trick below is therefore paired with the argument for exactness:

* ``Generator.random(n)`` / ``Generator.normal(0, s, n)`` produce the
  same values *and* the same post-call stream state as ``n`` scalar
  calls (PCG64 draws are counter-sequential), so block pre-draws replay
  the oracle's per-edge stream prefix bit-for-bit; surplus buffered
  values are never observable because each directed edge's stream has
  exactly one consumer.
* End-of-exchange times replay the oracle's *sequential* float
  accumulation (``time += fl(tx + retry)`` per failed attempt) rather
  than a closed-form multiply, which would round differently.
* Vectorized ETX arithmetic uses only single IEEE-754 operations
  (subtract, multiply, maximum, divide) that are bitwise identical to
  their scalar Python counterparts; the lognormal noise factor is one
  block ``Generator.lognormal`` draw, which computes ``exp(normal)``
  per element with the same C ``exp`` (and the same stream state) as
  the scalar per-edge ``lognormal`` calls of the reference loop. (A
  plain ``np.exp`` over a block of normals would NOT qualify — it is a
  different vectorized implementation that differs in the last ulp for
  some inputs, which is why the noise is drawn as lognormal on both
  engines rather than exponentiated after the fact.)
* Only :class:`~repro.net.link.BernoulliLink` edges are buffered: their
  ``sample`` is exactly ``rng.random() >= loss``, one uniform against a
  constant threshold. Every other model (Gilbert–Elliott chains,
  drifting and interfered links) runs the event engine's own
  :class:`~repro.net.mac.ArqMac`; the per-edge stream granularity
  makes mixing safe.

The contract is pinned by ``tests/net/test_fastsim_differential.py``
(field-by-field result equality over a scenario matrix) and by the
golden fixtures in ``tests/regression/``, which must pass unregenerated
on both engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net.events import CalendarQueue
from repro.net.link import BernoulliLink, Channel, LinkModel
from repro.net.mac import RETRY_INTERVAL, TX_TIME, ArqMac, MacConfig, MacResult
from repro.net.routing import RoutingEngine
from repro.net.sim import Simulator

__all__ = ["FastArqMac", "VectorizedEtxSampler", "array_simulator"]

#: Uniform draws buffered per directed edge and refill. ARQ exchanges
#: consume ~1/(1-loss) draws each, so one refill covers tens of
#: exchanges. Kept small because the draw+convert cost of a refill is
#: paid for the whole block while a typical edge consumes only part of
#: its last block: at 5k nodes the active tree has ~N hot edges and
#: large blocks turn mostly into discarded tails.
_BLOCK = 32


def array_simulator(*, bucket_width: float = 0.01) -> Simulator:
    """A simulator clocked by the calendar-queue wheel.

    The default bucket width (10 ms) sits between the MAC timescale
    (5–15 ms per attempt) and the beacon/traffic timescales (seconds),
    so a bucket holds a handful of events: pushes are O(1) appends and
    pops compare tuples within one bucket instead of the whole queue.
    """
    return Simulator(queue=CalendarQueue(bucket_width=bucket_width))


class _EdgePlan:
    """Buffered fast-path state for one Bernoulli directed edge.

    ``rng`` starts as None and is derived from the channel's registry on
    the edge's first exchange: stream derivation is keyed, not
    positional, so lazy derivation yields the exact generator eager
    derivation would — and at scale the vast majority of directed edges
    never carry a frame (only tree edges do), which makes eager per-edge
    derivation the dominant construction cost.
    """

    __slots__ = ("rng", "loss", "vals", "pos")

    def __init__(self, loss: float):
        self.rng: Optional[np.random.Generator] = None
        self.loss = loss
        self.vals: List[float] = []
        self.pos = 0


class FastArqMac:
    """ARQ exchanges resolved against buffered per-edge uniform blocks.

    Drop-in for :class:`~repro.net.mac.ArqMac`: same constructor shape,
    same :meth:`send` signature, bit-identical :class:`MacResult` and
    channel counters for identical seeds.

    An edge whose model is a :class:`BernoulliLink` replays its
    exchanges from buffered draws against the link's loss without
    touching ``Channel.transmit``; the realized draw/success counts are
    folded back in one :meth:`Channel.record_batch` call per exchange.
    Every other edge runs the exact scalar oracle.
    """

    def __init__(self, channel: Channel, config: Optional[MacConfig] = None):
        self.channel = channel
        self.config = config or MacConfig()
        self._exact = ArqMac(channel, self.config)
        # Replayed exactly as the oracle accumulates time: one rounded
        # fl(tx + retry) add per failed attempt, one fl(tx) add on success.
        self._tx = TX_TIME
        self._step = TX_TIME + RETRY_INTERVAL
        self._max_attempts = self.config.max_attempts
        # Plans are made lazily, per edge on its first exchange: at
        # scale only the collection tree's ~N directed edges ever carry
        # a frame, so eagerly allocating plan state for every edge of a
        # dense deployment would dominate construction. A None entry
        # records "seen: exact path".
        self._plans: Dict[Tuple[int, int], Optional[_EdgePlan]] = {}

    def _classify(self, sender: int, receiver: int) -> Optional[_EdgePlan]:
        model = self.channel.model(sender, receiver)
        # An exact type check: a subclass could draw differently.
        plan = _EdgePlan(model.loss) if type(model) is BernoulliLink else None
        self._plans[(sender, receiver)] = plan
        return plan

    def send(self, sender: int, receiver: int, start_time: float) -> MacResult:
        """Run one full ARQ exchange; bit-identical to the oracle's."""
        try:
            plan = self._plans[(sender, receiver)]
        except KeyError:
            plan = self._classify(sender, receiver)
        if plan is None:
            return self._exact.send(sender, receiver, start_time)
        rng = plan.rng
        if rng is None:
            rng = plan.rng = self.channel.link_rng(sender, receiver)
        vals = plan.vals
        pos = plan.pos
        loss = plan.loss
        step = self._step
        max_attempts = self._max_attempts
        time = start_time
        attempts = 0
        first: Optional[int] = None
        while attempts < max_attempts:
            attempts += 1
            if pos >= len(vals):
                vals = rng.random(_BLOCK).tolist()
                plan.vals = vals
                pos = 0
            draw = vals[pos]
            pos += 1
            if draw >= loss:
                # ACKs are perfect: first reception ends the exchange.
                first = attempts
                time += self._tx
                break
            time += step
        plan.pos = pos
        self.channel.record_batch(
            sender, receiver, attempts, 1 if first is not None else 0
        )
        return MacResult(attempts, first, time)


class VectorizedEtxSampler:
    """One beacon round's noisy ETX samples for all edges, batched.

    Installed on a :class:`RoutingEngine` via ``set_etx_sampler``; calls
    are bit-identical to the engine's scalar loop:

    * loss probabilities of time-invariant models are cached once in a
      struct-of-arrays layout; time-varying models are queried scalar
      (``math.sin`` and the interferer field keep their exact bits);
    * reverse-link losses are gathered through the routing engine's
      reverse-slot permutation instead of a second round of model calls;
    * ETX arithmetic (``1 / max(1e-6, (1-l_fwd)(1-l_rev))``) runs as
      whole-array IEEE-754 ops, bitwise equal to the scalar versions;
      when no model is time-varying the noise-free ETX is the same every
      round, so it is computed once;
    * noise comes from one block ``lognormal`` draw on the same
      ``("routing", "beacons")`` stream: NumPy's block lognormal draws
      the same normals and exponentiates with the same C ``exp`` as n
      scalar ``lognormal`` calls, so values and post-state match the
      scalar loop's per-edge draws bit for bit (pinned by the
      differential suite).
    """

    def __init__(self, routing: RoutingEngine):
        self._rev = routing._reverse
        model_map = routing.channel._models
        loss = np.zeros(len(routing._edges), dtype=np.float64)
        self._dynamic: List[Tuple[int, LinkModel]] = []
        for i, edge in enumerate(routing._edges):
            model = model_map[edge]
            if model.time_invariant_loss:
                loss[i] = model.true_loss(0.0)
            else:
                self._dynamic.append((i, model))
        # Only one of the two is kept: the static losses that a
        # time-varying round patches, or the ETX they always give.
        self._static_loss = loss if self._dynamic else None
        self._static_etx = None if self._dynamic else self._etx(loss)
        self._rng = routing._rng
        self._sigma = routing.config.etx_noise_std

    def _etx(self, loss: "np.ndarray") -> "np.ndarray":
        success = (1.0 - loss) * (1.0 - loss[self._rev])
        return 1.0 / np.maximum(1e-6, success)

    def __call__(self, time: float) -> "np.ndarray":
        if self._static_etx is not None:
            samples = self._static_etx
        else:
            assert self._static_loss is not None
            loss = self._static_loss.copy()
            for i, model in self._dynamic:
                loss[i] = model.true_loss(time)
            samples = self._etx(loss)
        if self._sigma > 0.0:
            noise = self._rng.lognormal(0.0, self._sigma, len(samples))
            samples = samples * noise
        return samples
