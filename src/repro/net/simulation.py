"""Data-collection simulation driver.

:class:`CollectionSimulation` wires topology, channel, MAC, routing and
traffic together and runs the network for a configured duration. Protocol
logic under study (Dophy or a baseline) plugs in as a
:class:`CollectionObserver`: it sees exactly the events a real deployment
would expose — packet creation at origins, receiver-side hop completions
(with the MAC attempt number from the frame header), and deliveries at
the sink — plus a hook to schedule its own control traffic.

Each node's radio serves one ARQ exchange at a time; packets arriving at
a busy node wait in a bounded FIFO transmit queue (tail-dropped on
overflow). Remaining abstractions relative to a packet-level TinyOS
stack, none of which the inference consumes: beacons are modelled as
periodic ETX sampling rather than individual frames, no inter-node RF
interference, and ACKs are perfect, so no hop forwards a duplicate
packet. See DESIGN.md §4.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

from repro.net.failures import FailurePlan
from repro.net.fastsim import FastArqMac, VectorizedEtxSampler, array_simulator
from repro.net.link import Channel, LinkAssigner, uniform_loss_assigner
from repro.net.mac import RETRY_INTERVAL, TX_TIME, ArqMac, MacConfig, MacResult
from repro.net.packet import Packet
from repro.net.routing import RoutingConfig, RoutingEngine
from repro.net.sim import Simulator
from repro.sanitize import hooks as _sanitize_hooks
from repro.net.topology import Topology
from repro.net.trace import GroundTruth
from repro.utils.rng import RngRegistry
from repro.utils.validation import check_positive

__all__ = [
    "CollectionObserver",
    "SimulationConfig",
    "SimulationResult",
    "CollectionSimulation",
]

#: Fallback link regime when a simulation is given neither a channel nor
#: an assigner.
DEFAULT_LINK_ASSIGNER = uniform_loss_assigner(0.05, 0.3)

#: Uniform jitter fraction applied to each inter-packet gap.
TRAFFIC_JITTER = 0.25


class CollectionObserver(Protocol):
    """Hooks a protocol implementation receives from the simulation.

    All methods are optional in spirit; inherit from
    :class:`NullObserver` to implement only what you need.
    """

    def attach(self, simulation: "CollectionSimulation") -> None:
        """Called once before the run starts; schedule control traffic here."""

    def on_packet_created(self, packet: Packet, time: float) -> None:
        """A data packet was generated at its origin."""

    def on_hop_delivered(
        self, packet: Packet, sender: int, receiver: int, first_attempt: int, time: float
    ) -> None:
        """``receiver`` got the packet; ``first_attempt`` is the 1-based
        attempt index read from the received frame's MAC header."""

    def on_packet_delivered(self, packet: Packet, time: float) -> None:
        """The packet reached the sink (decode annotations here)."""

    def on_packet_dropped(self, packet: Packet, time: float) -> None:
        """The packet died en route (retries/TTL/no-route)."""

    def control_overhead_bits(self) -> int:
        """Total control-plane bits this protocol injected (model dissemination)."""


class NullObserver:
    """No-op base class implementing the observer protocol."""

    def attach(self, simulation: "CollectionSimulation") -> None:  # noqa: D102
        pass

    def on_packet_created(self, packet: Packet, time: float) -> None:  # noqa: D102
        pass

    def on_hop_delivered(
        self, packet: Packet, sender: int, receiver: int, first_attempt: int, time: float
    ) -> None:  # noqa: D102
        pass

    def on_packet_delivered(self, packet: Packet, time: float) -> None:  # noqa: D102
        pass

    def on_packet_dropped(self, packet: Packet, time: float) -> None:  # noqa: D102
        pass

    def control_overhead_bits(self) -> int:  # noqa: D102
        return 0


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level parameters."""

    #: Simulated duration, seconds.
    duration: float = 300.0
    #: Mean inter-packet interval per source node, seconds.
    traffic_period: float = 10.0
    #: TTL: drop packets exceeding this many hop attempts.
    max_hops: int = 64
    #: Processing delay between receiving a packet and forwarding it, seconds.
    forward_delay: float = 0.002
    #: Per-node transmit-queue capacity; arrivals beyond it are tail-dropped.
    queue_capacity: int = 16
    #: Simulation kernel: "event" is the reference object-per-event engine,
    #: "array" the vectorized kernel (:mod:`repro.net.fastsim`). The two
    #: produce bit-identical observable streams for identical seeds; the
    #: event engine is the differential oracle pinning the array one. With
    #: ``forward_delay == 0`` the array engine forwards per hop, because
    #: batching cannot reproduce the equal-time ties a zero delay creates.
    engine: str = "event"
    mac: MacConfig = field(default_factory=MacConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)

    def __post_init__(self) -> None:
        check_positive(self.duration, "duration")
        check_positive(self.traffic_period, "traffic_period")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        if self.forward_delay < 0:
            raise ValueError("forward_delay must be >= 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.engine not in ("event", "array"):
            raise ValueError(
                f"engine must be 'event' or 'array', got {self.engine!r}"
            )


@dataclass
class SimulationResult:
    """Everything a run produced."""

    topology: Topology
    channel: Channel
    routing: RoutingEngine
    ground_truth: GroundTruth
    packets: List[Packet]
    config: SimulationConfig
    duration: float
    events_processed: int

    @property
    def delivered_packets(self) -> List[Packet]:
        return [p for p in self.packets if p.delivered]

    @property
    def delivery_ratio(self) -> float:
        if not self.packets:
            return 0.0
        return len(self.delivered_packets) / len(self.packets)

    @property
    def churn_rate(self) -> float:
        """Parent changes per node per second over the run."""
        return self.routing.churn_rate(self.duration)


class CollectionSimulation:
    """One reproducible data-collection run over a lossy dynamic network."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int,
        config: Optional[SimulationConfig] = None,
        link_assigner: Optional[LinkAssigner] = None,
        channel: Optional[Channel] = None,
        observers: Sequence[CollectionObserver] = (),
        failure_plan: Optional[FailurePlan] = None,
    ):
        self.topology = topology
        self.config = config or SimulationConfig()
        self.rng = RngRegistry(seed)
        if channel is not None and link_assigner is not None:
            raise ValueError("pass either channel or link_assigner, not both")
        if channel is None:
            assigner = link_assigner or DEFAULT_LINK_ASSIGNER
            channel = Channel.build(topology, assigner, self.rng)
        self.channel = channel
        use_array = self.config.engine == "array"
        self._batch = use_array and self.config.forward_delay > 0
        self.sim = array_simulator() if use_array else Simulator()
        self.routing = RoutingEngine(topology, channel, self.rng, self.config.routing)
        self.mac: Union[ArqMac, FastArqMac] = ArqMac(channel, self.config.mac)
        if use_array:
            # Swap the batched hot paths in; all protocol logic below is
            # engine-agnostic, which is what keeps the observable
            # streams bit-identical across engines (see net/fastsim.py).
            self.mac = FastArqMac(channel, self.config.mac)
            self.routing.set_etx_sampler(VectorizedEtxSampler(self.routing))
            self.routing.set_spt_mode("incremental")
        self.ground_truth = GroundTruth(channel)
        self.observers: List[CollectionObserver] = list(observers)
        self.packets: List[Packet] = []
        self._seqno: Dict[int, int] = {n: 0 for n in topology.nodes}
        self.failure_plan = failure_plan
        self._alive: Dict[int, bool] = {n: True for n in topology.nodes}
        self._busy: Dict[int, bool] = {n: False for n in topology.nodes}
        self._queues: Dict[int, deque] = {n: deque() for n in topology.nodes}
        self._started = False
        # Batched-forwarding state (array engine, see _run_chain): lazy
        # busy horizons replace the _busy flag + finish events (a node is
        # busy iff now < _busy_until[node]), queue servicing becomes an
        # explicitly scheduled event, and inline legs must never resolve
        # links that read lazily-advancing shared state at future times.
        self._busy_until: Dict[int, float] = {n: 0.0 for n in topology.nodes}
        self._service_pending: Dict[int, bool] = {n: False for n in topology.nodes}
        self._run_horizon = self.config.duration + 10.0
        self._shared_edges = channel.shared_state_edges()

    def is_alive(self, node: int) -> bool:
        return self._alive[node]

    def control_broadcast(
        self,
        targets: Sequence[int],
        loss: float,
        stream: Tuple[str, ...] = ("dissemination",),
    ) -> List[int]:
        """One control-plane broadcast round; returns the targets reached.

        Each alive target independently misses the round with probability
        ``loss`` (drawn from the named RNG ``stream`` so data-plane streams
        stay untouched); dead nodes never receive. With ``loss == 0`` no
        randomness is consumed at all.
        """
        received: List[int] = []
        rng = self.rng.get(*stream) if loss > 0 else None
        for node in targets:
            if not self._alive[node]:
                continue
            if rng is not None and float(rng.random()) < loss:
                continue
            received.append(node)
        return received

    def _schedule_failures(self) -> None:
        if self.failure_plan is None:
            return
        for event in self.failure_plan:
            # Args-based scheduling instead of the default-arg lambda
            # idiom: bindings are explicit at the call site, so a later
            # edit cannot silently reintroduce late-binding capture.
            self.sim.at(
                event.time,
                self._set_node_state,
                event.node,
                event.kind == "recover",
            )

    def _set_node_state(self, node: int, alive: bool) -> None:
        if self._alive[node] == alive:
            return
        self._alive[node] = alive
        self.routing.set_alive(node, alive, self.sim.now)

    def add_observer(self, observer: CollectionObserver) -> None:
        if self._started:
            raise RuntimeError("cannot add observers after the run started")
        self.observers.append(observer)

    # -- traffic -----------------------------------------------------------------

    def _schedule_traffic(self) -> None:
        cfg = self.config
        for node in self.topology.nodes:
            if node == self.topology.sink:
                continue
            rng = self.rng.get("traffic", node)
            # Random phase so sources do not fire in lockstep.
            first = float(rng.uniform(0.0, cfg.traffic_period))

            def make_generator(origin: int, gen_rng) -> None:
                def generate() -> None:
                    if self._alive[origin]:  # dead nodes produce nothing
                        self._create_packet(origin)
                    jitter = float(gen_rng.uniform(-TRAFFIC_JITTER, TRAFFIC_JITTER))
                    gap = cfg.traffic_period * (1.0 + jitter)
                    if self.sim.now + gap <= cfg.duration:
                        self.sim.after(gap, generate)

                self.sim.at(first, generate)

            make_generator(node, rng)

    def _create_packet(self, origin: int) -> None:
        seqno = self._seqno[origin]
        self._seqno[origin] += 1
        packet = Packet(origin=origin, seqno=seqno, created_at=self.sim.now)
        self.packets.append(packet)
        self.ground_truth.record_generated(packet)
        for obs in self.observers:
            obs.on_packet_created(packet, self.sim.now)
        forward = self._forward_batched if self._batch else self._forward
        self.sim.after(0.0, forward, packet, origin)

    # -- forwarding --------------------------------------------------------------
    #
    # Each node's radio serves one ARQ exchange at a time: a packet arriving
    # while the node is mid-exchange waits in its FIFO transmit queue (with a
    # capacity cap — overflowing packets are tail-dropped, as real forwarding
    # queues do).

    def _forward(self, packet: Packet, node: int) -> None:
        if node == self.topology.sink:
            self._deliver(packet)
            return
        if self._busy[node]:
            queue = self._queues[node]
            if len(queue) >= self.config.queue_capacity:
                self._drop(packet, "queue_overflow")
            else:
                queue.append(packet)
            return
        self._start_exchange(packet, node)

    def _start_exchange(self, packet: Packet, node: int) -> None:
        if not self._alive[node]:
            # The holding node died before it could forward.
            self._drop(packet, "node_failed")
            self._service_queue(node)
            return
        if len(packet.hops) >= self.config.max_hops:
            self._drop(packet, "ttl")
            self._service_queue(node)
            return
        parent = self.routing.parent(node)
        if parent is None:
            self._drop(packet, "no_route")
            self._service_queue(node)
            return
        if not self._alive[parent]:
            # Receiver's radio is off: every attempt times out, no frames
            # actually traverse the channel (so link statistics stay clean).
            max_attempts = self.config.mac.max_attempts
            end = self.sim.now + max_attempts * (TX_TIME + RETRY_INTERVAL)
            result = MacResult(
                attempts=max_attempts, first_received_attempt=None, end_time=end
            )
        else:
            result = self.mac.send(node, parent, self.sim.now)
        self._busy[node] = True
        self.sim.at(result.end_time, self._finish_exchange, node)
        self.routing.on_data_sample(node, parent, result.attempts, self.sim.now)
        self.ground_truth.record_hop(node, parent, result)
        packet.record_hop(node, parent, result.attempts, result.end_time, result.received)
        if result.received:
            first = result.first_received_attempt
            assert first is not None
            for obs in self.observers:
                obs.on_hop_delivered(packet, node, parent, first, result.end_time)
            delay = (result.end_time - self.sim.now) + self.config.forward_delay
            self.sim.after(delay, self._forward, packet, parent)
        else:
            self._drop(packet, "retries")

    def _finish_exchange(self, node: int) -> None:
        self._busy[node] = False
        self._service_queue(node)

    def _service_queue(self, node: int) -> None:
        if self._busy[node]:
            return
        queue = self._queues[node]
        if queue:
            self._start_exchange(queue.popleft(), node)

    # -- batched forwarding (array engine) -----------------------------------------
    #
    # Batched forwarding replaces the per-hop event cascade with inline
    # multi-hop journey resolution at wake-up: one real event runs as many
    # consecutive exchanges as are provably identical to the oracle's —
    # every protocol decision (TTL, routes, liveness, drops, observer
    # callbacks) replayed with the virtual leg time where the oracle would
    # have used ``sim.now``. A leg is deferred back to a real event when
    # the oracle's interleaving could matter: delivery (sink-side fault
    # draws and annotation decoding are order-sensitive across packets),
    # ANY pending event at or before the arrival (the strict horizon:
    # even a traffic creation can cascade into a radio occupancy on this
    # journey's path before the arrival, so no event class is safe to
    # inline past), a contended next hop (busy radio, queued packets,
    # pending service — queue mutations happen only at real events so
    # FIFO order and tail drops are exact), an arrival past the run
    # horizon (the oracle never pops it), or a next link reading
    # lazily-advancing shared state (interference fields must be queried
    # in global time order). Elided finish events and inlined forward
    # events are credited/debited via ``Simulator.credit_events`` so
    # ``events_processed`` stays bit-equal to the oracle's count.
    #
    # Equal-time ties between unrelated events are resolved by scheduling
    # sequence, which batching does not replay; such ties require exact
    # float equality of independently accumulated sums and ``forward_delay
    # > 0`` keeps hop arrivals off exchange finish times, so they are
    # measure-zero (asserted by the differential suite, not by construction).

    def _forward_batched(self, packet: Packet, node: int) -> None:
        """Real-event entry point of the batched path (wake-up)."""
        if node == self.topology.sink:
            self._deliver(packet)
            return
        now = self.sim.now
        if (
            now < self._busy_until[node]
            or self._queues[node]
            or self._service_pending[node]
        ):
            queue = self._queues[node]
            if len(queue) >= self.config.queue_capacity:
                self._drop(packet, "queue_overflow")
            else:
                queue.append(packet)
                self._ensure_service(node)
            return
        self._run_chain(packet, node, now)

    def _ensure_service(self, node: int) -> None:
        """Schedule queue servicing at the node's busy horizon (once).

        The oracle services queues from each exchange's finish event;
        batching elides those (crediting them), so the first queued
        arrival buys the service event back — the -1 cancels the elided
        finish's +1, keeping the count exact. Both adjustments are gated
        on the run horizon, past which neither event would ever pop.
        """
        if self._service_pending[node]:
            return
        self._service_pending[node] = True
        until = self._busy_until[node]
        self.sim.at(until, self._service_batched, node)
        if until <= self._run_horizon:
            self.sim.credit_events(-1)

    def _service_batched(self, node: int) -> None:
        """Drain the node's queue exactly as the oracle's finish event does:
        drop-without-exchange packets recurse immediately, the first packet
        that starts an exchange rebinds servicing to the new busy horizon."""
        self._service_pending[node] = False
        queue = self._queues[node]
        while queue:
            packet = queue.popleft()
            if self._run_chain(packet, node, self.sim.now):
                if queue:
                    self._ensure_service(node)
                return

    def _run_chain(self, packet: Packet, node: int, start: float) -> bool:
        """Resolve the packet's journey inline from ``node`` at ``start``.

        Returns True when the first leg started an ARQ exchange at
        ``node`` (i.e. occupied its radio), which is what queue servicing
        needs to know. ``start`` equals ``sim.now`` for the first leg;
        continuation legs run at virtual arrival times strictly before
        the next pending event, where the whole protocol state is
        provably frozen.
        """
        cfg = self.config
        max_attempts = cfg.mac.max_attempts
        sink = self.topology.sink
        cur, t = node, start
        started_first = False
        first_leg = True
        while True:
            if not self._alive[cur]:
                # The holding node died before it could forward (only
                # reachable on the first leg: liveness cannot change
                # before an inlined continuation's arrival).
                self._drop(packet, "node_failed", time=t)
                break
            if len(packet.hops) >= cfg.max_hops:
                self._drop(packet, "ttl", time=t)
                break
            parent = self.routing.parent(cur)
            if parent is None:
                self._drop(packet, "no_route", time=t)
                break
            if not self._alive[parent]:
                # Receiver's radio is off: every attempt times out, no
                # frames traverse the channel (same float expression as
                # the oracle's).
                end = t + max_attempts * (TX_TIME + RETRY_INTERVAL)
                result = MacResult(
                    attempts=max_attempts, first_received_attempt=None, end_time=end
                )
            else:
                result = self.mac.send(cur, parent, t)
            self._busy_until[cur] = result.end_time
            if first_leg:
                started_first = True
            # Credit the elided finish event (the oracle pops one per
            # started exchange within the horizon; queue servicing, its
            # only effect, is recreated lazily by _ensure_service).
            if result.end_time <= self._run_horizon:
                self.sim.credit_events(1)
            self.routing.on_data_sample(cur, parent, result.attempts, t)
            self.ground_truth.record_hop(cur, parent, result)
            packet.record_hop(
                cur, parent, result.attempts, result.end_time, result.received
            )
            if not result.received:
                self._drop(packet, "retries", time=t)
                break
            first = result.first_received_attempt
            assert first is not None
            for obs in self.observers:
                obs.on_hop_delivered(packet, cur, parent, first, result.end_time)
            # The oracle's exact arrival expression, with the leg's
            # virtual start time where it uses sim.now.
            delay = (result.end_time - t) + cfg.forward_delay
            arrival = t + delay
            horizon = self.sim.peek_event_time()
            grandparent = self.routing.parent(parent)
            if (
                parent == sink
                or arrival > self._run_horizon
                or (horizon is not None and arrival >= horizon)
                or arrival < self._busy_until[parent]
                or self._queues[parent]
                or self._service_pending[parent]
                or (
                    grandparent is not None
                    and (parent, grandparent) in self._shared_edges
                )
            ):
                self.sim.at(arrival, self._forward_batched, packet, parent)
                break
            # Inline continuation: credit the elided forward event.
            self.sim.credit_events(1)
            cur, t = parent, arrival
            first_leg = False
        return started_first

    def _deliver(self, packet: Packet) -> None:
        packet.delivered_at = self.sim.now
        self.ground_truth.record_delivered(packet)
        for obs in self.observers:
            obs.on_packet_delivered(packet, self.sim.now)

    def _drop(
        self, packet: Packet, reason: str, *, time: Optional[float] = None
    ) -> None:
        # ``time`` is the virtual leg time of an inlined drop (the oracle
        # drops at its forward event's timestamp); defaults to the clock.
        at = self.sim.now if time is None else time
        packet.dropped_at = at
        packet.drop_reason = reason
        self.ground_truth.record_dropped(packet)
        for obs in self.observers:
            obs.on_packet_dropped(packet, at)

    # -- execution ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the full run and return its results."""
        if self._started:
            raise RuntimeError("simulation already ran")
        self._started = True
        if self._batch:
            # Batching elides/reorders event pops by design, so a tracing
            # sanitizer tags this run's pop sequence as its own profile;
            # the stream-mode differ compares pops only between runs with
            # matching profiles (draw streams stay strictly comparable).
            active = _sanitize_hooks.ACTIVE
            if active is not None:
                active.set_pop_profile("batched-forwarding")
        self.routing.attach(self.sim)
        self._schedule_failures()
        for obs in self.observers:
            obs.attach(self)
        self._schedule_traffic()
        # Drain in-flight packets a short grace period past the duration.
        self.sim.run_until(self.config.duration + 10.0)
        return SimulationResult(
            topology=self.topology,
            channel=self.channel,
            routing=self.routing,
            ground_truth=self.ground_truth,
            packets=self.packets,
            config=self.config,
            duration=self.config.duration,
            events_processed=self.sim.events_processed,
        )
