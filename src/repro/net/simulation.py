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
from repro.net.mac import RETRY_INTERVAL, TX_TIME, ArqMac, MacConfig
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
    #: ``forward_delay == 0`` the array engine keeps finish events, because
    #: its lazy busy horizon cannot reproduce the equal-time ties a zero
    #: delay creates.
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
        self.routing = RoutingEngine(
            topology,
            channel,
            self.rng,
            self.config.routing,
            spt_mode="array" if use_array else "full",
        )
        self.mac: Union[ArqMac, FastArqMac] = ArqMac(channel, self.config.mac)
        if use_array:
            # Swap the batched hot paths in; all protocol logic below is
            # engine-agnostic, which is what keeps the observable
            # streams bit-identical across engines (see net/fastsim.py).
            self.mac = FastArqMac(channel, self.config.mac)
            self.routing.set_etx_sampler(VectorizedEtxSampler(self.routing))
        self.ground_truth = GroundTruth(channel)
        self.observers: List[CollectionObserver] = list(observers)
        self.packets: List[Packet] = []
        self._seqno: Dict[int, int] = {n: 0 for n in topology.nodes}
        self.failure_plan = failure_plan
        self._alive: Dict[int, bool] = {n: True for n in topology.nodes}
        self._busy: Dict[int, bool] = {n: False for n in topology.nodes}
        self._queues: Dict[int, deque] = {n: deque() for n in topology.nodes}
        self._started = False
        # Batched-forwarding state (array engine, see _forward_batched): a
        # node is busy iff now < _busy_until[node], queue servicing is an
        # explicitly scheduled event, and the event-count credits keep
        # events_processed equal to the event engine's.
        self._busy_until: Dict[int, float] = {n: 0.0 for n in topology.nodes}
        self._service_pending: Dict[int, bool] = {n: False for n in topology.nodes}
        self._run_horizon = self.config.duration + 10.0
        self._event_credits = 0

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
        # An idle radio has an empty queue (servicing drains it until an
        # exchange starts), so a drop here leaves nothing to service.
        self._start_exchange(packet, node)

    def _start_exchange(self, packet: Packet, node: int) -> bool:
        """Run ``node``'s ARQ exchange for ``packet`` now.

        Returns False when the packet is dropped without an exchange,
        which leaves the radio idle, and True when an exchange occupied it.
        """
        if not self._alive[node]:
            # The holding node died before it could forward.
            self._drop(packet, "node_failed")
            return False
        if len(packet.hops) >= self.config.max_hops:
            self._drop(packet, "ttl")
            return False
        parent = self.routing.parent(node)
        if parent is None:
            self._drop(packet, "no_route")
            return False
        now = self.sim.now
        if self._alive[parent]:
            attempts, first, end = self.mac.send(node, parent, now)
        else:
            # Receiver's radio is off: every attempt times out, no frames
            # actually traverse the channel (so link statistics stay clean).
            attempts = self.config.mac.max_attempts
            first = None
            end = now + attempts * (TX_TIME + RETRY_INTERVAL)
        if self._batch:
            self._busy_until[node] = end
            # The event engine pops one finish event per exchange within
            # the run horizon; queue servicing, its only effect, is
            # recreated lazily by _ensure_service.
            if end <= self._run_horizon:
                self._event_credits += 1
            forward = self._forward_batched
        else:
            self._busy[node] = True
            self.sim.at(end, self._finish_exchange, node)
            forward = self._forward
        self.routing.on_data_sample(node, parent, attempts, now)
        self.ground_truth.hops.append(
            packet.record_hop(node, parent, attempts, end, first is not None)
        )
        if first is None:
            self._drop(packet, "retries")
            return True
        for obs in self.observers:
            obs.on_hop_delivered(packet, node, parent, first, end)
        # Arrival is now + ((end - now) + delay), not end + delay: the
        # recorded streams and goldens pin this rounding.
        self.sim.after((end - now) + self.config.forward_delay, forward, packet, parent)
        return True

    def _finish_exchange(self, node: int) -> None:
        self._busy[node] = False
        self._service_queue(node)

    def _service_queue(self, node: int) -> None:
        """Start the next queued exchange, dropping packets that cannot start one."""
        queue = self._queues[node]
        while queue:
            if self._start_exchange(queue.popleft(), node):
                return

    # -- batched forwarding (array engine) -----------------------------------------
    #
    # With ``forward_delay > 0`` the array engine keeps a lazy busy horizon
    # in place of finish events. Each real forwarding event still resolves
    # one leg, as the event engine does, but starting an exchange only
    # records when it ends (``_busy_until``). The event engine's finish
    # event exists only to service the node's queue, so it is elided and
    # its pop credited; the first packet that queues behind a busy radio
    # buys one service event back at the horizon (``_ensure_service``),
    # debited because the event engine pops the finish event instead.
    # ``events_processed`` thus equals the event engine's count.
    #
    # Equal-time ties between unrelated events are resolved by scheduling
    # sequence, and a service event is scheduled later than the finish
    # event it stands for; such ties require exact float equality of
    # independently accumulated sums, and ``forward_delay > 0`` keeps hop
    # arrivals off exchange finish times, so they are measure-zero
    # (asserted by the differential suite, not by construction). With a
    # zero delay every arrival ties with its exchange's finish, so the
    # array engine forwards per hop with finish events (``_forward``).

    def _forward_batched(self, packet: Packet, node: int) -> None:
        if node == self.topology.sink:
            self._deliver(packet)
            return
        if (
            self.sim.now < self._busy_until[node]
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
        self._start_exchange(packet, node)

    def _ensure_service(self, node: int) -> None:
        """Schedule queue servicing at the node's busy horizon (once).

        The -1 cancels the elided finish event's +1, keeping the count
        exact. It is gated on the run horizon, past which neither event
        would ever pop.
        """
        if self._service_pending[node]:
            return
        self._service_pending[node] = True
        until = self._busy_until[node]
        self.sim.at(until, self._service_batched, node)
        if until <= self._run_horizon:
            self._event_credits -= 1

    def _service_batched(self, node: int) -> None:
        """Drain the node's queue exactly as the event engine's finish event
        does; an exchange that starts rebinds servicing to its horizon."""
        self._service_pending[node] = False
        self._service_queue(node)
        if self._queues[node]:
            self._ensure_service(node)

    def _deliver(self, packet: Packet) -> None:
        packet.delivered_at = self.sim.now
        self.ground_truth.record_delivered(packet)
        for obs in self.observers:
            obs.on_packet_delivered(packet, self.sim.now)

    def _drop(self, packet: Packet, reason: str) -> None:
        packet.dropped_at = self.sim.now
        packet.drop_reason = reason
        self.ground_truth.record_dropped(packet)
        for obs in self.observers:
            obs.on_packet_dropped(packet, self.sim.now)

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
        self.sim.run_until(self._run_horizon)
        return SimulationResult(
            topology=self.topology,
            channel=self.channel,
            routing=self.routing,
            ground_truth=self.ground_truth,
            packets=self.packets,
            config=self.config,
            duration=self.config.duration,
            events_processed=self.sim.events_processed + self._event_credits,
        )
