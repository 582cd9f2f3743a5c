"""Discrete-event wireless-sensor-network simulator.

This substrate replaces the paper's TinyOS/TOSSIM testbed. It models a
data-collection WSN at the protocol level: lossy directional links (iid,
bursty, or drifting), a stop-and-wait ARQ MAC with bounded retries,
CTP-style dynamic parent selection driven by ETX estimates, periodic
traffic, and full ground-truth tracing so estimators can be scored
against the links' true loss ratios.
"""

from repro.net.events import CalendarQueue, EventQueue
from repro.net.failures import FailureEvent, FailurePlan, random_failure_plan
from repro.net.fastsim import FastArqMac, VectorizedEtxSampler, array_simulator
from repro.net.faults import FaultPlan
from repro.net.interference import Interferer, InterfererField, interference_assigner
from repro.net.link import (
    BernoulliLink,
    Channel,
    DriftingLink,
    GilbertElliottLink,
    LinkModel,
    beta_loss_assigner,
    drifting_loss_assigner,
    gilbert_elliott_assigner,
    uniform_loss_assigner,
)
from repro.net.mac import ArqMac, MacConfig, MacResult
from repro.net.packet import HopRecord, Packet
from repro.net.routing import ParentChange, RoutingConfig, RoutingEngine
from repro.net.simulation import (
    CollectionObserver,
    CollectionSimulation,
    NullObserver,
    SimulationConfig,
    SimulationResult,
)
from repro.net.sim import Simulator
from repro.net.topology import (
    Topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
    topology_from_edges,
)
from repro.net.trace import GroundTruth, LinkUsage
from repro.net.tracefile import (
    TraceHeader,
    TracePacket,
    load_trace,
    replay_into_estimator,
    save_trace,
    truth_from_header,
)

__all__ = [
    "EventQueue",
    "CalendarQueue",
    "FastArqMac",
    "VectorizedEtxSampler",
    "array_simulator",
    "FailureEvent",
    "FailurePlan",
    "random_failure_plan",
    "FaultPlan",
    "Interferer",
    "InterfererField",
    "interference_assigner",
    "Simulator",
    "Packet",
    "HopRecord",
    "Topology",
    "random_geometric_topology",
    "grid_topology",
    "line_topology",
    "topology_from_edges",
    "LinkModel",
    "BernoulliLink",
    "GilbertElliottLink",
    "DriftingLink",
    "Channel",
    "uniform_loss_assigner",
    "beta_loss_assigner",
    "gilbert_elliott_assigner",
    "drifting_loss_assigner",
    "ArqMac",
    "MacConfig",
    "MacResult",
    "RoutingEngine",
    "RoutingConfig",
    "ParentChange",
    "GroundTruth",
    "LinkUsage",
    "TraceHeader",
    "TracePacket",
    "save_trace",
    "load_trace",
    "replay_into_estimator",
    "truth_from_header",
    "CollectionSimulation",
    "CollectionObserver",
    "NullObserver",
    "SimulationConfig",
    "SimulationResult",
]
