"""Standard evaluation scenarios.

A :class:`Scenario` bundles everything a run needs except the seed and
the observers: topology recipe, link-quality regime, traffic and routing
parameters. The factory functions below define the scenario families the
reconstructed experiments (DESIGN.md §3) sweep over.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

from repro.net.failures import FailurePlan, random_failure_plan
from repro.net.link import (
    LinkAssigner,
    drifting_loss_assigner,
    gilbert_elliott_assigner,
    uniform_loss_assigner,
)
from repro.net.mac import MacConfig
from repro.utils.rng import derive_rng
from repro.net.routing import RoutingConfig
from repro.net.simulation import (
    CollectionObserver,
    CollectionSimulation,
    SimulationConfig,
)
from repro.net.topology import (
    Topology,
    grid_topology,
    line_topology,
    random_geometric_topology,
)

__all__ = [
    "Scenario",
    "line_scenario",
    "static_grid_scenario",
    "static_rgg_scenario",
    "dynamic_rgg_scenario",
    "bursty_rgg_scenario",
    "drifting_rgg_scenario",
    "drifting_line_scenario",
    "failing_rgg_scenario",
    "interference_rgg_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """A reproducible experimental setting (everything but seed/observers)."""

    name: str
    topology_factory: Callable[[int], Topology]
    link_assigner: Optional[LinkAssigner]
    sim_config: SimulationConfig
    #: Optional per-run failure schedule builder: (topology, seed) -> plan.
    failure_plan_factory: Optional[Callable[[Topology, int], FailurePlan]] = None
    #: Optional topology-aware assigner builder (used when the link model
    #: depends on node positions, e.g. interference fields); takes
    #: precedence over ``link_assigner``.
    link_assigner_factory: Optional[Callable[[Topology, int], LinkAssigner]] = None

    def make_simulation(
        self, seed: int, observers: Sequence[CollectionObserver] = ()
    ) -> CollectionSimulation:
        """Instantiate one run of this scenario."""
        topology = self.topology_factory(seed)
        plan = (
            self.failure_plan_factory(topology, seed)
            if self.failure_plan_factory is not None
            else None
        )
        assigner = (
            self.link_assigner_factory(topology, seed)
            if self.link_assigner_factory is not None
            else self.link_assigner
        )
        return CollectionSimulation(
            topology,
            seed=seed,
            config=self.sim_config,
            link_assigner=assigner,
            observers=list(observers),
            failure_plan=plan,
        )

    def with_config(self, **changes) -> "Scenario":
        """Copy of the scenario with sim-config fields replaced."""
        return replace(self, sim_config=replace(self.sim_config, **changes))


def _config(
    *,
    duration: float,
    traffic_period: float,
    noise: float,
    max_retries: int = 30,
    beacon_period: float = 2.0,
    switch_threshold: float = 0.3,
) -> SimulationConfig:
    return SimulationConfig(
        duration=duration,
        traffic_period=traffic_period,
        mac=MacConfig(max_retries=max_retries),
        routing=RoutingConfig(
            etx_noise_std=noise,
            beacon_period=beacon_period,
            parent_switch_threshold=switch_threshold,
        ),
    )


# -- picklable factory helpers -----------------------------------------------------
#
# Scenarios travel to process-pool workers (repro.exec), so everything
# a Scenario holds must be a module-level callable (or a
# functools.partial of one) — never a lambda or closure.


def _line_topo(num_nodes: int, seed: int) -> Topology:
    return line_topology(num_nodes)


def _grid_topo(rows: int, cols: int, seed: int) -> Topology:
    return grid_topology(rows, cols, diagonal=True)


def _rgg_topo(num_nodes: int, seed: int) -> Topology:
    return random_geometric_topology(num_nodes, seed=seed)


def _random_failures_plan(
    num_failures: int,
    duration: float,
    mean_downtime: float,
    topology: Topology,
    seed: int,
) -> FailurePlan:
    rng = derive_rng(seed, "failures")
    return random_failure_plan(
        topology,
        rng,
        num_failures=num_failures,
        duration=duration,
        mean_downtime=mean_downtime,
    )


def _interference_field_assigner(
    num_interferers: int,
    radius: float,
    loss_penalty: float,
    mean_on: float,
    mean_off: float,
    topology: Topology,
    seed: int,
) -> LinkAssigner:
    from repro.net.interference import InterfererField, interference_assigner

    field = InterfererField.random(
        topology,
        seed=seed,
        num_interferers=num_interferers,
        radius=radius,
        loss_penalty=loss_penalty,
        mean_on=mean_on,
        mean_off=mean_off,
    )
    return interference_assigner(topology, field)


def line_scenario(
    num_nodes: int = 8,
    *,
    loss_low: float = 0.05,
    loss_high: float = 0.3,
    duration: float = 400.0,
    traffic_period: float = 4.0,
    max_retries: int = 30,
) -> Scenario:
    """Chain topology — controlled path lengths for encoding sweeps."""
    return Scenario(
        name=f"line{num_nodes}",
        topology_factory=partial(_line_topo, num_nodes),
        link_assigner=uniform_loss_assigner(loss_low, loss_high),
        sim_config=_config(
            duration=duration,
            traffic_period=traffic_period,
            noise=0.0,
            max_retries=max_retries,
        ),
    )


def static_grid_scenario(
    rows: int = 5,
    cols: int = 5,
    *,
    loss_low: float = 0.05,
    loss_high: float = 0.35,
    duration: float = 400.0,
    traffic_period: float = 4.0,
) -> Scenario:
    """Static multi-parent grid (8-connectivity, but no ETX noise)."""
    return Scenario(
        name=f"grid{rows}x{cols}",
        topology_factory=partial(_grid_topo, rows, cols),
        link_assigner=uniform_loss_assigner(loss_low, loss_high),
        sim_config=_config(
            duration=duration, traffic_period=traffic_period, noise=0.0
        ),
    )


def static_rgg_scenario(
    num_nodes: int = 100,
    *,
    loss_low: float = 0.05,
    loss_high: float = 0.35,
    duration: float = 400.0,
    traffic_period: float = 5.0,
    max_retries: int = 2,
) -> Scenario:
    """Random deployment with frozen routing — classical tomography's home turf.

    The default retry cap (2) keeps some end-to-end loss observable so the
    classical methods have signal to work with; with deep ARQ (CTP's 30+)
    end-to-end delivery saturates at ~1.0 and end-to-end tomography learns
    *nothing* about frame loss — the F5 bench reports both regimes.
    """
    return Scenario(
        name=f"static_rgg{num_nodes}",
        topology_factory=partial(_rgg_topo, num_nodes),
        link_assigner=uniform_loss_assigner(loss_low, loss_high),
        sim_config=_config(
            duration=duration, traffic_period=traffic_period, noise=0.0,
            max_retries=max_retries,
        ),
    )


def dynamic_rgg_scenario(
    num_nodes: int = 100,
    *,
    churn_noise: float = 0.6,
    loss_low: float = 0.05,
    loss_high: float = 0.35,
    duration: float = 400.0,
    traffic_period: float = 5.0,
    switch_threshold: float = 0.2,
    max_retries: int = 2,
) -> Scenario:
    """The paper's target regime: every node re-selects parents continually.

    ``churn_noise`` is the lognormal sigma of per-beacon ETX samples; 0.4
    gives mild churn, 1.0 heavy churn (calibrate with
    ``SimulationResult.churn_rate``).
    """
    return Scenario(
        name=f"dynamic_rgg{num_nodes}_n{churn_noise:g}",
        topology_factory=partial(_rgg_topo, num_nodes),
        link_assigner=uniform_loss_assigner(loss_low, loss_high),
        sim_config=_config(
            duration=duration,
            traffic_period=traffic_period,
            noise=churn_noise,
            switch_threshold=switch_threshold,
            max_retries=max_retries,
        ),
    )


def bursty_rgg_scenario(
    num_nodes: int = 60,
    *,
    p_good_to_bad: float = 0.05,
    p_bad_to_good: float = 0.25,
    duration: float = 400.0,
    traffic_period: float = 5.0,
    churn_noise: float = 0.3,
    max_retries: int = 2,
) -> Scenario:
    """Gilbert–Elliott bursty links (violates the iid assumption)."""
    return Scenario(
        name=f"bursty_rgg{num_nodes}",
        topology_factory=partial(_rgg_topo, num_nodes),
        link_assigner=gilbert_elliott_assigner(
            p_good_to_bad=p_good_to_bad, p_bad_to_good=p_bad_to_good
        ),
        sim_config=_config(
            duration=duration, traffic_period=traffic_period, noise=churn_noise,
            max_retries=max_retries,
        ),
    )


def drifting_rgg_scenario(
    num_nodes: int = 60,
    *,
    duration: float = 600.0,
    traffic_period: float = 5.0,
    churn_noise: float = 0.3,
    period_range=(100.0, 400.0),
) -> Scenario:
    """Non-stationary link qualities — the model-update ablation's regime."""
    return Scenario(
        name=f"drifting_rgg{num_nodes}",
        topology_factory=partial(_rgg_topo, num_nodes),
        link_assigner=drifting_loss_assigner(period_range=period_range),
        sim_config=_config(
            duration=duration, traffic_period=traffic_period, noise=churn_noise
        ),
    )


def drifting_line_scenario(
    num_nodes: int = 8,
    *,
    duration: float = 600.0,
    traffic_period: float = 3.0,
    period_range=(100.0, 400.0),
) -> Scenario:
    """Drifting links on a chain — isolates model updates from routing churn."""
    return Scenario(
        name=f"drifting_line{num_nodes}",
        topology_factory=partial(_line_topo, num_nodes),
        link_assigner=drifting_loss_assigner(period_range=period_range),
        sim_config=_config(
            duration=duration, traffic_period=traffic_period, noise=0.0
        ),
    )


def failing_rgg_scenario(
    num_nodes: int = 60,
    *,
    num_failures: int = 8,
    mean_downtime: float = 60.0,
    loss_low: float = 0.05,
    loss_high: float = 0.35,
    duration: float = 500.0,
    traffic_period: float = 4.0,
    churn_noise: float = 0.0,
    max_retries: int = 2,
) -> Scenario:
    """Node crashes and recoveries — topology dynamics without ETX noise.

    Each failure episode takes a random non-sink node down for an
    exponential downtime; routes re-form around it and snap back on
    recovery. A pure test of path-churn robustness: with
    ``churn_noise=0`` the *only* dynamics are the failures.
    """

    plan_factory = partial(
        _random_failures_plan, num_failures, duration, mean_downtime
    )

    return Scenario(
        name=f"failing_rgg{num_nodes}_f{num_failures}",
        topology_factory=partial(_rgg_topo, num_nodes),
        link_assigner=uniform_loss_assigner(loss_low, loss_high),
        sim_config=_config(
            duration=duration,
            traffic_period=traffic_period,
            noise=churn_noise,
            max_retries=max_retries,
        ),
        failure_plan_factory=plan_factory,
    )


def interference_rgg_scenario(
    num_nodes: int = 50,
    *,
    num_interferers: int = 3,
    interferer_radius: float = 0.3,
    loss_penalty: float = 0.35,
    mean_on: float = 20.0,
    mean_off: float = 60.0,
    duration: float = 400.0,
    traffic_period: float = 4.0,
    churn_noise: float = 0.2,
    max_retries: int = 2,
) -> Scenario:
    """Spatially-correlated interference bursts over a random deployment.

    On/off interference sources degrade every link in their neighbourhood
    simultaneously — cross-link loss correlation no per-link model has.
    """
    assigner_factory = partial(
        _interference_field_assigner,
        num_interferers,
        interferer_radius,
        loss_penalty,
        mean_on,
        mean_off,
    )

    return Scenario(
        name=f"interference_rgg{num_nodes}_i{num_interferers}",
        topology_factory=partial(_rgg_topo, num_nodes),
        link_assigner=None,
        sim_config=_config(
            duration=duration,
            traffic_period=traffic_period,
            noise=churn_noise,
            max_retries=max_retries,
        ),
        link_assigner_factory=assigner_factory,
    )
