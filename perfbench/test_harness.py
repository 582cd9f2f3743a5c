"""Harness tests at fast sizes: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import signal
from contextlib import nullcontext
from typing import Any, Dict, Optional

import pytest

import bench
import tracing
import yardstick
from repro.net.faults import ShardFaultPlan
from repro.stream.sink import SinkConfig
from repro.stream.supervisor import RetryPolicy

SEED = 5
SMALL_F7 = bench.F7Workload("small_f7", 30, 80.0, 4.0, "event", 5, setups=2)
SMALL_SERVE = bench.ServeWorkload("small_serve", 0.0, setups=2)


@dataclasses.dataclass(frozen=True)
class QuarantineServe(bench.ServeWorkload):
    """Shard 0 crashes in round 2 with no restart budget: it is quarantined."""

    def sink_config(self) -> SinkConfig:
        return SinkConfig(retry=RetryPolicy(max_restarts=0))

    def faults(self, seed: int) -> Optional[ShardFaultPlan]:
        return ShardFaultPlan(seed=seed, crash_at=[(2, 0)])


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory: Any) -> Any:
    path = tmp_path_factory.mktemp("trace") / "small.jsonl"
    result = SMALL_F7.scenario().make_simulation(SEED).run()
    bench.save_trace(result, path)
    return path


def _serve(workload: Any, trace_path: Any, tmp_path: Any, traced: Any = None) -> Any:
    return bench.run_serve(
        workload, SEED, None, traced or nullcontext(), trace_path, tmp_path / "state"
    )


def _originals() -> Dict[Any, Any]:
    out = {}
    for owner, attr, _name, _hook in tracing.LAYER_CALLS:
        value = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        out[(id(owner), attr)] = value
    return out


def test_every_consumed_record_gets_one_latency_sample(trace_path, tmp_path):
    run = _serve(SMALL_SERVE, trace_path, tmp_path)
    assert run.fingerprint["consumed"] == run.fingerprint["records"] > 0
    assert len(run.latencies) == run.fingerprint["consumed"]
    assert all(x >= 0 for x in run.latencies)


def test_forced_quarantine_counts_failures(trace_path, tmp_path):
    workload = QuarantineServe("quarantine", 0.0, setups=1)
    run = _serve(workload, trace_path, tmp_path)
    assert run.failed > 0
    assert bench.run_metrics(workload, [run], 1.0)["failed_share"] > 0
    assert any("batch estimator" in msg for msg in run.problems)


def _perturbed(reference: Dict[str, Any], key: str) -> Dict[str, Any]:
    value = reference[key]
    return {**reference, key: value + 1 if isinstance(value, (int, float)) else value + "0"}


def test_perturbed_reference_fails_the_check():
    first = bench.run_f7(SMALL_F7, SEED, None, nullcontext())
    reference = dict(first.fingerprint)
    again = bench.run_f7(SMALL_F7, SEED, reference, nullcontext())
    assert not [msg for msg in again.problems if "reference" in msg]
    rerun = bench.run_f7(SMALL_F7, SEED, _perturbed(reference, "mae"), nullcontext())
    assert any(msg.startswith("mae:") for msg in rerun.problems)
    assert bench.check_against(first.fingerprint, reference) == []
    for key in reference:
        assert bench.check_against(first.fingerprint, _perturbed(reference, key)), key


@pytest.mark.parametrize("engine", ["event", "array"])
def test_traced_run_restores_patches_and_matches_untraced(engine, trace_path, tmp_path):
    before = _originals()
    workload = dataclasses.replace(SMALL_F7, engine=engine)
    untraced = bench.run_f7(workload, SEED, None, nullcontext())
    tracer = tracing.Tracer()
    with tracer.installed():
        assert len(tracer.patched) == len(tracing.LAYER_CALLS)
        assert _originals() != before
    traced = bench.run_f7(workload, SEED, None, tracer.installed())
    assert traced.fingerprint == untraced.fingerprint
    assert _originals() == before
    assert all(_originals()[k] is v for k, v in before.items())
    times = tracing.layer_times(tracer)
    assert times["net.simulation.self_s"] > 0
    assert times["core.decoder.decode_s"] > 0
    assert tracer.counts["core.decoder.decodes"] == traced.fingerprint["decodes"]
    assert tracer.counts["net.mac.sends"] > 0
    if engine == "array":
        assert times["net.routing.etx_sample_s"] > 0


def test_traced_serve_matches_untraced(trace_path, tmp_path):
    before = _originals()
    untraced = _serve(SMALL_SERVE, trace_path, tmp_path)
    tracer = tracing.Tracer()
    traced = _serve(SMALL_SERVE, trace_path, tmp_path, tracer.installed())
    assert traced.fingerprint == untraced.fingerprint
    assert all(_originals()[k] is v for k, v in before.items())
    assert tracer.counts["stream.wal.appends"] == untraced.fingerprint["consumed"]
    assert tracer.counts["stream.storage.fsyncs"] > 0
    assert tracer.counts["stream.storage.bytes_written"] > 0
    assert tracing.layer_times(tracer)["stream.shard.checkpoint_s"] > 0


def test_seed_runs_its_input_only_when_recorded():
    reference = bench.load_reference()
    for workload in bench.WORKLOADS.values():
        assert bench.input_seed(workload, bench.SEED, reference) == bench.SEED
        assert bench.input_seed(workload, bench.HOLDOUT, reference) == bench.HOLDOUT
        assert bench.input_seed(workload, 3, reference) == bench.SEED


def test_yardstick_scales_times_and_leaves_outputs_alone():
    plain = bench.run_f7(SMALL_F7, SEED, None, nullcontext())
    spent = yardstick.YARDSTICK.spent
    with yardstick.YARDSTICK.sampling() as samples:
        sampled = bench.run_f7(SMALL_F7, SEED, None, nullcontext())
        while not samples:
            yardstick.unit()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert yardstick.YARDSTICK.spent - spent == pytest.approx(sum(samples))
    assert sampled.fingerprint == plain.fingerprint
    raw = bench.run_metrics(SMALL_F7, [sampled])
    sampled.unit_s = yardstick.NOMINAL_UNIT_S / 2  # the host ran at half the reference speed
    scaled = bench.run_metrics(SMALL_F7, [sampled])
    for name in ("setup_s", "run_s", "total_s"):
        assert scaled[name] == pytest.approx(2 * raw[name])
