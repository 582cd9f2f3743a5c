"""Benchmark-side tracing: wrap public calls per layer, keep spans in memory.

The program has no tracing of its own yet, so the traced run records
spans from the outside. :class:`Tracer` replaces each public function
named in :data:`LAYER_CALLS` *where its caller looks it up* (a class
attribute, or a module global such as ``repro.core.dophy.decode_annotation``)
with a wrapper that records one span per call, and puts every original
object back when the run ends.

A span is ``(name, start, end, parent)``; spans live in four flat arrays
(24 bytes each) so a 5k-node run's ~2M spans fit in memory, and are
written to a side file (``.npz``) once the run is over. A span's *self
time* is its duration minus the durations of its direct children.

Wall-clock (``time.perf_counter``) is used for spans: the fsync span
should show the time the process waited for the disk.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis import metrics as analysis_metrics
from repro.core import dophy as core_dophy
from repro.core.annotation import AnnotationCodec
from repro.core.decoder import AnnotationDecodeError
from repro.core.estimator import PerLinkEstimator
from repro.core.model import ModelManager
from repro.net.events import CalendarQueue, EventQueue
from repro.net.fastsim import FastArqMac, VectorizedEtxSampler
from repro.net.link import Channel
from repro.net.mac import ArqMac
from repro.net.routing import RoutingEngine
from repro.net.sim import Simulator
from repro.stream import sink as stream_sink
from repro.stream import source as stream_source
from repro.stream.shard import ShardWorker
from repro.stream.sink import StreamingSink
from repro.stream.storage import DirectoryStore
from repro.stream.wal import WriteAheadLog
from repro.workloads import scenarios as workload_scenarios

#: Called after a wrapped call returns: ``hook(tracer, result, args)``.
ResultHook = Callable[["Tracer", Any, Tuple[Any, ...]], None]


def _count(name: str) -> ResultHook:
    def hook(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
        tracer.counts[name] += 1

    return hook


def _count_truthy(name: str) -> ResultHook:
    def hook(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
        if result:
            tracer.counts[name] += 1

    return hook


def _mac_send(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    # FastArqMac.send falls back to ArqMac.send for edges it cannot
    # buffer; only the outermost call is one exchange.
    if tracer.depth("net.mac.send") == 0:
        tracer.counts["net.mac.sends"] += 1
        tracer.counts["net.mac.attempts"] += result.attempts


def _serialize(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["core.annotation.bits"] += result[1]


def _solve(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["core.estimator.solves"] += 1
    links = tracer.counts["core.estimator.links"]
    tracer.counts["core.estimator.links"] = max(links, len(result))


def _append_bytes(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["stream.storage.bytes_written"] += len(args[2].encode("utf-8")) + 1


def _write_bytes(tracer: "Tracer", result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["stream.storage.bytes_written"] += len(args[2])


#: (owner, attribute, span name or None for count-only, result hook).
#: Module owners are the module the *caller* reads the name from.
LAYER_CALLS: List[Tuple[Any, str, Optional[str], Optional[ResultHook]]] = [
    # net.* build
    (workload_scenarios, "random_geometric_topology", "net.topology.build", None),
    (Channel, "build", "net.link.channel_build", None),
    (RoutingEngine, "__init__", "net.routing.init", None),
    (VectorizedEtxSampler, "__init__", "net.fastsim.sampler_init", None),
    (stream_source, "bundle_from_trace", "net.tracefile.load", None),
    # net.routing
    (RoutingEngine, "beacon_round", "net.routing.beacon", _count("net.routing.beacon_rounds")),
    (VectorizedEtxSampler, "__call__", "net.routing.etx_sample", None),
    (RoutingEngine, "on_data_sample", "net.routing.data_sample",
     _count("net.routing.data_samples")),
    # net.mac
    (FastArqMac, "send", "net.mac.send", _mac_send),
    (ArqMac, "send", "net.mac.send", _mac_send),
    # net.events
    (EventQueue, "push", "net.events.push", _count("net.events.pushes")),
    (CalendarQueue, "push", "net.events.push", _count("net.events.pushes")),
    (EventQueue, "pop", "net.events.pop", _count("net.events.pops")),
    (CalendarQueue, "pop", "net.events.pop", _count("net.events.pops")),
    # net.simulation: the event loop; its self time is forwarding,
    # traffic, ground truth and dispatch not covered by a child span.
    (Simulator, "run_until", "net.simulation.run_until", None),
    # core.annotation / core.decoder / core.model
    (AnnotationCodec, "new_annotation", "core.annotation.encode", None),
    (AnnotationCodec, "annotate_hop", "core.annotation.encode",
     _count("core.annotation.hops_encoded")),
    (AnnotationCodec, "serialize", "core.annotation.serialize", _serialize),
    (core_dophy, "decode_annotation", "core.decoder.decode", _count("core.decoder.decodes")),
    (ModelManager, "maybe_update", "core.model.update", _count_truthy("core.model.updates")),
    (ModelManager, "observe_hops", "core.model.observe", None),
    # core.estimator
    (PerLinkEstimator, "add_decoded", "core.estimator.add", None),
    (PerLinkEstimator, "add_exact", "core.estimator.add", _count("core.estimator.adds")),
    (PerLinkEstimator, "estimates", "core.estimator.solve", _solve),
    (PerLinkEstimator, "merge", "core.estimator.merge", None),
    # analysis
    (analysis_metrics, "compare_estimates", "analysis.score", None),
    # stream.wal / stream.storage
    (WriteAheadLog, "append", "stream.wal.append", _count("stream.wal.appends")),
    (WriteAheadLog, "truncate_through", "stream.wal.truncate", None),
    (os, "fsync", "stream.storage.fsync", _count("stream.storage.fsyncs")),
    (DirectoryStore, "append_line", None, _append_bytes),
    (DirectoryStore, "write_atomic", None, _write_bytes),
    # stream.shard
    (stream_sink, "shard_apply_task", "stream.shard.apply", None),
    (ShardWorker, "absorb", "stream.shard.absorb", None),
    (ShardWorker, "checkpoint", "stream.shard.checkpoint", _count("stream.shard.checkpoints")),
    (ShardWorker, "restore", "stream.shard.restore", _count("stream.shard.restores")),
    (ShardWorker, "peek_durable", "stream.shard.peek_durable", None),
    # stream.sink
    (StreamingSink, "global_estimator", "stream.sink.merge", None),
    (stream_sink, "save_checkpoint", "stream.sink.manifest", None),
]


class Tracer:
    """In-memory span and count recorder with attribute patching."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = [-1]
        self._open: Dict[str, int] = defaultdict(int)
        #: (owner, attribute, original object) for every installed patch.
        self.patched: List[Tuple[Any, str, Any]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def depth(self, name: str) -> int:
        """How many spans called ``name`` enclose the current point."""
        return self._open[name]

    def _begin(self, nid: int, name: str) -> int:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.span_start.append(perf_counter())
        return index

    def _finish(self, index: int, name: str) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()
        self._open[name] -= 1

    def wrap(
        self, fn: Callable[..., Any], name: Optional[str], hook: Optional[ResultHook]
    ) -> Callable[..., Any]:
        """A stand-in for ``fn`` that records a span and runs ``hook``."""
        tracer = self
        if name is None:
            assert hook is not None

            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                hook(tracer, result, args)
                return result

            return counted
        nid = self.name_id(name)
        begin, finish = self._begin, self._finish
        # A failed decode raises instead of returning, so it is counted here.
        failures = "core.decoder.failures" if name == "core.decoder.decode" else None

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = begin(nid, name)
            try:
                result = fn(*args, **kwargs)
            except AnnotationDecodeError:
                if failures is not None:
                    tracer.counts[failures] += 1
                raise
            finally:
                finish(index, name)
            if hook is not None:
                hook(tracer, result, args)
            return result

        return timed

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every :data:`LAYER_CALLS` entry; restore them on exit."""
        try:
            for owner, attr, name, hook in LAYER_CALLS:
                self._patch(owner, attr, name, hook)
            yield self
        finally:
            while self.patched:
                owner, attr, original = self.patched.pop()
                setattr(owner, attr, original)

    def _patch(
        self, owner: Any, attr: str, name: Optional[str], hook: Optional[ResultHook]
    ) -> None:
        if isinstance(owner, type):
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(original.__func__, name, hook))
        else:
            replacement = self.wrap(original, name, hook)
        self.patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[float, float, int]]:
        """``name -> (self seconds, inclusive seconds, span count)``."""
        n = len(self.span_name)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.intc)
        parents = np.frombuffer(self.span_parent, dtype=np.intc)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=n)
        own = duration - children
        k = len(self.names)
        self_sum = np.bincount(names, weights=own, minlength=k)
        incl_sum = np.bincount(names, weights=duration, minlength=k)
        calls = np.bincount(names, minlength=k)
        return {
            name: (float(self_sum[i]), float(incl_sum[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: "os.PathLike[str] | str") -> None:
        """Write every span and count to a compressed side file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.intc),
            span_parent=np.frombuffer(self.span_parent, dtype=np.intc),
            span_start=np.frombuffer(self.span_start),
            span_end=np.frombuffer(self.span_end),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)], dtype=np.int64),
        )


#: Per-layer ``_s`` metrics: metric -> span names whose self times it sums.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "net.topology.build_s": ("net.topology.build",),
    "net.link.channel_build_s": ("net.link.channel_build",),
    "net.routing.init_s": ("net.routing.init",),
    "net.fastsim.sampler_init_s": ("net.fastsim.sampler_init",),
    "net.tracefile.load_s": ("net.tracefile.load",),
    "net.routing.etx_sample_s": ("net.routing.etx_sample",),
    "net.routing.tree_s": ("net.routing.beacon",),
    "net.routing.data_sample_s": ("net.routing.data_sample",),
    "net.mac.send_s": ("net.mac.send",),
    "net.events.push_s": ("net.events.push",),
    "net.events.pop_s": ("net.events.pop",),
    "net.simulation.self_s": ("net.simulation.run_until",),
    "core.annotation.encode_s": ("core.annotation.encode",),
    "core.annotation.serialize_s": ("core.annotation.serialize",),
    "core.decoder.decode_s": ("core.decoder.decode",),
    "core.model.update_s": ("core.model.update",),
    "core.model.observe_s": ("core.model.observe",),
    "core.estimator.add_s": ("core.estimator.add",),
    "core.estimator.solve_s": ("core.estimator.solve",),
    "core.estimator.merge_s": ("core.estimator.merge",),
    "analysis.score_s": ("analysis.score",),
    "stream.wal.append_s": ("stream.wal.append",),
    "stream.wal.truncate_s": ("stream.wal.truncate",),
    "stream.storage.fsync_s": ("stream.storage.fsync",),
    "stream.shard.apply_s": ("stream.shard.apply",),
    "stream.shard.absorb_s": ("stream.shard.absorb",),
    "stream.shard.checkpoint_s": ("stream.shard.checkpoint",),
    "stream.shard.restore_s": ("stream.shard.restore",),
    "stream.shard.peek_durable_s": ("stream.shard.peek_durable",),
    "stream.sink.merge_s": ("stream.sink.merge",),
    "stream.sink.manifest_s": ("stream.sink.manifest",),
}

#: Per-layer ``_s`` metrics that are inclusive (span duration, children
#: included): a beacon round is the ETX sampler plus the tree repair.
INCLUSIVE_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "net.routing.beacon_s": ("net.routing.beacon",),
}

#: Counts recorded by the wrappers (the workloads add end-of-run counts).
WRAPPER_COUNTS = (
    "net.routing.beacon_rounds",
    "net.routing.data_samples",
    "net.mac.sends",
    "net.mac.attempts",
    "net.events.pushes",
    "net.events.pops",
    "core.annotation.hops_encoded",
    "core.annotation.bits",
    "core.decoder.decodes",
    "core.decoder.failures",
    "core.model.updates",
    "core.estimator.links",
    "core.estimator.adds",
    "core.estimator.solves",
    "stream.wal.appends",
    "stream.storage.fsyncs",
    "stream.storage.bytes_written",
    "stream.shard.checkpoints",
    "stream.shard.restores",
)


def layer_times(tracer: Tracer) -> Dict[str, float]:
    """Every ``_s`` per-layer metric from the recorded spans."""
    spans = tracer.self_times()
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(spans[n][0] for n in names if n in spans)
    for metric, names in INCLUSIVE_TIME_METRICS.items():
        out[metric] = sum(spans[n][1] for n in names if n in spans)
    return out
