"""Tests for trace record/replay."""

import json

import pytest

from repro.analysis.metrics import compare_estimates
from repro.net.link import uniform_loss_assigner
from repro.net.mac import MacConfig
from repro.net.routing import RoutingConfig
from repro.net.simulation import CollectionSimulation, SimulationConfig
from repro.net.topology import line_topology
from repro.net.tracefile import (
    load_trace,
    replay_into_estimator,
    save_trace,
    truth_from_header,
)


@pytest.fixture(scope="module")
def run_result():
    sim = CollectionSimulation(
        line_topology(5),
        seed=141,
        config=SimulationConfig(
            duration=200.0, traffic_period=2.0,
            mac=MacConfig(max_retries=5),
            routing=RoutingConfig(etx_noise_std=0.0),
        ),
        link_assigner=uniform_loss_assigner(0.1, 0.35),
    )
    return sim.run()


class TestRoundTrip:
    def test_save_and_load(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        header, packets = load_trace(path)
        assert header.num_nodes == 5
        assert header.sink == 0
        assert header.max_attempts == 6
        assert len(packets) == len(run_result.packets)

    def test_packet_fields_preserved(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        _, packets = load_trace(path)
        originals = {p.key: p for p in run_result.packets}
        for tp in packets:
            orig = originals[(tp.origin, tp.seqno)]
            assert tp.created_at == orig.created_at
            assert tp.delivered == orig.delivered
            assert len(tp.hops) == len(orig.hops)
            for (s, r, a, d), h in zip(tp.hops, orig.hops):
                assert (s, r, a, d) == (h.sender, h.receiver, h.attempts, h.delivered)

    def test_truth_embedded(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        header, _ = load_trace(path)
        truth = truth_from_header(header)
        live = run_result.ground_truth.true_loss_map()
        assert truth == pytest.approx(live)

    def test_truth_optional(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "bare.jsonl", include_truth=False)
        header, _ = load_trace(path)
        assert header.true_losses == {}


class TestReplay:
    def test_replay_matches_live_estimates(self, run_result, tmp_path):
        """Offline replay reproduces what an in-band system estimates."""
        path = save_trace(run_result, tmp_path / "run.jsonl")
        header, packets = load_trace(path)
        est = replay_into_estimator(header, packets)
        truth = truth_from_header(header)
        losses = {l: e.loss for l, e in est.estimates().items()}
        mae = compare_estimates(losses, truth).mae
        assert mae is not None and mae < 0.05

    def test_delivered_only_vs_all(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        header, packets = load_trace(path)
        inband = replay_into_estimator(header, packets, delivered_only=True)
        outofband = replay_into_estimator(header, packets, delivered_only=False)
        n_in = sum(inband.n_samples(l) for l in inband.links())
        n_out = sum(outofband.n_samples(l) for l in outofband.links())
        assert n_out >= n_in  # dropped packets' early hops add evidence


class TestMalformedTraces:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"type": "packet", "origin": 1, "seqno": 0,
                                 "created_at": 0.0, "hops": []}) + "\n")
        with pytest.raises(ValueError, match="no header"):
            load_trace(p)

    def test_unknown_record_type(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"type": "mystery"}) + "\n")
        with pytest.raises(ValueError, match="unknown record type"):
            load_trace(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"type": "header", "format_version": 99}) + "\n")
        with pytest.raises(ValueError, match="format version"):
            load_trace(p)

    def test_blank_lines_tolerated(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        content = path.read_text()
        path.write_text("\n" + content + "\n\n")
        header, packets = load_trace(path)
        assert len(packets) == len(run_result.packets)


def _edit_last_delivered_line(path, edit):
    """Replace the last delivered packet's line with ``edit(record)``, a
    record or a raw line; returns that line's number."""
    lines = path.read_text().splitlines()
    for index in range(len(lines) - 1, -1, -1):
        record = json.loads(lines[index])
        if record.get("delivered_at") is not None:
            edited = edit(record)
            lines[index] = edited if isinstance(edited, str) else json.dumps(edited)
            path.write_text("\n".join(lines) + "\n")
            return index + 1
    raise AssertionError("trace has no delivered packet")


def _edit_last_delivered_hop(path, edit):
    """Replace the last delivered packet's first hop with ``edit(hop)``;
    returns that packet's line number."""

    def edit_record(record):
        record["hops"][0] = edit(record["hops"][0])
        return record

    return _edit_last_delivered_line(path, edit_record)


def _without(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def _with(key, value):
    return lambda record: {**record, key: value}


def _edit_header(path, edit):
    lines = path.read_text().splitlines()
    lines[0] = json.dumps(edit(json.loads(lines[0])))
    path.write_text("\n".join(lines) + "\n")


def _with_attempts(attempts):
    return lambda hop: hop[:2] + [attempts] + hop[3:]


class TestHopValidation:
    @pytest.mark.parametrize("attempts", [0, 8])
    def test_delivered_attempts_outside_the_mac_range_rejected(
        self, run_result, tmp_path, attempts
    ):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        lineno = _edit_last_delivered_hop(path, _with_attempts(attempts))
        with pytest.raises(ValueError, match=rf"line {lineno}: .* outside \[1, 6\]"):
            load_trace(path)

    @pytest.mark.parametrize(
        "edit", [lambda hop: hop[:3], lambda hop: hop + [0]], ids=["3", "5"]
    )
    def test_hop_that_is_not_four_fields_rejected(self, run_result, tmp_path, edit):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        lineno = _edit_last_delivered_hop(path, edit)
        with pytest.raises(ValueError, match=rf"line {lineno}: hop .* is not"):
            load_trace(path)

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda hop: ["x"] + hop[1:], "non-integer sender or receiver"),
            (lambda hop: hop[:1] + [float(hop[1])] + hop[2:], "non-integer sender"),
            (lambda hop: hop[:3] + [1], "non-boolean delivered flag"),
        ],
        ids=["str-sender", "float-receiver", "int-delivered"],
    )
    def test_hop_with_a_mistyped_field_rejected(self, run_result, tmp_path, edit, error):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        lineno = _edit_last_delivered_hop(path, edit)
        with pytest.raises(ValueError, match=rf"line {lineno}: hop .* {error}"):
            load_trace(path)

    @pytest.mark.parametrize(
        "edit,error",
        [
            (_without("seqno"), "packet has no 'seqno'"),
            (_without("hops"), "packet has no 'hops'"),
            (_with("origin", "3"), "origin '3' and seqno .* must be integers"),
            (_with("seqno", 1.0), "seqno 1.0 must be integers"),
            (_with("created_at", "0.5"), "created_at '0.5' is not a number"),
            (_with("delivered_at", True), "delivered_at True is neither"),
            (_with("hops", {}), "hops {} is not a list"),
            (lambda record: "[1, 2]", r"\[1, 2\] is not a JSON object"),
            (lambda record: '{"type": "packet",', "not JSON"),
        ],
        ids=[
            "no-seqno", "no-hops", "str-origin", "float-seqno", "str-created_at",
            "bool-delivered_at", "dict-hops", "json-list", "truncated-json",
        ],
    )
    def test_packet_line_the_sink_cannot_use_rejected(
        self, run_result, tmp_path, edit, error
    ):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        lineno = _edit_last_delivered_line(path, edit)
        with pytest.raises(ValueError, match=rf"line {lineno}: .*{error}"):
            load_trace(path)

    @pytest.mark.parametrize(
        "edit,error",
        [
            (_without("max_attempts"), "header has no 'max_attempts'"),
            (_with("max_attempts", "6"), "max_attempts '6' is not a positive integer"),
            (_with("true_losses", {"1-2": 0.1}), "true_losses entry '1-2': 0.1 must map"),
            (_with("true_losses", {"a,b": 0.1}), "true_losses entry 'a,b': 0.1 must map"),
            (_with("true_losses", [[1, 2, 0.1]]), r"true_losses \[\[1, 2, 0.1\]\] is not a JSON"),
            (_with("true_losses", {"1,2": "0.1"}), "true_losses entry '1,2': '0.1' must map"),
            (_with("true_losses", {"1,2": True}), "true_losses entry '1,2': True must map"),
        ],
        ids=[
            "no-max_attempts", "str-max_attempts", "dash-key", "str-key", "list-truth",
            "str-loss", "bool-loss",
        ],
    )
    def test_header_the_sink_cannot_use_rejected(self, run_result, tmp_path, edit, error):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        _edit_header(path, edit)
        with pytest.raises(ValueError, match=rf"line 1: {error}"):
            load_trace(path)

    def test_a_packet_before_the_header_is_rejected(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
        with pytest.raises(ValueError, match="line 1: no header line before"):
            load_trace(path)

    def test_the_mac_range_itself_is_accepted(self, run_result, tmp_path):
        path = save_trace(run_result, tmp_path / "run.jsonl")
        _edit_last_delivered_hop(path, _with_attempts(6))
        _, packets = load_trace(path)
        assert len(packets) == len(run_result.packets)
