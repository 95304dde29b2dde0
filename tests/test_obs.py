"""Unit tests for the observability subsystem (repro.obs)."""

import json
import math

import pytest

from repro.net.message import GroupcastHeader, MultiStamp, Packet
from repro.obs import (
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSampler,
    Tracer,
    load_trace,
    merge_trace_shards,
    nearest_rank_index,
    summarize_trace,
)
from repro.obs import trace as trace_module
from repro.obs.spans import Span, SpanForest, export_chrome_trace
from repro.obs.trace import TraceEvent


def _packet(src="a", dst="b", payload="hello", **kwargs) -> Packet:
    return Packet(src=src, dst=dst, payload=payload, **kwargs)


# -- Tracer ----------------------------------------------------------------

def test_tracer_assigns_causal_ids_at_send():
    tracer = Tracer()
    p1, p2 = _packet(), _packet()
    tracer.packet_send(p1)
    tracer.packet_send(p2)
    assert p1.trace_id == 1
    assert p2.trace_id == 2
    assert [e.cause for e in tracer.select("send")] == [1, 2]


def test_tracer_causal_id_survives_fanout():
    tracer = Tracer()
    packet = _packet(dst=None,
                     groupcast=GroupcastHeader(groups=(0, 1)),
                     sequenced=True)
    tracer.packet_send(packet)
    copy = packet.copy_to("r0")
    assert copy.trace_id == packet.trace_id
    tracer.packet_tx(copy)
    tracer.packet_deliver(copy)
    (deliver,) = tracer.select("deliver")
    assert deliver.cause == packet.trace_id
    (send,) = tracer.select("send")
    assert send.data["groups"] == [0, 1]
    assert send.data["sequenced"] is True


def test_tracer_clock_and_reserved_keys():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.record("sync", "n0", shard=0)
    now[0] = 2.5
    event = tracer.record("sync", "n1", shard=1)
    assert event.ts == 2.5
    assert tracer.events[0].ts == 0.0
    with pytest.raises(ValueError):
        tracer.record("bad", "n0", ts=1.0)  # reserved schema field


def test_tracer_detects_reorder():
    tracer = Tracer()
    first, second = _packet(), _packet()
    tracer.packet_send(first)
    tracer.packet_send(second)
    tracer.packet_tx(first)
    tracer.packet_tx(second)
    # Second transmitted packet overtakes the first in flight.
    tracer.packet_deliver(second)
    tracer.packet_deliver(first)
    (reorder,) = tracer.select("reorder")
    assert reorder.cause == first.trace_id
    assert reorder.data["overtaken_by"] == 1
    assert tracer.count("deliver") == 2


def test_tracer_no_reorder_on_in_order_links():
    tracer = Tracer()
    packets = [_packet() for _ in range(5)]
    for p in packets:
        tracer.packet_send(p)
        tracer.packet_tx(p)
    for p in packets:
        tracer.packet_deliver(p)
    assert tracer.count("reorder") == 0


def test_tracer_drop_and_stamp_events():
    tracer = Tracer()
    packet = _packet(dst=None,
                     groupcast=GroupcastHeader(groups=(0, 2)),
                     sequenced=True)
    tracer.packet_send(packet)
    packet.multistamp = MultiStamp(epoch=3, stamps=((0, 7), (2, 9)))
    tracer.sequencer_stamp("seq0", packet)
    tracer.packet_drop(packet, reason="random-loss")
    (stamp,) = tracer.select("stamp")
    assert stamp.node == "seq0"
    assert stamp.data == {"epoch": 3, "stamps": [[0, 7], [2, 9]]}
    (drop,) = tracer.select("drop")
    assert drop.data["reason"] == "random-loss"
    assert drop.cause == packet.trace_id


def test_sequencer_stamp_records_queue_delay_only_when_given():
    tracer = Tracer()
    packet = _packet(dst=None, groupcast=GroupcastHeader(groups=(0,)),
                     sequenced=True)
    tracer.packet_send(packet)
    packet.multistamp = MultiStamp(epoch=1, stamps=((0, 1),))
    tracer.sequencer_stamp("seq0", packet)                  # legacy call
    tracer.sequencer_stamp("seq0", packet, queue_delay=2e-6)
    plain, delayed = tracer.select("stamp")
    assert "queue_delay" not in plain.data
    assert delayed.data["queue_delay"] == 2e-6


def test_tracer_export_and_load_roundtrip(tmp_path):
    tracer = Tracer(clock=lambda: 1.25)
    packet = _packet()
    tracer.packet_send(packet)
    tracer.record("apply", "r0", shard=0, index=1, entry_kind="txn",
                  txn="3:1")
    path = str(tmp_path / "trace.jsonl")
    assert tracer.export(path) == 2
    events = load_trace(path)
    assert len(events) == 2
    assert events[0]["kind"] == "send"
    assert events[1] == {"ts": 1.25, "kind": "apply", "node": "r0",
                         "cause": -1, "shard": 0, "index": 1,
                         "entry_kind": "txn", "txn": "3:1"}
    with open(path) as handle:       # every line is standalone JSON
        for line in handle:
            json.loads(line)


def test_export_is_atomic_and_leaves_no_temp_file(tmp_path):
    tracer = Tracer()
    tracer.packet_send(_packet())
    path = tmp_path / "trace.jsonl"
    path.write_text("precious previous export\n")
    tracer.export(str(path))
    assert list(tmp_path.iterdir()) == [path]   # temp file renamed away
    assert len(load_trace(str(path))) == 1


def test_export_failure_preserves_existing_file(tmp_path, monkeypatch):
    tracer = Tracer()
    tracer.packet_send(_packet())
    path = tmp_path / "trace.jsonl"
    path.write_text("precious previous export\n")
    monkeypatch.setattr(json, "dumps",
                        lambda *a, **k: (_ for _ in ()).throw(OSError("disk")))
    with pytest.raises(OSError):
        tracer.export(str(path))
    # The crash left neither a truncated export nor a temp file behind.
    assert path.read_text() == "precious previous export\n"
    assert list(tmp_path.iterdir()) == [path]


def _write_tracer(path, monkeypatch):
    tracer = Tracer()
    tracer.record("probe", "n", bad=object())
    tracer.export(path)


def _write_merged(path, monkeypatch):
    monkeypatch.setattr(trace_module, "load_trace", lambda shard: [
        {"ts": 0.0, "kind": "probe", "node": "n", "bad": object()}])
    merge_trace_shards(["shard-0.jsonl"], out_path=path)


def _write_recorder(path, monkeypatch):
    recorder = FlightRecorder(capacity=4)
    recorder.append(TraceEvent(ts=0.0, kind="probe", node="n",
                               data={"bad": object()}))
    recorder.dump(path, reason="test")


def _write_series(path, monkeypatch):
    sampler = MetricsSampler(None, MetricsRegistry())
    sampler.samples.append({"t": 0.0, "seq": 0, "bad": object()})
    sampler.export(path)


def _write_chrome(path, monkeypatch):
    orphan = Span("recovery", 0.0, 1.0, "n", attrs={"bad": object()})
    export_chrome_trace(SpanForest(txns=[], orphans=[orphan]), path)


@pytest.mark.parametrize("write", [_write_tracer, _write_merged,
                                   _write_recorder, _write_series,
                                   _write_chrome])
def test_unserializable_record_leaves_previous_file(tmp_path, monkeypatch,
                                                    write):
    """Every exporter writes through one atomic writer: a record that
    cannot be serialized fails the write but leaves the previous file
    intact and no ``.tmp.`` sibling behind."""
    path = tmp_path / "out.jsonl"
    path.write_text("precious previous export\n")
    with pytest.raises(TypeError):
        write(str(path), monkeypatch)
    assert path.read_text() == "precious previous export\n"
    assert list(tmp_path.iterdir()) == [path]


def test_load_trace_reports_offending_line_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"ts": 0.0, "kind": "send", "node": "a", "cause": 1}\n'
                    '{"ts": 0.1, "kind": "deliver", not json\n')
    with pytest.raises(ValueError, match=r"trace\.jsonl:2: malformed"):
        load_trace(str(path))


def test_summarize_trace_counts_and_stamp_gaps():
    tracer = Tracer()
    for seq in (1, 2, 4):            # seq 3 never stamped: one gap
        packet = _packet(dst=None, groupcast=GroupcastHeader(groups=(0,)),
                         sequenced=True)
        tracer.packet_send(packet)
        packet.multistamp = MultiStamp(epoch=1, stamps=((0, seq),))
        tracer.sequencer_stamp("seq0", packet)
    tracer.packet_drop(_packet(), reason="random-loss")
    summary = summarize_trace(tracer.events)
    assert summary["sends"] == 3
    assert summary["drops"] == 1
    assert summary["drop_reasons"] == {"random-loss": 1}
    assert summary["drop_rate"] == pytest.approx(1 / 3)
    assert summary["stamps"]["epoch1/group0"] == {
        "stamped": 3, "max_seq": 4, "gaps": 1}
    assert summary["view_changes"] == 0
    assert summary["epoch_changes"] == 0


def test_summarize_trace_accepts_flat_dicts():
    events = [{"ts": 0.0, "kind": "send", "node": "a", "cause": 1},
              {"ts": 0.1, "kind": "deliver", "node": "b", "cause": 1},
              {"ts": 0.2, "kind": "view_change_complete", "node": "r0",
               "cause": -1}]
    summary = summarize_trace(events)
    assert summary["events"] == 3
    assert summary["delivers"] == 1
    assert summary["view_changes"] == 1


# -- metrics ---------------------------------------------------------------

def test_nearest_rank_semantics():
    # 10 samples: p0 -> rank 1, p50 -> rank 5, p100 -> rank 10.
    assert nearest_rank_index(10, 0) == 0
    assert nearest_rank_index(10, 50) == 4
    assert nearest_rank_index(10, 100) == 9
    assert nearest_rank_index(1, 0) == 0
    assert nearest_rank_index(1, 100) == 0
    with pytest.raises(ValueError):
        nearest_rank_index(10, -1)
    with pytest.raises(ValueError):
        nearest_rank_index(10, 100.5)
    with pytest.raises(ValueError):
        nearest_rank_index(0, 50)


def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.get() == 5
    gauge = Gauge()
    gauge.set(2.5)
    assert gauge.get() == 2.5
    backing = [7]
    pull = Gauge(fn=lambda: backing[0])
    assert pull.get() == 7
    backing[0] = 9
    assert pull.get() == 9


def test_histogram_percentiles_and_snapshot():
    hist = Histogram(scale=1.0, growth=2.0)
    for value in (0.5, 1.5, 3.0, 100.0):
        hist.record(value)
    assert hist.count == 4
    assert hist.mean() == pytest.approx(26.25)
    assert hist.percentile(0) == 0.5          # exact min
    assert hist.percentile(100) == 100.0      # exact max
    # p50 -> rank 2 -> bucket (1, 2] -> upper bound 2.0
    assert hist.percentile(50) == 2.0
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["min"] == 0.5 and snap["max"] == 100.0
    with pytest.raises(ValueError):
        hist.record(-1.0)


def test_histogram_empty():
    hist = Histogram()
    assert math.isnan(hist.mean())
    assert math.isnan(hist.percentile(50))
    assert math.isnan(hist.snapshot()["p99"])


def test_registry_get_or_create_and_snapshot():
    registry = MetricsRegistry()
    counter = registry.counter("net", "packets_sent")
    assert registry.counter("net", "packets_sent") is counter
    counter.inc(3)
    registry.gauge("sim", "now", fn=lambda: 1.5)
    registry.histogram("net", "latency", scale=1.0).record(2.0)
    snap = registry.snapshot()
    assert snap["net"]["packets_sent"] == 3
    assert snap["sim"]["now"] == 1.5
    assert snap["net"]["latency"]["count"] == 1
    assert registry.components() == ["net", "sim"]


def test_registry_gauge_rewire_and_type_clash():
    registry = MetricsRegistry()
    registry.gauge("sim", "now", fn=lambda: 1.0)
    registry.gauge("sim", "now", fn=lambda: 2.0)   # rebuild re-wires
    assert registry.snapshot()["sim"]["now"] == 2.0
    registry.counter("net", "x")
    with pytest.raises(TypeError):
        registry.gauge("net", "x")


def test_registry_gauge_type_clash_with_fn_raises_typeerror():
    # Regression: the fn assignment used to run before the type check,
    # so a Counter registered under the key surfaced as AttributeError
    # (slots) instead of the intended TypeError.
    registry = MetricsRegistry()
    registry.counter("net", "x")
    with pytest.raises(TypeError, match="already registered as Counter"):
        registry.gauge("net", "x", fn=lambda: 1.0)


def test_histogram_merge_folds_exactly():
    left = Histogram(scale=1.0, growth=2.0)
    right = Histogram(scale=1.0, growth=2.0)
    for value in (0.5, 3.0):
        left.record(value)
    for value in (1.5, 100.0):
        right.record(value)
    combined = Histogram(scale=1.0, growth=2.0)
    for value in (0.5, 3.0, 1.5, 100.0):
        combined.record(value)
    assert left.merge(right) is left            # reduce-chain friendly
    assert left.buckets == combined.buckets
    assert left.count == 4
    assert left.total == pytest.approx(combined.total)
    assert left.min == 0.5 and left.max == 100.0
    assert left.percentile(50) == combined.percentile(50)


def test_histogram_merge_empty_operands():
    hist = Histogram(scale=1.0)
    hist.record(2.0)
    hist.merge(Histogram(scale=1.0))            # empty right: no-op
    assert hist.count == 1 and hist.min == 2.0 and hist.max == 2.0
    empty = Histogram(scale=1.0)
    empty.merge(hist)                           # empty left: becomes hist
    assert empty.count == 1
    assert empty.min == 2.0 and empty.max == 2.0


def test_histogram_merge_rejects_incompatible_geometry():
    base = Histogram(scale=1.0, growth=2.0)
    with pytest.raises(ValueError, match="geometry"):
        base.merge(Histogram(scale=2.0, growth=2.0))
    with pytest.raises(ValueError, match="geometry"):
        base.merge(Histogram(scale=1.0, growth=4.0))
    with pytest.raises(TypeError):
        base.merge([1.0, 2.0])
