"""Transaction-lifecycle spans and critical-path latency attribution.

The causal trace (:mod:`repro.obs.trace`) is a flat event stream; this
module reconstructs **per-transaction span trees** from it and answers
the evaluation question the paper's §8 turns on: *where does commit
latency go?* Eris's claim is that whole phases vanish from the commit
critical path (no lock hold time, no coordinator round trips); the span
layer makes the remaining phases measurable per run.

One committed independent transaction decomposes into a telescoping
chain of phases whose durations **sum exactly to the end-to-end client
latency** (each phase ends where the next begins):

====================  =====================================================
phase                 interval
====================  =====================================================
``retry_wait``        first submission -> the submission attempt whose
                      request produced the first counted reply (zero
                      unless the client had to retransmit)
``client_to_seq``     request injection -> fabric arrival at the sequencer
``sequencer``         sequencer arrival -> multi-stamp written (includes
                      traversal latency, queue wait — reported separately
                      from the ``queue_delay`` stamp field — and service)
``seq_to_replica``    multi-stamp -> fabric arrival of the fan-out copy at
                      the first-replying replica
``replica_apply``     request arrival at that replica -> its REPLY is sent
                      (inbox wait, log append, execution on the DL)
``reply_to_client``   REPLY sent -> REPLY arrives at the client
``quorum_wait``       first reply arrival -> view-consistent quorums from
                      every participant complete (waiting for the slowest
                      quorum member, including the DL's execution reply)
====================  =====================================================

The decomposition follows the *fastest* reply chain so every phase is
non-negative and the telescoping is exact; the **critical path** — the
same chain measured through the *slowest counted quorum member*, the
reply whose arrival completed the quorum — is attributed separately,
since that is the path a latency optimisation must shorten.

Failure handling is part of the tree: dropped fan-out copies become
zero-width ``dropped`` markers, §6.3 drop recoveries become ``recovery``
spans (with an ``fc_escalation`` child when peer recovery fails and the
Failure Coordinator's FIND-TXN protocol decides the slot's fate), and
client retransmissions appear as extra ``attempt`` subtrees.

Three consumers sit on top:

- :func:`analyze_trace` / :func:`analyze_spans` — per-phase latency
  breakdown (means exact; p50/p99 via per-participant-group
  :class:`~repro.obs.metrics.Histogram`\\ s folded with ``merge()``),
  rendered by ``repro.harness.cli trace analyze``;
- :func:`export_chrome_trace` — Chrome trace-event / Perfetto JSON, one
  process per transaction with one track per node, for timeline viewing;
- ``benchmarks/bench_latency_breakdown.py`` — pins the breakdown of a
  reference run as a ``BENCH_latency_breakdown.json`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.obs.metrics import Histogram
from repro.obs.trace import _as_dicts, write_jsonl

#: Telescoping phase order (sums to end-to-end latency per transaction).
PHASES = (
    "retry_wait",
    "client_to_seq",
    "sequencer",
    "seq_to_replica",
    "replica_apply",
    "reply_to_client",
    "quorum_wait",
)

#: Histogram geometry for phase aggregation: 100 ns floor with ~9%
#: bucket growth keeps p50/p99 tight at microsecond scale while staying
#: O(1) memory per phase.
_HIST_SCALE = 1e-7
_HIST_GROWTH = 2 ** 0.125


def _phase_histogram() -> Histogram:
    return Histogram(scale=_HIST_SCALE, growth=_HIST_GROWTH)


@dataclass
class Span:
    """One named interval observed at one node. ``children`` nest."""

    name: str
    start: float
    end: float
    node: str
    cause: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with ``name``."""
        out = [self] if self.name == name else []
        for child in self.children:
            out.extend(child.find(name))
        return out

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        out = {"name": self.name, "start": self.start, "end": self.end,
               "node": self.node}
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


@dataclass
class _Reply:
    """One replica's REPLY and (if not dropped) its client arrival."""

    ts: float
    node: str
    cause: int
    shard: int
    is_dl: bool
    arrival: Optional[float] = None   # deliver ts at the client


@dataclass
class TxnSpan:
    """Root of one transaction's span tree."""

    txn: str
    client: str
    start: float
    end: Optional[float]              # txn_complete ts; None if unfinished
    committed: Optional[bool]
    timedout: bool
    retries: int
    participants: tuple[int, ...]
    attempts: list[Span] = field(default_factory=list)
    recoveries: list[Span] = field(default_factory=list)
    replies: list[_Reply] = field(default_factory=list)
    #: Exact telescoping phase durations (completed, quorum-reaching
    #: transactions only).
    phases: Optional[dict[str, float]] = None
    #: Same decomposition through the slowest counted quorum member.
    critical: Optional[dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        return self.end is not None

    @property
    def end_to_end(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def as_span(self) -> Span:
        """The tree as a plain :class:`Span` (for export/rendering)."""
        end = self.end
        if end is None:
            ends = [a.end for a in self.attempts] + \
                   [r.end for r in self.recoveries]
            end = max(ends) if ends else self.start
        root = Span("txn", self.start, end, self.client,
                    attrs={"txn": self.txn, "committed": self.committed,
                           "timedout": self.timedout,
                           "retries": self.retries,
                           "participants": list(self.participants)},
                    children=list(self.attempts) + list(self.recoveries))
        if self.phases is not None and self.end is not None:
            first_arrival = self.end - self.phases["quorum_wait"]
            root.children.append(Span("quorum_wait", first_arrival,
                                      self.end, self.client))
        return root


@dataclass
class SpanForest:
    """Every transaction's span tree plus unattached recovery spans."""

    txns: list[TxnSpan]
    orphans: list[Span]

    @property
    def by_label(self) -> dict[str, TxnSpan]:
        return {t.txn: t for t in self.txns}

    def completed(self) -> list[TxnSpan]:
        return [t for t in self.txns if t.complete]

    def attributed(self) -> list[TxnSpan]:
        return [t for t in self.txns if t.phases is not None]


def _slot_key(slot) -> tuple:
    return tuple(slot)


class _Index:
    """Single-pass index of the flat event stream."""

    def __init__(self, events: list[dict[str, Any]]):
        self.submits: dict[str, list[dict]] = {}
        self.completes: dict[str, dict] = {}
        self.delivers: dict[int, list[dict]] = {}
        self.drops: dict[int, list[dict]] = {}
        self.stamps: dict[int, dict] = {}
        self.replies: dict[str, list[dict]] = {}
        self.slot_txn: dict[tuple, str] = {}
        self.applies: dict[tuple[str, str], float] = {}
        self.recovery_start: dict[tuple, dict] = {}
        self.recovery_peer: dict[tuple, dict] = {}
        self.recovery_fc: dict[tuple, dict] = {}
        self.fc_resolution: dict[tuple, dict] = {}
        for event in events:
            kind = event["kind"]
            if kind == "txn_submit":
                self.submits.setdefault(event["txn"], []).append(event)
            elif kind == "txn_complete":
                self.completes.setdefault(event["txn"], event)
            elif kind == "deliver":
                self.delivers.setdefault(event["cause"], []).append(event)
            elif kind == "drop":
                self.drops.setdefault(event["cause"], []).append(event)
            elif kind == "stamp":
                self.stamps.setdefault(event["cause"], event)
            elif kind == "reply":
                self.replies.setdefault(event["txn"], []).append(event)
            elif kind == "log_append":
                txn = event.get("txn")
                if txn is not None:
                    self.slot_txn.setdefault(_slot_key(event["slot"]), txn)
            elif kind == "apply":
                txn = event.get("txn")
                if txn is not None:
                    self.applies.setdefault((txn, event["node"]),
                                            event["ts"])
            elif kind == "recovery_start":
                key = (event["node"], _slot_key(event["slot"]))
                self.recovery_start.setdefault(key, event)
            elif kind == "recovery_peer":
                key = (event["node"], _slot_key(event["slot"]))
                self.recovery_peer.setdefault(key, event)
            elif kind == "recovery_fc":
                key = (event["node"], _slot_key(event["slot"]))
                self.recovery_fc.setdefault(key, event)
            elif kind in ("fc_found", "fc_dropped"):
                self.fc_resolution.setdefault(_slot_key(event["slot"]),
                                              event)


def build_spans(events: Iterable) -> SpanForest:
    """Reconstruct per-transaction span trees from a causal trace.

    Accepts :class:`~repro.obs.trace.TraceEvent` objects or flat dicts
    (the :func:`~repro.obs.trace.load_trace` output) interchangeably.
    Transactions appear in first-submission order. Event streams from
    adversarial runs — drops, retransmissions, FC escalations, view
    changes — still produce a well-formed forest: whatever segment of a
    transaction's lifecycle was observed becomes its subtree, and
    recovery activity that cannot be tied to a known transaction is
    returned in ``orphans`` rather than lost.
    """
    flat = _as_dicts(events)
    index = _Index(flat)
    txns: list[TxnSpan] = []
    for label, submits in index.submits.items():
        txns.append(_build_txn(label, submits, index))
    consumed: set[tuple] = set()
    for txn in txns:
        _attach_recoveries(txn, index, consumed)
        _attribute(txn, index)
    orphans = [_recovery_span(key, index)
               for key in index.recovery_start if key not in consumed]
    return SpanForest(txns=txns, orphans=orphans)


def _build_txn(label: str, submits: list[dict], index: _Index) -> TxnSpan:
    complete = index.completes.get(label)
    first = submits[0]
    txn = TxnSpan(
        txn=label,
        client=first["node"],
        start=first["ts"],
        end=None if complete is None else complete["ts"],
        committed=None if complete is None else complete.get("committed"),
        timedout=bool(complete and complete.get("timedout")),
        retries=(complete or submits[-1]).get("retries",
                                              submits[-1].get("retry", 0)),
        participants=tuple(first.get("participants", ())),
    )
    for submit in submits:
        txn.attempts.append(_build_attempt(submit, index))
    for reply in index.replies.get(label, ()):
        arrivals = [d["ts"] for d in index.delivers.get(reply["cause"], ())
                    if d["node"] == txn.client]
        txn.replies.append(_Reply(
            ts=reply["ts"], node=reply["node"], cause=reply["cause"],
            shard=reply.get("shard", -1), is_dl=bool(reply.get("is_dl")),
            arrival=min(arrivals) if arrivals else None))
    txn.replies.sort(key=lambda r: r.ts)
    return txn


def _build_attempt(submit: dict, index: _Index) -> Span:
    cause = submit["cause"]
    stamp = index.stamps.get(cause)
    seq_node = stamp["node"] if stamp is not None else None
    children: list[Span] = []
    replica_arrivals: dict[str, float] = {}
    seq_arrival: Optional[float] = None
    for deliver in index.delivers.get(cause, ()):
        if deliver["node"] == seq_node:
            seq_arrival = deliver["ts"]
        else:
            replica_arrivals.setdefault(deliver["node"], deliver["ts"])
    if seq_arrival is not None:
        children.append(Span("client_to_seq", submit["ts"], seq_arrival,
                             seq_node, cause=cause))
        if stamp is not None:
            attrs = {}
            if "queue_delay" in stamp:
                attrs["queue_delay"] = stamp["queue_delay"]
            children.append(Span("sequencer", seq_arrival, stamp["ts"],
                                 seq_node, cause=cause, attrs=attrs))
    for node, arrival in sorted(replica_arrivals.items()):
        start = stamp["ts"] if stamp is not None else arrival
        children.append(Span("fan_out_copy", start, arrival, node,
                             cause=cause,
                             children=[Span("seq_to_replica", start,
                                            arrival, node, cause=cause)]))
    for drop in index.drops.get(cause, ()):
        children.append(Span("dropped", drop["ts"], drop["ts"],
                             drop["node"], cause=cause,
                             attrs={"reason": drop.get("reason")}))
    end = max([c.end for c in children], default=submit["ts"])
    return Span("attempt", submit["ts"], end, submit["node"], cause=cause,
                attrs={"retry": submit.get("retry", 0)},
                children=children)


def _recovery_span(key: tuple, index: _Index) -> Span:
    node, slot = key
    start = index.recovery_start[key]
    peer = index.recovery_peer.get(key)
    fc = index.recovery_fc.get(key)
    resolution = index.fc_resolution.get(slot)
    children: list[Span] = []
    if peer is not None:
        end = peer["ts"]
        outcome = "peer"
    elif fc is not None:
        end = resolution["ts"] if resolution is not None else fc["ts"]
        outcome = resolution["kind"] if resolution is not None \
            else "unresolved"
        children.append(Span("fc_escalation", fc["ts"], end,
                             resolution["node"] if resolution else node,
                             attrs={"outcome": outcome}))
    else:
        end = start["ts"]
        outcome = "unresolved"
    return Span("recovery", start["ts"], end, node,
                attrs={"slot": list(slot), "outcome": outcome},
                children=children)


def _attach_recoveries(txn: TxnSpan, index: _Index,
                       consumed: set[tuple]) -> None:
    for key in index.recovery_start:
        label = index.slot_txn.get(key[1])
        if label == txn.txn:
            txn.recoveries.append(_recovery_span(key, index))
            consumed.add(key)


def _chain_phases(txn: TxnSpan, reply: _Reply,
                  index: _Index) -> Optional[dict[str, float]]:
    """Telescoping decomposition through one reply's request chain, or
    ``None`` when the chain was not fully observed (e.g. the replica
    learned the transaction via sync or recovery, not a direct copy)."""
    if reply.arrival is None:
        return None
    best = None
    for attempt in txn.attempts:
        stamp = index.stamps.get(attempt.cause)
        if stamp is None:
            continue
        seq_node = stamp["node"]
        seq_arrival = None
        replica_arrival = None
        for deliver in index.delivers.get(attempt.cause, ()):
            if deliver["node"] == seq_node:
                seq_arrival = deliver["ts"]
            elif deliver["node"] == reply.node \
                    and deliver["ts"] <= reply.ts:
                replica_arrival = deliver["ts"] if replica_arrival is None \
                    else min(replica_arrival, deliver["ts"])
        if seq_arrival is None or replica_arrival is None:
            continue
        candidate = (attempt.start, seq_arrival, stamp["ts"],
                     replica_arrival)
        if best is None or candidate[0] > best[0]:
            best = candidate  # latest attempt that explains the reply
    if best is None:
        return None
    submit_ts, seq_arrival, stamp_ts, replica_arrival = best
    return {
        "retry_wait": submit_ts - txn.start,
        "client_to_seq": seq_arrival - submit_ts,
        "sequencer": stamp_ts - seq_arrival,
        "seq_to_replica": replica_arrival - stamp_ts,
        "replica_apply": reply.ts - replica_arrival,
        "reply_to_client": reply.arrival - reply.ts,
        "quorum_wait": txn.end - reply.arrival,
    }


def _attribute(txn: TxnSpan, index: _Index) -> None:
    """Fill ``txn.phases`` (fastest chain, exactly additive) and
    ``txn.critical`` (slowest counted quorum member)."""
    if txn.end is None or txn.timedout:
        return
    counted = [r for r in txn.replies
               if r.arrival is not None and r.arrival <= txn.end]
    if not counted:
        return
    for reply in sorted(counted, key=lambda r: r.arrival):
        phases = _chain_phases(txn, reply, index)
        if phases is not None:
            txn.phases = phases
            break
    critical_reply = max(counted, key=lambda r: r.arrival)
    critical = {
        "node": critical_reply.node,
        "shard": critical_reply.shard,
        "is_dl": critical_reply.is_dl,
        "lag": critical_reply.arrival - counted[0].arrival
        if len(counted) > 1 else 0.0,
    }
    critical_phases = _chain_phases(txn, critical_reply, index)
    if critical_phases is not None:
        critical["phases"] = critical_phases
    txn.critical = critical


# -- aggregation -----------------------------------------------------------

def _stats(hist: Histogram) -> dict[str, float]:
    if hist.count == 0:
        return {"count": 0}
    return {
        "count": hist.count,
        "mean_us": hist.mean() * 1e6,
        "p50_us": hist.percentile(50) * 1e6,
        "p99_us": hist.percentile(99) * 1e6,
        "max_us": hist.max * 1e6,
    }


def analyze_spans(forest: SpanForest) -> dict[str, Any]:
    """Per-phase latency attribution for one trace's span forest.

    Phase and end-to-end distributions are aggregated per participant
    group (each distinct ``participants`` tuple gets its own
    :class:`Histogram` set) and folded into the global distributions
    with :meth:`Histogram.merge`, so the per-group split is available
    at no extra cost. Means are exact (histogram totals, not buckets);
    per transaction the phase durations sum exactly to the end-to-end
    latency, so mean phase sum equals mean end-to-end up to float
    rounding — ``consistency.residual_us`` reports the difference.
    """
    groups: dict[str, dict[str, Histogram]] = {}
    group_e2e: dict[str, Histogram] = {}
    critical_hists = {name: _phase_histogram() for name in PHASES}
    queue = _phase_histogram()
    lag = _phase_histogram()
    critical_members: dict[str, int] = {}
    phase_total = {name: 0.0 for name in PHASES}
    e2e_total = 0.0
    attributed = 0
    for txn in forest.txns:
        if txn.phases is None:
            continue
        attributed += 1
        key = "+".join(f"shard{p}" for p in txn.participants) or "unknown"
        hists = groups.setdefault(
            key, {name: _phase_histogram() for name in PHASES})
        group_e2e.setdefault(key, _phase_histogram()) \
                 .record(txn.end_to_end)
        e2e_total += txn.end_to_end
        for name in PHASES:
            hists[name].record(max(0.0, txn.phases[name]))
            phase_total[name] += txn.phases[name]
        if txn.critical is not None:
            member = f"{txn.critical['node']}"
            critical_members[member] = critical_members.get(member, 0) + 1
            lag.record(max(0.0, txn.critical["lag"]))
            for name, value in txn.critical.get("phases", {}).items():
                critical_hists[name].record(max(0.0, value))
    for txn in forest.txns:
        for attempt in txn.attempts:
            for span in attempt.find("sequencer"):
                delay = span.attrs.get("queue_delay")
                if delay is not None:
                    queue.record(delay)
    phases: dict[str, Histogram] = {name: _phase_histogram()
                                    for name in PHASES}
    e2e = _phase_histogram()
    for key, hists in groups.items():
        for name in PHASES:
            phases[name].merge(hists[name])
        e2e.merge(group_e2e[key])
    recoveries = [r for t in forest.txns for r in t.recoveries] \
        + list(forest.orphans)
    fc_escalated = sum(1 for r in recoveries if r.children)
    out: dict[str, Any] = {
        "txns": {
            "total": len(forest.txns),
            "completed": len(forest.completed()),
            "committed": sum(1 for t in forest.txns if t.committed),
            "timedout": sum(1 for t in forest.txns if t.timedout),
            "attributed": attributed,
        },
        "end_to_end": _stats(e2e),
        "phases": {
            name: dict(_stats(phases[name]),
                       share=(phase_total[name] / e2e_total
                              if e2e_total else 0.0))
            for name in PHASES
        },
        "phase_order": list(PHASES),
        "by_group": {
            key: {"count": group_e2e[key].count,
                  "e2e_mean_us": group_e2e[key].mean() * 1e6}
            for key in sorted(groups)
        },
        "consistency": {
            "mean_phase_sum_us": (sum(phase_total.values()) / attributed
                                  * 1e6) if attributed else 0.0,
            "mean_e2e_us": (e2e_total / attributed * 1e6)
            if attributed else 0.0,
        },
        "critical_path": {
            "phases": {name: _stats(critical_hists[name])
                       for name in PHASES},
            "by_member": dict(sorted(critical_members.items(),
                                     key=lambda kv: -kv[1])),
            "quorum_lag": _stats(lag),
        },
        "sequencer_queue": _stats(queue),
        "recovery": {
            "count": len(recoveries),
            "fc_escalated": fc_escalated,
            "orphaned": len(forest.orphans),
        },
    }
    consistency = out["consistency"]
    consistency["residual_us"] = (consistency["mean_phase_sum_us"]
                                  - consistency["mean_e2e_us"])
    return out


def analyze_trace(events: Iterable) -> dict[str, Any]:
    """``analyze_spans(build_spans(events))`` — the one-call entry
    point used by the CLI and the benchmark hook."""
    return analyze_spans(build_spans(events))


# -- Chrome trace-event / Perfetto export ----------------------------------

def export_chrome_trace(forest: SpanForest, path: str) -> int:
    """Write the forest in Chrome trace-event JSON (Perfetto-openable).

    Each transaction is one "process" (pid) whose tracks (tids) are the
    nodes its spans were observed at, so one transaction's lifecycle —
    request to the sequencer, fan-out copies, per-replica processing,
    replies, recoveries — reads left-to-right on one screen. Timestamps
    are microseconds of simulated time. Returns the event count; the
    document is written through :func:`~repro.obs.trace.write_jsonl`
    (as its one line), like :meth:`Tracer.export`.
    """
    trace_events: list[dict[str, Any]] = []

    def emit(span: Span, pid: int, tids: dict[str, int]) -> None:
        tid = tids.setdefault(span.node, len(tids))
        event = {
            "name": span.name,
            "cat": "txn",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": max(0.0, span.duration) * 1e6,
            "pid": pid,
            "tid": tid,
        }
        if span.attrs:
            event["args"] = dict(span.attrs)
        trace_events.append(event)
        for child in span.children:
            emit(child, pid, tids)

    def name_process(pid: int, label: str, tids: dict[str, int]) -> None:
        trace_events.append({"name": "process_name", "ph": "M", "pid": pid,
                             "args": {"name": label}})
        for node, tid in tids.items():
            trace_events.append({"name": "thread_name", "ph": "M",
                                 "pid": pid, "tid": tid,
                                 "args": {"name": node}})

    for pid, txn in enumerate(forest.txns, start=1):
        tids: dict[str, int] = {txn.client: 0}
        emit(txn.as_span(), pid, tids)
        name_process(pid, txn.txn, tids)
    if forest.orphans:
        tids = {}
        for orphan in forest.orphans:
            emit(orphan, 0, tids)
        name_process(0, "unattached recoveries", tids)

    payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    write_jsonl(path, [payload])
    return len(trace_events)
