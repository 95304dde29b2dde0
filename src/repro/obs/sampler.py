"""Periodic metrics sampling into a JSONL time-series.

A :class:`MetricsSampler` turns a :class:`~repro.obs.metrics.MetricsRegistry`
— a set of *current values* — into a *time series*: every ``interval``
seconds (driven by the owning runtime's own timer facility, so the
cadence is simulated-deterministic on the sim backend and wall-clock on
the UDP backend) it snapshots every instrument into one sample line.

Output format (documented in DESIGN.md):

- line 1 — metadata: ``{"metrics_series": {"interval": ..,
  "backend": .., "start": ..}}`` (the single wrapper key lets trace
  tooling recognize and skip it, mirroring the flight-recorder header);
- every further line — one sample:
  ``{"t": <runtime seconds>, "seq": <sample index>,
  "metrics": {component: {name: entry}}}``.

Entry shapes by instrument kind:

- **counter** / **monotone gauge** — ``{"v": total, "d": delta,
  "r": rate}`` where ``d`` is the increase since the previous sample
  (since :meth:`start` for the first) and ``r = d / dt``;
- **plain gauge** — the sampled number;
- **histogram** — the usual snapshot dict, with empty histograms
  rendered as ``{"count": 0}`` so the stream is valid JSON end to end
  (``NaN`` never appears in a series file).

Determinism: under the sim backend every field above derives from
simulated time and deterministic instrument values, so the exported
series is byte-stable across seeded reruns — pinned by
``tests/test_determinism.py``.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import read_jsonl, write_jsonl


def _sanitize_hist(snapshot: dict) -> dict:
    """An empty histogram snapshots to NaN mean/min/max/percentiles;
    JSON has no NaN, so collapse it to a bare count."""
    if snapshot.get("count", 0) == 0:
        return {"count": 0}
    return {k: v for k, v in snapshot.items()
            if not (isinstance(v, float) and math.isnan(v))}


class MetricsSampler:
    """Snapshots a registry into an in-memory series on a runtime timer.

    Lifecycle: ``start()`` captures the monotone baseline and arms the
    periodic timer; ``stop()`` disarms it and takes one final sample so
    short runs (shorter than one interval) still produce a non-empty
    series; ``export(path)`` writes JSONL atomically.
    """

    def __init__(self, runtime: Any, registry: MetricsRegistry,
                 interval: float = 0.05):
        if interval <= 0:
            raise ValueError(f"sample interval must be > 0: {interval}")
        self.runtime = runtime
        self.registry = registry
        self.interval = interval
        self.samples: list[dict[str, Any]] = []
        self._timer: Any = None
        self._prev: dict[tuple[str, str], float] = {}
        self._prev_t: float = 0.0
        self._start_t: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Capture the delta baseline now and begin sampling."""
        if self._timer is not None:
            return
        self._start_t = self._prev_t = self.runtime.now
        self._prev = {
            (component, name): instrument.get()
            for component, name, instrument in self.registry.instruments()
            if isinstance(instrument, Counter)
            or (isinstance(instrument, Gauge) and instrument.monotone)
        }
        self._timer = self.runtime.periodic(self.interval, self.sample)
        self._timer.start()

    def stop(self) -> None:
        """Disarm the timer and take one closing sample."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        if self._start_t is not None:
            self.sample()

    # -- sampling ----------------------------------------------------------
    def sample(self) -> dict[str, Any]:
        """Take one sample immediately (also the timer callback)."""
        t = self.runtime.now
        dt = t - self._prev_t
        metrics: dict[str, dict[str, Any]] = {}
        for component, name, instrument in self.registry.instruments():
            entry: Any
            if isinstance(instrument, Histogram):
                entry = _sanitize_hist(instrument.snapshot())
            elif isinstance(instrument, Counter) or (
                    isinstance(instrument, Gauge) and instrument.monotone):
                value = instrument.get()
                prev = self._prev.get((component, name), 0.0)
                delta = value - prev
                self._prev[(component, name)] = value
                entry = {"v": value, "d": delta,
                         "r": (delta / dt) if dt > 0 else 0.0}
            else:
                entry = instrument.get()
            metrics.setdefault(component, {})[name] = entry
        self._prev_t = t
        sample = {"t": t, "seq": len(self.samples), "metrics": metrics}
        self.samples.append(sample)
        return sample

    # -- export ------------------------------------------------------------
    def export(self, path: str) -> int:
        """Write the series as JSONL (metadata line first) through
        :func:`~repro.obs.trace.write_jsonl`; returns the sample
        count."""
        meta = {"metrics_series": {
            "interval": self.interval,
            "backend": getattr(self.runtime, "backend", "unknown"),
            "start": self._start_t if self._start_t is not None else 0.0,
        }}
        write_jsonl(path, itertools.chain([meta], self.samples))
        return len(self.samples)


def load_series(path: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a series file back as ``(meta, samples)``."""
    meta: dict[str, Any] = {}
    samples: list[dict[str, Any]] = []
    for obj in read_jsonl(path, "series"):
        if "metrics_series" in obj:
            meta = obj["metrics_series"]
        else:
            samples.append(obj)
    return meta, samples


def summarize_series(meta: dict[str, Any],
                     samples: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate a series for the ``stats`` CLI: per (component, name),
    the final value plus — for rate-bearing entries — mean/peak rate
    across samples, and — for histograms — the final count/p50/p99.

    Returns ``{"span": {...}, "rows": [row, ...]}`` where each row is
    ``{"component", "name", "kind", ...kind fields}`` sorted by
    (component, name).
    """
    rows: dict[tuple[str, str], dict[str, Any]] = {}
    rates: dict[tuple[str, str], list[float]] = {}
    for sample in samples:
        for component, names in sample.get("metrics", {}).items():
            for name, entry in names.items():
                key = (component, name)
                if isinstance(entry, dict) and "r" in entry:
                    rows[key] = {"component": component, "name": name,
                                 "kind": "rate", "total": entry["v"]}
                    # Sample 0's "delta since start()" rate is a
                    # startup artifact on the sim backend (time has not
                    # advanced); keep it — dt>0 guards division — but
                    # note peak/mean are over per-interval rates.
                    rates.setdefault(key, []).append(entry["r"])
                elif isinstance(entry, dict):  # histogram snapshot
                    row = {"component": component, "name": name,
                           "kind": "hist", "count": entry.get("count", 0)}
                    for field in ("mean", "p50", "p99", "max"):
                        if field in entry:
                            row[field] = entry[field]
                    rows[key] = row
                else:
                    rows[key] = {"component": component, "name": name,
                                 "kind": "gauge", "last": entry}
    for key, series in rates.items():
        nonzero = [r for r in series if r > 0]
        rows[key]["rate_mean"] = (sum(nonzero) / len(nonzero)
                                  if nonzero else 0.0)
        rows[key]["rate_peak"] = max(series) if series else 0.0
    span = {
        "samples": len(samples),
        "interval": meta.get("interval"),
        "backend": meta.get("backend", "unknown"),
        "t_first": samples[0]["t"] if samples else None,
        "t_last": samples[-1]["t"] if samples else None,
    }
    return {"span": span,
            "rows": [rows[k] for k in sorted(rows)]}
