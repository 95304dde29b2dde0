"""Tests of the benchmark itself, at ``--smoke`` sizes.

Run with ``python3 -m pytest bench/`` (not part of the tier-1
``testpaths``: the full-set fixture alone takes about half a minute).
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
from driver import percentile, poisson_schedule  # noqa: E402
from ledger import Ledger  # noqa: E402

CONTRACT = run.load_contract()
SMOKE_S = 0.5


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    """One ``run.py --smoke`` over every workload, both halves."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--out", str(out)], capture_output=True, text=True, cwd=ROOT,
        timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle), done.stdout


def test_every_declared_metric_is_reported(smoke_set):
    results, stdout = smoke_set
    for workload in CONTRACT["workloads"]:
        outcome = results["workloads"][workload["name"]]
        assert outcome["correct"] and outcome["failed"] == 0, \
            outcome["reasons"]
        for half in ("end_to_end", "per_layer"):
            for metric in CONTRACT[half]:
                value = outcome[half][metric["name"]]["value"]
                assert math.isfinite(value), (workload["name"], metric)
                assert metric["unit"]
        for metric in CONTRACT["end_to_end"]:
            assert outcome["end_to_end"][metric["name"]]["value"] > 0
    # The contract lines: one JSON object per workload, last on stdout.
    lines = stdout.strip().splitlines()[-len(CONTRACT["workloads"]):]
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert set(record["metrics"]) == {
            metric["name"] for metric in CONTRACT["end_to_end"]}
        for entry in record["metrics"].values():
            assert set(entry) == {"value", "unit"}


def test_failover_is_seen_only_where_it_is_injected(smoke_set):
    results, _ = smoke_set
    for name, outcome in results["workloads"].items():
        layers = outcome["per_layer"]
        expected = 1.0 if name == "sim_failover" else 0.0
        assert layers["controller.failovers"]["value"] == expected
        assert layers["fc.epoch_changes"]["value"] == expected
        assert (layers["outage_ms"]["value"] > 0) == (name == "sim_failover")


@pytest.mark.parametrize("workload", ["sim_srw_sat", "sim_failover"])
def test_simulated_metrics_repeat_exactly(workload):
    spec = run.window_spec(workload, 7, 0, SMOKE_S)
    first, second = run.spawn_window(spec), run.spawn_window(spec)
    assert first["correct"] and first["committed"] > 0
    for key in ("committed", "attempted", "latencies_ms", "retries"):
        assert first[key] == second[key], key
    assert first.get("outage_ms") == second.get("outage_ms")


def test_open_loop_schedule_is_a_function_of_the_seed():
    assert poisson_schedule(7, 400.0, 2.0) == poisson_schedule(7, 400.0, 2.0)
    assert poisson_schedule(7, 400.0, 2.0) != poisson_schedule(8, 400.0, 2.0)
    due = poisson_schedule(7, 400.0, 2.0)
    assert due == sorted(due) and 0.0 < due[0] and due[-1] < 2.0
    assert 600 < len(due) < 1000        # 800 expected


def test_percentile_against_hand_computed_case():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(values, 50) == 5.0     # ceil(0.5 * 10) = 5th
    assert percentile(values, 90) == 9.0
    assert percentile(values, 99) == 10.0    # ceil(9.9) = 10th
    assert percentile(values, 0) == 1.0
    assert percentile([4.0], 99) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ledger_restores_every_patched_name():
    from repro.core.replica import ErisReplica
    from repro.net.endpoint import Node
    from repro.runtime import asyncio_udp, codec

    encode, handle = codec.encode_packet, vars(ErisReplica)["handle"]
    ledger = Ledger()
    ledger.install()
    assert codec.encode_packet is not encode
    assert asyncio_udp.encode_packet is codec.encode_packet
    assert "deliver" in vars(ErisReplica)       # wrapped on the subclass
    assert Node.deliver is not ErisReplica.deliver
    ledger.uninstall()
    assert codec.encode_packet is encode
    assert asyncio_udp.encode_packet is encode
    assert "deliver" not in vars(ErisReplica)
    assert vars(ErisReplica)["handle"] is handle
    assert not ledger.missing


def test_ledger_survives_a_missing_name(capsys):
    ledger = Ledger()
    ledger.install({"gone": [("repro.runtime.codec", None, "no_such_name"),
                             ("repro.no_such_module", "Klass", "method")]})
    ledger.uninstall()
    assert len(ledger.missing) == 2
    assert "not found" in capsys.readouterr().err


def test_ledger_self_times_nest_and_fit_the_window():
    ledger = Ledger()
    inner = ledger.wrap("inner", "f", lambda: sum(range(2000)))
    outer = ledger.wrap("outer", "g", lambda: [inner() for _ in range(50)])
    import time
    began = time.perf_counter_ns()
    outer()
    elapsed = time.perf_counter_ns() - began
    self_ns, calls, _ = ledger.snapshot()
    assert calls == {"inner:f": 50, "outer:g": 1}
    assert 0 < self_ns["outer"] and 0 < self_ns["inner"]
    assert self_ns["inner"] + self_ns["outer"] <= elapsed

    traced = run.spawn_window(run.window_spec("sim_srw_sat", 7, 0, SMOKE_S,
                                              traced=True))
    assert traced["correct"]
    # Spans are wall-clock, so the window's wall time is what bounds
    # them (its CPU time is a little less whenever the host steals).
    total = sum(traced["ledger"]["self_ns"].values())
    assert 0 < total <= traced["raw"]["window_wall_s"] * 1e9


def test_compare_flags_a_planted_regression(smoke_set, tmp_path, capsys):
    results, _ = smoke_set
    slower = copy.deepcopy(results)
    entry = slower["workloads"]["sim_srw_sat"]["end_to_end"]["commit_tput"]
    entry["value"] /= 2
    entry["windows"] = [value / 2 for value in entry["windows"]]
    rows = compare.compare(results, slower, CONTRACT["end_to_end"])
    marks = {(row["workload"], row["metric"]): row["mark"] for row in rows}
    assert marks[("sim_srw_sat", "commit_tput")] == "worse"
    assert all(mark == "ok" for key, mark in marks.items()
               if key != ("sim_srw_sat", "commit_tput"))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
