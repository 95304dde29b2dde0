"""Compare two result sets written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

For every workload x end-to-end metric it prints both values, the
relative difference of B against A, the metric's bound from
``BENCHMARK.json`` and a mark:

- ``ok``          B is no worse than A by more than the bound;
- ``worse``       B is worse than A by more than the bound;
- ``unresolved``  the windows inside either set spread wider than the
                  bound, so a difference of that size cannot be told
                  from noise in these two sets.

Exits 1 if any pairing is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def window_spread(entry: dict) -> float:
    """(max - min) / median of a metric's per-window values."""
    values = entry.get("windows") or [entry["value"]]
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def compare(a: dict, b: dict, declared: list[dict]) -> list[dict]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        left = a["workloads"][workload].get("end_to_end", {})
        right = b["workloads"][workload].get("end_to_end", {})
        for metric in declared:
            name = metric["name"]
            if name not in left or name not in right:
                continue
            old, new = left[name]["value"], right[name]["value"]
            change = (new - old) / old if old else 0.0
            worsening = -change if metric["better"] == "higher" else change
            spread = max(window_spread(left[name]),
                         window_spread(right[name]))
            if spread > metric["bound"]:
                mark = "unresolved"
            elif worsening > metric["bound"]:
                mark = "worse"
            else:
                mark = "ok"
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], "a": old, "b": new,
                         "change": change, "bound": metric["bound"],
                         "spread": spread, "mark": mark})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    rows = compare(a, b, declared)
    print(f"{'workload':<17}{'metric':<16}{'A':>12}{'B':>12}  unit   "
          f"{'B vs A':>8}{'bound':>7}{'spread':>8}  mark")
    for row in rows:
        print(f"{row['workload']:<17}{row['metric']:<16}"
              f"{row['a']:>12.5g}{row['b']:>12.5g}  {row['unit']:<6} "
              f"{row['change']:>+8.1%}{row['bound']:>7.0%}"
              f"{row['spread']:>8.1%}  {row['mark']}")
    worse = [row for row in rows if row["mark"] == "worse"]
    print(f"{len(rows)} pairings: {len(worse)} worse, "
          f"{sum(row['mark'] == 'unresolved' for row in rows)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
