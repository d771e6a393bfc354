"""Compare two result sets of `bench/run.py` and judge every metric.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are JSON-lines files written by `bench/run.py
--record`, or JSON files holding such records under "records" (as
`bench/baseline.json` does).  For each workload and metric the report
gives each side's median and quartiles, the change of the median, and a
verdict against the metric's bound in BENCHMARK.json:

  regression   the change's median is worse than the parent's by more
               than the bound
  unresolved   a side's quartile spread, as a share of its median,
               exceeds the bound, and not every run of the change beats
               (or loses to) every run of the parent
  improved     better by more than the parent's own quartile spread, and
               the change wins at least nine tenths of the seed-matched
               pairs
  same         none of these; per-layer metrics have no bound and get
               only `improved` or `same`

It also reports, per workload, the seeds whose outputs digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return json.loads(text)["records"]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def by_metric(records: list[dict]) -> dict:
    """{(workload, metric): {seed: value}}"""
    out: dict = defaultdict(dict)
    for r in records:
        for name, m in r["result"]["metrics"].items():
            out[(r["workload"], name)][r["seed"]] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: dict, b: dict, better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, relative worsening of the median) of change b against
    parent a, each {seed: value}."""
    va, vb = list(a.values()), list(b.values())
    ma, mb = statistics.median(va), statistics.median(vb)
    sign = 1 if better == "lower" else -1
    if ma == 0:
        worse = 0.0 if mb == 0 else float("inf") * sign * (1 if mb > 0 else -1)
    else:
        worse = sign * (mb - ma) / abs(ma)
    if bound is not None and max(spread(va), spread(vb)) > bound:
        if all(sign * (y - x) < 0 for x in va for y in vb):
            return "improved", worse
        if all(sign * (y - x) > 0 for x in va for y in vb):
            return "regression", worse
        return "unresolved", worse
    if bound is not None and worse > bound:
        return "regression", worse
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and -worse > spread(va) and wins >= 0.9 * len(pairs):
        return "improved", worse
    return "same", worse


def digests(records: list[dict]) -> dict:
    return {(r["workload"], r["seed"]): r["outputs_digest"] for r in records}


def report(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = by_metric(parent), by_metric(change)
    lines = [f"{'workload':14s} {'metric':30s} {'unit':8s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'worse':>8s}  verdict"]
    for key in sorted(set(a) & set(b)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        v, worse = verdict(a[key], b[key], m["better"], m.get("bound"))
        qa, qb = quartiles(list(a[key].values())), quartiles(list(b[key].values()))
        lines.append(f"{workload:14s} {name:30s} {m['unit']:8s} "
                     f"{qa[1]:12.6g} [{qa[0]:9.4g}, {qa[2]:9.4g}] "
                     f"{qb[1]:12.6g} [{qb[0]:9.4g}, {qb[2]:9.4g}] "
                     f"{100 * worse:7.1f}%  {v}")
    da, db = digests(parent), digests(change)
    for workload in sorted({w for w, _ in da}):
        seeds = sorted(s for w, s in da if w == workload and (w, s) in db)
        differ = [s for s in seeds if da[(workload, s)] != db[(workload, s)]]
        if seeds:
            lines.append(f"{workload:14s} outputs: " + (
                f"differ on seeds {differ}" if differ else f"same on {len(seeds)} seeds"))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    print("\n".join(report(load(args.parent), load(args.change), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
