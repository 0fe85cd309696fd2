"""Fold the benchmark results of a parent and a change into one BENCH file.

    python3 tools/bench_json.py --tag TAG --parent DIR --change DIR

DIR holds the `result-<workload>-seed<N>-trace<T>.json` files that
`perfbench/run.py` wrote, usually a checkout's `.perfbench/`. For every
workload the output gives each metric's median and quartiles on both sides
over the runs found, untraced runs for the end-to-end metrics and traced ones
for the per-layer metrics; for end-to-end metrics also how many pairs of runs
at the same seed the change won, and the median and quartiles of the
change/parent ratio over those pairs: on a host that switches between speed
states, both runs of a pair share one state more often than the runs of a
side do. It also records the environment of the runs and the `src/` line
count of both sides. The output goes to BENCH_<TAG>.json in the current
directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads")


def load_runs(directory: Path) -> list[dict]:
    runs = [json.loads(path.read_text()) for path in sorted(directory.glob("result-*.json"))]
    if not runs:
        raise SystemExit(f"error: no result-*.json files in {directory}")
    return runs


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def directions() -> dict[str, str]:
    """Metric name -> "lower" or "higher", as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def fold(parent: list[dict], change: list[dict]) -> dict:
    better = directions()
    out = {}
    workloads = sorted({r["env"]["workload"] for r in parent + change})
    for wl in workloads:
        entry = {}
        for section, traced in (("end_to_end", 0), ("per_layer", 1)):
            sides = {
                side: {r["env"]["seed"]: r for r in runs
                       if r["env"]["workload"] == wl and r["env"]["trace"] == traced}
                for side, runs in (("parent", parent), ("change", change))
            }
            names = sorted({k for runs in sides.values() for r in runs.values() for k in r[section]})
            metrics = {}
            for name in names:
                row = {
                    side: summary([r[section][name] for r in runs.values() if name in r[section]])
                    for side, runs in sides.items()
                    if any(name in r[section] for r in runs.values())
                }
                if section == "end_to_end":
                    seeds = sorted(set(sides["parent"]) & set(sides["change"]))
                    sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
                    pairs = [
                        (sides["change"][s][section][name], sides["parent"][s][section][name])
                        for s in seeds
                    ]
                    won = sum(sign * c < sign * p for c, p in pairs)
                    row["change_won_pairs"] = f"{won}/{len(seeds)}"
                    ratios = [c / p for c, p in pairs if p]  # a parent at 0 has no ratio
                    if ratios:
                        ratio = summary(ratios)
                        ratio["pairs"] = ratio.pop("runs")
                        row["change_over_parent"] = ratio
                metrics[name] = row
            if metrics:
                entry[section] = metrics
        entry["fail_rate_max"] = {
            side: max((r["fail_rate"] for r in runs if r["env"]["workload"] == wl), default=None)
            for side, runs in (("parent", parent), ("change", change))
        }
        out[wl] = entry
    return out


def environment(runs: list[dict]) -> dict:
    env = {k: runs[0]["env"].get(k) for k in ENV_KEYS}
    loads = [r["env"][k] for r in runs for k in ("loadavg_1m_start", "loadavg_1m_end") if k in r["env"]]
    if loads:
        env["loadavg_1m_max"] = max(loads)
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tag", required=True)
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    args = p.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    bench = {
        "tag": args.tag,
        "environment": environment(change),
        "src_lines": {
            "parent": parent[0]["env"].get("src_lines"),
            "change": change[0]["env"].get("src_lines"),
        },
        "workloads": fold(parent, change),
    }
    out = Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
