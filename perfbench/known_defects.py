"""Reproduce the program defects found while building the benchmark.

    python3 perfbench/known_defects.py

`impsched sweep --methods proposed,baseline` exits 3 on the graphs below,
with "baseline LP ended numerical: solution violates original rows by ...":
the LP solver's own check of its solution against the unscaled rows fails.
The workloads' fixed instance sets do not contain these graphs, so benchmark
runs do not reach the defect; this script does. It prints the exit code of
each sweep and exits 1 while any of them still fails.
"""

from __future__ import annotations

import sys

import bootstrap

# (regime, tasks, generator seed) of graphs on which the sweep exits 3
GRAPHS = (
    ("man_mixed", 60, 15),
    ("man_high", 44, 246643601),
)


def main() -> int:
    bootstrap.pin()
    import impsched.cli as cli
    from impsched.taskgraph import serialize_task_graph

    from workloads import _gid, _graph

    d = bootstrap.WORK / "known_defects"
    d.mkdir(parents=True, exist_ok=True)
    failing = 0
    for regime, n, seed in GRAPHS:
        path = d / f"{_gid(regime, n, seed)}.tg"
        path.write_text(serialize_task_graph(_graph(regime, n, seed)))
        code = cli.main(["sweep", str(path), "--methods", "proposed,baseline",
                         "--out", str(path.with_suffix(".csv"))])
        failing += code != 0
        print(f"{path.stem}: impsched sweep exited {code}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
