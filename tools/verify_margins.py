"""Print each verifier check's worst margin over schedules the pipeline accepts.

    python3 tools/verify_margins.py [--check]

Sweeps the proposed and baseline methods over every ratio of the default grid
(eps* included) on the acceptance suite's 20 graphs, which the benchmark's
`oneshot` workload solves, on the four graphs of its `sweep` workload (all on
4 processors), and on the three graphs of CI's LP-fallback sweeps (on 2 or 3),
whose baseline rows the LP decides, and keeps the report of every schedule the
pipeline verifies. A sweep stops at a schedule that fails verification (or at
any other PipelineError), and the output names its graph and the error. For each check the output gives the most negative
margin over the reports (0 where none is negative) and the graph it came from,
beside the verifier's tolerance. With `--check` the exit code is 1 when a
margin lies within 10x of the tolerance (below -tolerance/10) or a sweep
stopped: a correct schedule that close to failing means the tolerance no
longer has the headroom it was chosen with.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import impsched.sweep as sweep  # noqa: E402
import impsched.verify as verify  # noqa: E402
from impsched.taskgraph import GeneratorParams, generate_random_graph  # noqa: E402

SUITE20 = [
    (regime, n, 100 + 10 * ri + si)
    for ri, regime in enumerate(("man_low", "man_med", "man_high", "man_mixed"))
    for si, n in enumerate((10, 14, 19, 27, 38))
]
SWEEP = [("man_low", 38, 7), ("man_med", 40, 3), ("man_mixed", 42, 17), ("man_high", 44, 19)]
# (regime, n, seed, processors) of CI's sweeps whose baseline rows the LP decides
FALLBACK = [("man_low", 40, 0, 2), ("man_low", 80, 0, 3), ("man_low", 80, 2, 3)]
GRAPHS = [(*graph, 4) for graph in SUITE20 + SWEEP] + FALLBACK
HEADROOM = 10.0


def worst_margins() -> tuple[dict[str, tuple[float, str]], int, list[str]]:
    """Check name -> (worst margin, graph id), the number of reports, and a
    line per graph whose sweep stopped at a PipelineError."""
    worst: dict[str, tuple[float, str]] = {}
    reports = 0
    current = [""]
    stopped = []
    checked = sweep.verify_schedule

    def record(*args, **kwargs):
        nonlocal reports
        report = checked(*args, **kwargs)
        reports += 1
        for c in report.checks:
            if c.margin < worst.setdefault(c.name, (0.0, ""))[0]:
                worst[c.name] = (c.margin, current[0])
        return report

    cfg = sweep.SweepConfig(methods=("proposed", "baseline"))
    sweep.verify_schedule = record
    try:
        for regime, n, seed, procs in GRAPHS:
            current[0] = f"{regime}_n{n}_s{seed}_p{procs}"
            g = generate_random_graph(
                GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=seed)
            )
            try:
                sweep.sweep_graph(current[0], g, sweep.default_platform(procs), cfg)
            except sweep.PipelineError as exc:
                stopped.append(f"{current[0]}: {str(exc).splitlines()[0]}")
    finally:
        sweep.verify_schedule = checked
    return worst, reports, stopped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when a margin lies within 10x of the tolerance")
    args = ap.parse_args(argv)
    worst, reports, stopped = worst_margins()
    tol = verify._TOL
    print(f"{reports} reports of correct schedules on {len(GRAPHS)} graphs, "
          f"tolerance {tol:.0e}")
    for line in stopped:
        print(f"sweep stopped on {line}")
    close = []
    for name, (margin, where) in worst.items():
        flag = ""
        if margin < -tol / HEADROOM:
            close.append(name)
            flag = "  WITHIN 10x OF THE TOLERANCE"
        print(f"{name:24s} {margin: .3e}  {where or '-'}{flag}")
    if args.check and (close or stopped):
        if close:
            print(f"error: {', '.join(close)} within 10x of the tolerance", file=sys.stderr)
        if stopped:
            print(f"error: {len(stopped)} sweeps stopped", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
