"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,oneshot,bnb} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the run times passes over the workload's instance set with
tracing off and reports the end-to-end metrics. With --trace 1 it alternates
an untraced and a traced pass and reports the per-layer metrics; the spans
of the traced passes go to .perfbench/spans-<workload>-seed<N>.jsonl.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed`, `metrics`.
README.md lists the metrics and which end-to-end metric each layer metric
is expected to move, on which workload.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform as pyplatform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402

SETUP_REPEATS = 5
COVERAGE_MIN = {"sweep": 0.95, "oneshot": 0.95}
BNB_SHARE_MIN = 0.90

PER_LAYER_UNITS = {
    "lp.solve_s": "s", "lp.solves": "count", "lp.iterations": "count",
    "lp.iterations_per_solve": "count", "lp.us_per_iteration": "us",
    "lp.infeasible_solves": "count", "lp.rows_max": "count", "lp.nnz_share": "ratio",
    "lp.compile_s": "s", "schedlp.build_s": "s", "schedlp.decode_s": "s",
    "schedlp.builds": "count", "milp.build_s": "s", "milp.bnb_s": "s",
    "milp.nodes": "count", "milp.ms_per_node": "ms", "milp.lp_solves": "count",
    "milp.lp_s": "s", "milp.self_s": "s", "milp.lp_infeasible_share": "ratio",
    "sweep.points": "count", "sweep.infeasible_points": "count",
    "sweep.eps_star_s": "s", "sweep.self_s": "s", "imprecision.label_s": "s",
    "listsched.heft_s": "s", "taskgraph.s": "s", "verify.s": "s",
    "verify.calls": "count", "cli.self_s": "s", "trace.span_coverage": "ratio",
    "trace.overhead_share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "oneshot", "bnb"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def src_lines() -> int:
    return sum(
        len(f.read_text().splitlines())
        for f in sorted((bootstrap.SRC / "impsched").glob("*.py"))
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.pin()
    load_start = os.getloadavg()[0]

    import numpy as np

    import check
    import spans
    from workloads import WORKLOADS, warm_up

    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    bootstrap.WORK.mkdir(exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        state = wl.setup(args.seed, bootstrap.WORK)
        warm_up()
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    tally = check.Tally(wl, check.load_table(wl.name))
    walls, traced_walls, point_times, per_layer = [], [], [], []
    spans_path = bootstrap.WORK / f"spans-{wl.name}-seed{args.seed}.jsonl"
    spans_file = open(spans_path, "w") if args.trace else None

    def timed_pass(targets):
        with spans.Recorder(targets) as rec:
            t = time.perf_counter()
            result = wl.run_pass(state, rec)
            wall = time.perf_counter() - t
        tally.add(result, rec)
        return wall, rec

    # The first pass also captures its LPs for the HiGHS check, which runs
    # after peak memory is read. Later passes keep only their times.
    first_rec = None
    t_measure = time.perf_counter()
    while True:
        t = time.perf_counter()
        wall, rec = timed_pass(spans.POINTS + spans.LP_CAPTURE if first_rec is None
                               else spans.POINTS)
        if first_rec is None:
            first_rec = rec
        walls.append(wall)
        point_times += wl.point_times(rec.spans)
        if args.trace:
            wall, rec = timed_pass(spans.TRACED)
            traced_walls.append(wall)
            per_layer.append(spans.layer_metrics(rec.spans, wall))
            rec.write_jsonl(spans_file, len(traced_walls) - 1)
        del rec
        step = time.perf_counter() - t
        if time.perf_counter() - t_measure + step > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.add_highs(first_rec)
    attempted, failed, notes = tally.attempted, tally.failed, tally.notes

    # --- metrics -----------------------------------------------------------
    wall_s = statistics.median(walls)
    per_pass = len(wl.point_times(first_rec.spans))
    pct = wl.TAIL
    e2e = {
        "wall_s": (wall_s, "s"),
        "point_s.p50": (float(np.percentile(point_times, 50)), "s"),
        "point_s.tail": (float(np.percentile(point_times, pct)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    fail_rate = failed / max(1, attempted)

    layer = {}
    if args.trace:
        spans_file.close()
        layer = {k: statistics.median(m[k] for m in per_layer) for k in per_layer[0]}
        traced_wall = statistics.median(traced_walls)
        layer["trace.overhead_share"] = (traced_wall - wall_s) / wall_s
        if wl.name in COVERAGE_MIN:
            cov_ok = layer["trace.span_coverage"] >= COVERAGE_MIN[wl.name]
            cov_note = (f"layer spans cover {layer['trace.span_coverage']:.4f} of "
                        f"traced wall_s (need >= {COVERAGE_MIN[wl.name]})")
        else:
            share = layer["milp.bnb_s"] / traced_wall
            cov_ok = share >= BNB_SHARE_MIN
            cov_note = (f"milp.bnb_s covers {share:.4f} of traced wall_s "
                        f"(need >= {BNB_SHARE_MIN})")
        print(f"coverage {'PASS' if cov_ok else 'FAIL'}: {cov_note}")

    env = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": pyplatform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS},
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "src_lines": src_lines(),
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "pass_walls_s": walls,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "points_per_pass": per_pass,
        "tail_percentile": pct,
    }
    print("env " + json.dumps(env))
    for name, (value, unit) in e2e.items():
        extra = f"  (p{pct}; {per_pass} points per pass)" if name == "point_s.tail" else ""
        print(f"{wl.name} {name} {value:.6g} {unit}{extra}")
    print(f"{wl.name} fail_rate {fail_rate:.6g} ratio  ({failed} of {attempted} points)")
    for name, value in layer.items():
        print(f"{wl.name} {name} {value:.6g} {PER_LAYER_UNITS[name]}")
    for note in notes[:20]:
        print(f"check failed: {note}", file=sys.stderr)

    chosen = layer if args.trace else {k: v for k, (v, _) in e2e.items()}
    units = PER_LAYER_UNITS if args.trace else {k: u for k, (_, u) in e2e.items()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}
    out = bootstrap.WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"env": env, "fail_rate": fail_rate, "failures": notes, "end_to_end":
         {k: v for k, (v, _) in e2e.items()}, "per_layer": layer}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
