"""Spans around the package's public functions, recorded from outside it.

A `Recorder` replaces module attributes with thin wrappers and puts the
originals back on `close()`. Each wrapper records one span (name, layer,
start, end, parent) in memory; spans are written out only after the pass.
Functions are wrapped under the name their caller looks them up by
(`impsched.sweep.solve_lp` and `impsched.milp.solve_lp` are two spans of the
`lp` layer), because `from .lp import solve_lp` binds a separate name in each
calling module.
"""

from __future__ import annotations

import json
import time

import numpy as np

import impsched.cli
import impsched.lp
import impsched.milp
import impsched.sweep
import impsched.verify

# What a user waits for: one sweep row, one eps* solve (also the oneshot
# points). The bnb workload times its instances itself.
POINTS = (
    (impsched.sweep, "epsilon_star", "sweep"),
    (impsched.sweep, "run_proposed", "sweep"),
    (impsched.sweep, "run_baseline", "sweep"),
)

# Captures the scheduling LPs of a pass for the HiGHS cross-check.
LP_CAPTURE = ((impsched.sweep, "solve_lp", "lp"),)

# Everything a workload pass reaches, except the `energy` arithmetic inside
# the schedlp builders, which costs less than a wrapper would.
TRACED = POINTS + LP_CAPTURE + (
    (impsched.cli, "main", "cli"),
    (impsched.cli, "sweep_graph", "sweep"),
    (impsched.sweep, "normalize_source", "taskgraph"),
    (impsched.sweep, "imp_label", "imprecision"),
    (impsched.sweep, "heft_assign", "listsched"),
    (impsched.sweep, "build_qos_lp", "schedlp"),
    (impsched.sweep, "build_baseline_lp", "schedlp"),
    (impsched.sweep, "build_min_energy_lp", "schedlp"),
    (impsched.sweep, "decode_schedule", "schedlp"),
    (impsched.milp, "decode_schedule", "schedlp"),
    (impsched.milp, "solve_lp", "lp"),
    (impsched.lp.LinearProgram, "compile", "lp"),
    (impsched.sweep, "verify_schedule", "verify"),
    (impsched.verify, "verify_schedule", "verify"),
    (impsched.milp, "build_milp", "milp"),
    (impsched.milp, "encode_solution", "milp"),
    (impsched.milp, "solve_branch_and_bound", "milp"),
)


def _lp_summary(args, sol):
    # The program is kept for the HiGHS check where the caller built it for
    # this call (the sweep side); branch-and-bound hands every node the same
    # CompiledLP, and keeping node solutions would hold thousands of dicts.
    problem = args[0] if isinstance(args[0], impsched.lp.LinearProgram) else None
    return problem, sol.status, sol.objective, sol.iterations


def _compile_summary(args, comp):
    return comp.A.shape[0], float(np.count_nonzero(comp.A)) / max(1, comp.A.size)


SUMMARY = {"solve_lp": _lp_summary, "compile": _compile_summary}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "data")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.data = None

    @property
    def func(self) -> str:
        return self.name.rsplit(".", 1)[1]


class Recorder:
    """Keeps spans of the wrapped calls in memory, in call order."""

    def __init__(self, targets):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = []
        for owner, attr, layer in targets:
            self._wrap(owner, attr, layer)

    def _wrap(self, owner, attr, layer):
        orig = getattr(owner, attr)
        if isinstance(owner, type):
            name = f"{owner.__module__}.{owner.__qualname__}.{attr}"
        else:
            name = f"{owner.__name__}.{attr}"
        summary = SUMMARY.get(attr, lambda args, result: (args, result))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.data = summary(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, around a block."""
        return _OwnSpan(self, name, layer)

    def close(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def write_jsonl(self, fh, pass_index: int) -> None:
        for i, s in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {
                        "pass": pass_index,
                        "id": i,
                        "name": s.name,
                        "layer": s.layer,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                    }
                )
                + "\n"
            )


class _OwnSpan:
    def __init__(self, rec: Recorder, name: str, layer: str):
        self.rec = rec
        self.span = Span(name, layer, rec._stack[-1] if rec._stack else -1)

    def __enter__(self):
        rec = self.rec
        rec._stack.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.rec._stack.pop()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest strictly (one thread, one stack), so subtracting the direct
    children's durations is the same as subtracting the covered interval.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer times and counters of one traced pass; README.md defines them."""
    own = self_times(spans)

    def self_s(*funcs):
        return sum(own[i] for i, s in enumerate(spans) if s.func in funcs)

    def inclusive_s(group):
        return sum(s.end - s.start for s in group)

    # a call that raised has no data; it is counted as a failed point elsewhere
    done = [s for s in spans if s.data is not None]
    lp_solves = [s for s in done if s.func == "solve_lp"]
    milp_lp = [s for s in lp_solves if s.name == "impsched.milp.solve_lp"]
    iterations = sum(s.data[3] for s in lp_solves)
    rows_max, nnz_share = max(
        (s.data for s in done if s.func == "compile"), default=(0, 0.0)
    )
    lp_solve_s = self_s("solve_lp")
    bnb = [s for s in done if s.func == "solve_branch_and_bound"]
    bnb_s = inclusive_s(bnb)
    milp_lp_s = inclusive_s(milp_lp)
    nodes = sum(s.data[1][0].nodes for s in bnb)
    builders = ("build_qos_lp", "build_baseline_lp", "build_min_energy_lp")
    rows = [
        s for s in done
        if s.func in ("run_proposed", "run_baseline")
        and s.parent >= 0 and spans[s.parent].func == "sweep_graph"
    ]
    bench_self = sum(own[i] for i, s in enumerate(spans) if s.layer == "bench")
    covered = sum(s.end - s.start for s in spans if s.parent < 0) - bench_self
    return {
        "lp.solve_s": lp_solve_s,
        "lp.solves": len(lp_solves),
        "lp.iterations": iterations,
        "lp.iterations_per_solve": iterations / max(1, len(lp_solves)),
        "lp.us_per_iteration": 1e6 * lp_solve_s / max(1, iterations),
        "lp.infeasible_solves": sum(1 for s in lp_solves if s.data[1] == "infeasible"),
        "lp.rows_max": rows_max,
        "lp.nnz_share": nnz_share,
        "lp.compile_s": self_s("compile"),
        "schedlp.build_s": self_s(*builders),
        "schedlp.decode_s": self_s("decode_schedule"),
        "schedlp.builds": sum(1 for s in spans if s.func in builders),
        "milp.build_s": self_s("build_milp"),
        "milp.bnb_s": bnb_s,
        "milp.nodes": nodes,
        "milp.ms_per_node": 1e3 * bnb_s / max(1, nodes),
        "milp.lp_solves": len(milp_lp),
        "milp.lp_s": milp_lp_s,
        "milp.self_s": bnb_s - milp_lp_s,
        "milp.lp_infeasible_share": sum(
            1 for s in milp_lp if s.data[1] == "infeasible"
        ) / max(1, len(milp_lp)),
        "sweep.points": len(rows),
        "sweep.infeasible_points": sum(1 for s in rows if not s.data[1].feasible),
        "sweep.eps_star_s": inclusive_s(s for s in spans if s.func == "epsilon_star"),
        "sweep.self_s": sum(own[i] for i, s in enumerate(spans) if s.layer == "sweep"),
        "imprecision.label_s": self_s("imp_label"),
        "listsched.heft_s": self_s("heft_assign"),
        "taskgraph.s": self_s("normalize_source"),
        "verify.s": self_s("verify_schedule"),
        "verify.calls": sum(1 for s in spans if s.func == "verify_schedule"),
        "cli.self_s": sum(
            own[i] for i, s in enumerate(spans) if s.name == "impsched.cli.main"
        ),
        "trace.span_coverage": covered / wall if wall > 0 else 0.0,
    }
