"""The three workloads: their instance sets, set-up, and one pass each.

Each workload has one fixed instance set, the one the expected-outcome table
was recorded on; `--seed` only shuffles the order in which a pass solves it.
A fixed set keeps the work of a pass the same from seed to seed, so seeds
differ by host noise only, and lets every run check every point against the
table. A pass returns the outcome of every point, keyed so that the same
point has the same key in every pass and every run.

Each workload is a closed loop with one client: one process solves one
point after another. A point is one method at one budget: a sweep row, an
eps* solve, or one branch-and-bound instance.
"""

from __future__ import annotations

import csv
import random

import impsched.cli as cli
import impsched.milp as milp
import impsched.sweep as sweep
import impsched.verify as verify
from impsched.energy import DEFAULT_FREQUENCY_SET, DEFAULT_POWER_MODEL, FrequencySet
from impsched.sweep import InfeasibleError, PipelineError, PlatformConfig
from impsched.taskgraph import (
    GeneratorParams,
    generate_random_graph,
    normalize_source,
    serialize_task_graph,
)

from spans import POINTS

POINT_FUNCS = tuple(attr for _, attr, _ in POINTS)
FAILURES = (PipelineError, InfeasibleError)


class PassResult:
    def __init__(self):
        self.outcomes: dict[str, dict] = {}
        self.errors: list[str] = []  # points that raised

    def error(self, key: str, exc: Exception) -> None:
        self.errors.append(f"{key}: {type(exc).__name__}: {exc}")


def _graph(regime: str, n: int, seed: int, f_max: float = 2.1e9):
    return generate_random_graph(
        GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=seed), f_max=f_max
    )


def _gid(regime: str, n: int, seed: int) -> str:
    return f"{regime}_n{n}_s{seed}"


def _order(items, seed: int) -> list:
    """The items in the order a pass at this seed visits them."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def warm_up() -> None:
    """One small eps* solve, so first-call costs land in set-up, not a pass."""
    sweep.epsilon_star(_graph("man_mixed", 8, 1), sweep.default_platform())


class Sweep:
    """`impsched sweep --methods proposed,baseline` through `cli.main`.

    Every ratio re-solves a near-identical LP that differs only in the energy
    right-hand side, so LP reuse and warm starts across ratios show here.
    Four graphs of similar size (n 38-44), one per regime, about 9 s a pass
    on a 2-core Xeon, so a 40 s run makes three passes.
    """

    name = "sweep"
    TAIL = 90
    GRAPHS = (
        ("man_low", 38, 7),
        ("man_med", 40, 3),
        ("man_mixed", 42, 17),
        ("man_high", 44, 19),
    )

    def setup(self, seed: int, workdir):
        d = workdir / "sweep"
        d.mkdir(parents=True, exist_ok=True)
        files = []
        for regime, n, s in self.GRAPHS:
            path = d / f"{_gid(regime, n, s)}.tg"
            path.write_text(serialize_task_graph(_graph(regime, n, s)))
            files.append(path)
        return {"files": _order(files, seed)}

    def run_pass(self, state, rec) -> PassResult:
        res = PassResult()
        for path in state["files"]:
            # one call per graph: a failure costs that graph's rows only
            csv_path = path.with_suffix(".csv")
            code = cli.main(["sweep", str(path), "--methods", "proposed,baseline",
                             "--out", str(csv_path)])
            if code != 0:
                res.error(path.stem, RuntimeError(f"impsched sweep exited {code}"))
                continue
            star = [s.data for s in rec.spans if s.func == "epsilon_star"][-1][1][0]
            res.outcomes[f"eps/{path.stem}"] = {"eps_star": star}
            with open(csv_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    key = f"{row['graph']}/{row['method']}/{row['eps_ratio']}"
                    res.outcomes[key] = {
                        "feasible": row["feasible"] == "1",
                        "qos": float(row["qos"]) if row["qos"] else None,
                    }
        return res

    @staticmethod
    def point_times(spans) -> list[float]:
        return [s.end - s.start for s in spans if s.func in POINT_FUNCS]


class Oneshot:
    """eps*, then proposed and baseline at 0.8 eps*, on the `suite20` graphs.

    Cold solves of small LPs that fit in cache, with no ratio walk: per-point
    fixed costs weigh more, and reuse across ratios has nothing to reuse.
    The acceptance suite's 20 graphs (n 10-38, all four regimes), about 3.5 s
    a pass.
    """

    name = "oneshot"
    TAIL = 95
    SIZES = (10, 14, 19, 27, 38)
    REGIMES = ("man_low", "man_med", "man_high", "man_mixed")
    RATIO = 0.8

    def setup(self, seed: int, workdir):
        graphs = []
        for ri, regime in enumerate(self.REGIMES):
            for si, n in enumerate(self.SIZES):
                s = 100 + 10 * ri + si
                graphs.append((_gid(regime, n, s), _graph(regime, n, s)))
        return {"graphs": _order(graphs, seed), "platform": sweep.default_platform()}

    def run_pass(self, state, rec) -> PassResult:
        res = PassResult()
        platform = state["platform"]
        for gid, g in state["graphs"]:
            try:
                star = sweep.epsilon_star(g, platform)[0]
            except FAILURES as exc:
                res.error(f"eps/{gid}", exc)
                continue
            res.outcomes[f"eps/{gid}"] = {"eps_star": star}
            for method, run in (
                ("proposed", sweep.run_proposed),
                ("baseline", sweep.run_baseline),
            ):
                key = f"{gid}/{method}/{self.RATIO:g}"
                try:
                    out = run(g, platform, self.RATIO * star)
                except FAILURES as exc:
                    res.error(key, exc)
                    continue
                res.outcomes[key] = {"feasible": out.feasible, "qos": out.qos}
        return res

    point_times = staticmethod(Sweep.point_times)


class Bnb:
    """Exact branch-and-bound seeded with the proposed schedule, as
    `impsched milp` runs it, on small criterion-5-style instances.

    man_mixed graphs on frequencies {1.01, 2.1} GHz, budget ratio x eps*.
    Only instances whose budget binds the heuristic (proposed QoS < 1) are
    kept: elsewhere the root node already proves the seeded incumbent
    optimal. Three tasks on one processor keep every instance well under a
    second, so no time limit is reached and the work, node count included, is
    deterministic. The first 60 such instances from generator seed 500 on,
    about 5 s a pass.
    """

    name = "bnb"
    TAIL = 95
    TASKS, PROCS, RATIO, COUNT = 3, 1, 0.85, 60
    TIME_LIMIT = 60.0

    def __init__(self):
        f = DEFAULT_FREQUENCY_SET.freqs
        self.freqs = FrequencySet((f[0], f[-1]))

    def setup(self, seed: int, workdir):
        platform = PlatformConfig(DEFAULT_POWER_MODEL, self.freqs, self.PROCS)
        instances = []
        s = 500
        while len(instances) < self.COUNT:
            g = _graph("man_mixed", self.TASKS, s, f_max=self.freqs.f_max)
            eps = self.RATIO * sweep.epsilon_star(g, platform)[0]
            prop = sweep.run_proposed(g, platform, eps)
            if prop.feasible and prop.qos < 1.0 - 1e-9:
                iid = f"n{self.TASKS}K{self.PROCS}r{self.RATIO:g}_s{s}"
                instances.append((iid, g, normalize_source(g), platform, eps))
            s += 1
        return {"instances": _order(instances, seed)}

    def run_pass(self, state, rec) -> PassResult:
        res = PassResult()
        pm, fs = DEFAULT_POWER_MODEL, self.freqs
        for iid, g, gn, platform, eps in state["instances"]:
            with rec.span("perfbench.bnb_instance", "bench"):
                try:
                    model = milp.build_milp(gn, platform.procs, fs, pm, eps, gn.deadline)
                    prop = sweep.run_proposed(g, platform, eps)
                    seed_values = (
                        milp.encode_solution(model, prop.assignment, prop.schedule)
                        if prop.feasible
                        else None
                    )
                    bnb, sched, asg = milp.solve_branch_and_bound(
                        model, time_limit=self.TIME_LIMIT, seed_values=seed_values
                    )
                    verified = sched is None or verify.verify_schedule(
                        gn, sched, asg, pm, fs, eps, gn.deadline,
                        verify.WorkloadContract.from_milp_schedule(gn, sched),
                    ).ok
                except FAILURES as exc:
                    res.error(iid, exc)
                    continue
            res.outcomes[iid] = {
                "status": bnb.status,
                "objective": bnb.objective,
                "proposed_qos": prop.qos,
                "verified": verified,
            }
        return res

    @staticmethod
    def point_times(spans) -> list[float]:
        return [s.end - s.start for s in spans if s.name == "perfbench.bnb_instance"]


WORKLOADS = {w.name: w for w in (Sweep(), Oneshot(), Bnb())}
