"""Experiment pipeline: method runners, energy sweeps, and CSV emission.

Budgets are expressed as ratios of the graph's minimum precise-execution
energy; a sweep walks the ratio down from 1.0 until a method turns
infeasible, then probes a couple more points to document the cliff. Every
feasible schedule is re-verified before a row is emitted.

A walk hands every row of a method one MethodModel: the first row fills it
(normalized graph, labeling and its load windows, assignment, verify
contract) and decides, with one as-soon-as-possible walk, whether the
schedule of the full loads (every exit's optional work included) at the
frequency of lowest energy per cycle meets the deadline. Where it does, no
timing row of the scheduling LP can bind, so the LP is a fractional knapsack
over the exits' optional cycles and every row is decided in closed form
(schedlp.knapsack_loads), with no LP built.
eps* is still solved by its LP, once per graph: where the closed form holds,
the two must agree, which checks on every graph the premise that the rows'
closed form rests on. There the LP's crash basis is optimal, and solve_lp
certifies it from the kernel factor of the basis, with no pivot and no dense
inverse. The normalized graph keeps its list schedules per
platform, of the labeled and of the initial full loads: the baseline (every
non-exit task precise, imprecision.precise_workloads) and eps* (every task
at its initial workload, imprecision.initial_workloads) share the latter.

Elsewhere a row falls back to the LP. The model compiles its QoS program
and builds the crash schedlp.asap_basis once, on the first such row; each
row then solves, from that crash, a copy of the compiled program with only
the `energy` right-hand side replaced (CompiledLP.copy_with_rhs), which
shares the compiled matrices, the scaling and the crash's cached kernel
factor, with the dense inverse assembled from it once a row pivots.
So a row depends on its model and budget only, never on an earlier row's
basis. The walk drops the compiled arrays when it ends, so nothing a row
returns or was given holds a dense matrix afterwards. The QoS program has
many optimal vertices, and the schedule at the vertex depends on the
simplex's path. So a row reports, of the workloads its solve chose, the
schedule of minimum energy: the as-soon-as-possible schedule again where it
meets the deadline, else the optimum of the minimum-energy program of those
workloads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .energy import FrequencySet, PowerModel, DEFAULT_FREQUENCY_SET, DEFAULT_POWER_MODEL
from .imprecision import (
    EffectiveWorkloads,
    Labeling,
    imp_label,
    initial_workloads,
    precise_workloads,
)
from .listsched import Assignment, heft_assign
from .lp import CompiledLP, LinearProgram, solve_lp
from .milp import build_milp, encode_solution, solve_branch_and_bound
from .schedlp import (
    Precedence,
    Schedule,
    asap_basis,
    build_baseline_lp,
    build_load_lp,
    build_min_energy_lp,
    build_qos_lp,
    chosen_loads,
    decode_schedule,
    knapsack_loads,
    min_energy_schedule,
    precedence,
)
from .taskgraph import TaskGraph, normalize_source
from .verify import WorkloadContract, verify_schedule

__all__ = [
    "PlatformConfig",
    "SweepConfig",
    "MethodOutcome",
    "MethodModel",
    "SweepRow",
    "PipelineError",
    "InfeasibleError",
    "default_platform",
    "epsilon_star",
    "run_proposed",
    "run_baseline",
    "run_milp",
    "sweep_graph",
    "rows_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "graph,method,eps_ratio,feasible,qos,energy_J,makespan_s,runtime_s,gap,nodes"

METHODS = ("proposed", "baseline", "milp")

PAST_INFEASIBLE = 2  # extra points a sweep probes beyond a method's cliff


class PipelineError(RuntimeError):
    """Internal inconsistency (solver or verifier disagreement)."""


class InfeasibleError(ValueError):
    """No schedule exists under the stated deadline."""


@dataclass(frozen=True)
class PlatformConfig:
    power: PowerModel
    freqs: FrequencySet
    procs: int = 4
    heft_insertion: bool = True
    heft_lp_comm: bool = False


def default_platform(procs: int = 4) -> PlatformConfig:
    return PlatformConfig(DEFAULT_POWER_MODEL, DEFAULT_FREQUENCY_SET, procs)


@dataclass(frozen=True)
class SweepConfig:
    resolution: float = 0.05
    methods: tuple[str, ...] = ("proposed", "baseline")
    milp_time_limit: float = 600.0

    def __post_init__(self):
        if not 0.0 < self.resolution < 1.0:
            raise ValueError("resolution must lie in (0, 1)")
        if not self.methods:
            raise ValueError("no method to sweep")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


@dataclass
class MethodOutcome:
    method: str
    feasible: bool
    qos: float | None = None
    energy: float | None = None
    makespan: float | None = None
    runtime: float = 0.0
    schedule: Schedule | None = None
    assignment: Assignment | None = None
    labeling: object = None
    gap: float | None = None
    nodes: int | None = None
    status: str = ""
    decided_by: str = ""  # an LP method's row: "closed-form" or "lp"


@dataclass
class MethodModel:
    """One LP method's program on one graph and platform, and what a row
    needs to decide, decode and verify it. Empty until a runner's (or
    epsilon_star's) first call fills it; every later call decides the same
    program at its own budget.

    full is the minimum-energy schedule of the full loads, None where their
    as-soon-as-possible schedule misses the deadline: then, and only then,
    rows solve the LP. lp is built on first need, with a zero budget;
    program(eps_max) builds the program at a row's budget. compiled (lp's
    compile()) and crash (schedlp.asap_basis of lp) are set on the first row
    that solves the LP: every row solves compiled at its own budget from
    crash."""

    gn: TaskGraph | None = None
    asg: Assignment | None = None
    labeling: Labeling | None = None
    workloads: EffectiveWorkloads | None = None
    contract: WorkloadContract | None = None
    prec: Precedence | None = None
    full: Schedule | None = None
    method: str = ""
    platform: PlatformConfig | None = None
    compiled: CompiledLP | None = None
    crash: object = None  # the start of every LP row's solve
    _lp: LinearProgram | None = field(default=None, repr=False)

    @property
    def lp(self) -> LinearProgram:
        """The method's LP. A QoS program's energy budget is 0 here; the
        rows solve it at their own. eps*'s program has no budget."""
        if self._lp is None:
            self._lp = self.program(0.0)
        return self._lp

    def program(self, eps_max: float) -> LinearProgram:
        """The method's LP built under the energy budget eps_max, the
        program a row at eps_max solves (eps*'s has no budget)."""
        gn, asg, T_d = self.gn, self.asg, self.gn.deadline
        pm, fs = self.platform.power, self.platform.freqs
        # one program under three names, so that a trace tells the methods apart
        if self.method == "proposed":
            return build_qos_lp(gn, self.workloads, asg, pm, fs, eps_max, T_d)
        if self.method == "baseline":
            return build_baseline_lp(gn, asg, pm, fs, eps_max, T_d)
        return build_min_energy_lp(gn, asg, pm, fs, T_d)


@dataclass(frozen=True)
class SweepRow:
    graph_id: str
    method: str
    eps_ratio: float
    feasible: bool
    qos: float | None
    energy: float | None
    makespan: float | None
    runtime: float
    gap: float | None = None
    nodes: int | None = None


def _checked(g, sched, asg, platform, eps_max, contract, method) -> None:
    report = verify_schedule(
        g, sched, asg, platform.power, platform.freqs, eps_max, g.deadline, contract
    )
    if not report.ok:
        raise PipelineError(
            f"{method} schedule failed verification:\n{report.format()}"
        )


def _fill(model: MethodModel, method: str, g, platform) -> None:
    """Fill an empty model: normalize, take the load windows (the labeling's
    for proposed, every non-exit task precise for baseline, every task at its
    initial workload for minimum-energy), list-schedule the full loads, and
    schedule them as soon as possible at the cheapest frequency. The list
    schedule and its precedence rows are kept on the normalized graph, keyed
    by platform and by labeled or initial full loads."""
    gn = normalize_source(g)
    if method == "proposed":
        lab, wl = imp_label(gn)
    else:
        lab = None
        wl = precise_workloads(gn) if method == "baseline" else initial_workloads(gn)
    full = {u: float(w) for u, w in wl.full.items()}
    key = (platform, lab is not None)
    if key not in gn._derived:
        asg = heft_assign(
            gn,
            full,
            platform.procs,
            platform.freqs.f_max,
            insertion=platform.heft_insertion,
            lp_comm=platform.heft_lp_comm,
        )
        gn._derived[key] = asg, precedence(gn, asg)
    model.asg, model.prec = gn._derived[key]
    model.gn, model.labeling, model.workloads = gn, lab, wl
    model.method, model.platform = method, platform
    model.contract = WorkloadContract.from_labeling(gn, wl)
    opt = {u: float(wl.full[u] - wl.mandatory_eff[u]) for u in gn.tasks}
    model.full = min_energy_schedule(
        gn, model.prec, full, opt, platform.power, platform.freqs, gn.deadline
    )


def epsilon_star(
    g: TaskGraph, platform: PlatformConfig, model: MethodModel | None = None
) -> tuple[float, Schedule, Assignment]:
    """Minimum energy that schedules every task precisely within the deadline.

    The minimum-energy program is solved from the crash at the
    as-soon-as-possible schedule of the precise loads at the frequency of
    lowest energy per cycle (schedlp.asap_basis), which is optimal where
    that schedule meets the deadline. There its energy
    (schedlp.min_energy_schedule) is eps* in closed form, and a solve that
    disagrees raises PipelineError. Of equally cheap schedules the call
    returns the one the dual simplex reaches from the crash.

    model, if given, is empty; the call fills it as the runners fill theirs,
    so its lp is the program solved.
    """
    model = MethodModel() if model is None else model
    _fill(model, "minimum-energy", g, platform)
    gn, asg = model.gn, model.asg
    crash = asap_basis(model.lp, gn, model.prec, platform.power, platform.freqs)
    sol = solve_lp(model.lp, basis=crash)
    if sol.status == "infeasible":
        raise InfeasibleError(
            "no precise schedule meets the deadline; enlarge it or add processors"
        )
    if not sol.optimal:
        raise PipelineError(f"minimum-energy program ended {sol.status}: {sol.message}")
    if model.full is not None and not math.isclose(
        sol.objective, model.full.energy, rel_tol=1e-9
    ):
        raise PipelineError(
            f"eps* by the LP ({sol.objective!r}) and in closed form "
            f"({model.full.energy!r}) disagree"
        )
    sched = decode_schedule(
        gn, platform.power, platform.freqs, sol, fixed_opt=model.workloads.optional_fixed
    )
    eps_max = sol.objective * (1 + 1e-9)
    _checked(gn, sched, asg, platform, eps_max, model.contract, "minimum-energy")
    return sol.objective, sched, asg


def _run(method: str, g, platform, eps_max, model: MethodModel | None) -> MethodOutcome:
    """One row of an LP method, in two stages.

    The first decides feasibility and QoS: in closed form where the model's
    full loads fit the deadline (schedlp.knapsack_loads), else by the QoS
    program (_solve_row). The second reports, of the workloads the first
    chose, the minimum-energy schedule (_min_energy), which does not depend
    on the LP's vertex.
    """
    t0 = time.monotonic()
    model = MethodModel() if model is None else model
    if model.workloads is None:
        _fill(model, method, g, platform)
    if model.full is not None:
        decided_by = "closed-form"
        chosen = knapsack_loads(model.gn, model.workloads, platform.power, platform.freqs, eps_max)
    else:
        decided_by = "lp"
        chosen = _solve_row(model, method, platform, eps_max)
    if chosen is None:
        return MethodOutcome(
            method, False, runtime=time.monotonic() - t0, status="infeasible",
            decided_by=decided_by,
        )
    gn, asg = model.gn, model.asg
    sched = _min_energy(gn, asg, *chosen, platform, method, model.prec)
    runtime = time.monotonic() - t0
    _checked(gn, sched, asg, platform, eps_max, model.contract, method)
    return MethodOutcome(
        method,
        True,
        qos=sched.qos,
        energy=sched.energy,
        makespan=sched.makespan,
        runtime=runtime,
        schedule=sched,
        assignment=asg,
        labeling=model.labeling,
        status="optimal",
        decided_by=decided_by,
    )


def _solve_row(model: MethodModel, method: str, platform, eps_max):
    """The loads and optional cycles a solve of the QoS program at eps_max
    chose (schedlp.chosen_loads), or None where it is infeasible. Every
    solve starts from the model's crash (schedlp.asap_basis), so a row
    depends on its model and budget only."""
    gn = model.gn
    if model.compiled is None:
        model.compiled = model.lp.compile()
        model.crash = asap_basis(model.lp, gn, model.prec, platform.power, platform.freqs)
    sol = solve_lp(model.compiled.copy_with_rhs("energy", eps_max), basis=model.crash)
    if sol.status == "infeasible":
        return None
    if not sol.optimal:
        raise PipelineError(f"{method} LP ended {sol.status}: {sol.message}")
    return chosen_loads(gn, model.lp, sol, model.workloads.optional_fixed)


def _min_energy(gn, asg, loads, opt, platform, method, prec) -> Schedule:
    """The minimum-energy schedule of fixed loads within the deadline: the
    closed form where it holds (schedlp.min_energy_schedule), else the
    minimum-energy program of the loads from its crash."""
    pm, fs, T_d = platform.power, platform.freqs, gn.deadline
    sched = min_energy_schedule(gn, prec, loads, opt, pm, fs, T_d)
    if sched is not None:
        return sched
    lp = build_load_lp(gn, asg, loads, pm, fs, T_d)
    sol = solve_lp(lp.compile(), basis=asap_basis(lp, gn, prec, pm, fs))
    if not sol.optimal:
        raise PipelineError(f"{method} minimum-energy LP ended {sol.status}: {sol.message}")
    return decode_schedule(gn, pm, fs, sol, fixed_opt=opt)


def run_proposed(
    g: TaskGraph, platform: PlatformConfig, eps_max: float, model: MethodModel | None = None
) -> MethodOutcome:
    """Labeling, list scheduling, then the QoS-maximizing LP.

    model is a walk's MethodModel, empty on its first call: that call fills
    it, later calls decide the same program at their own budget.
    Without one, the call builds a model of its own and keeps nothing of it.
    """
    return _run("proposed", g, platform, eps_max, model)


def run_baseline(
    g: TaskGraph, platform: PlatformConfig, eps_max: float, model: MethodModel | None = None
) -> MethodOutcome:
    """The proposed pipeline under the labeling that keeps every task
    precise. model is used as in run_proposed."""
    return _run("baseline", g, platform, eps_max, model)


def run_milp(
    g: TaskGraph,
    platform: PlatformConfig,
    eps_max: float,
    time_limit: float = 600.0,
) -> MethodOutcome:
    """Exact reference via branch-and-bound, warm-started with the proposed
    method's solution (which is always MILP-feasible)."""
    t0 = time.monotonic()
    gn = normalize_source(g)
    model = build_milp(
        gn, platform.procs, platform.freqs, platform.power, eps_max, gn.deadline
    )
    seed_values = None
    prop = run_proposed(g, platform, eps_max)
    if prop.feasible:
        seed_values = encode_solution(model, prop.assignment, prop.schedule)
    res, sched, asg = solve_branch_and_bound(
        model, time_limit=time_limit, seed_values=seed_values
    )
    runtime = time.monotonic() - t0
    if sched is None:  # infeasible, or no incumbent within the time limit
        return MethodOutcome("milp", False, runtime=runtime, nodes=res.nodes, status=res.status)
    _checked(
        gn,
        sched,
        asg,
        platform,
        eps_max,
        WorkloadContract.from_milp_schedule(gn, sched),
        "milp",
    )
    return MethodOutcome(
        "milp",
        True,
        qos=sched.qos,
        energy=sched.energy,
        makespan=sched.makespan,
        runtime=runtime,
        schedule=sched,
        assignment=asg,
        gap=res.gap,
        nodes=res.nodes,
        status=res.status,
    )


def sweep_ratios(resolution: float):
    """1.00, 1.00-resolution, ... down to (but excluding) zero."""
    k = 0
    while True:
        ratio = round(1.0 - k * resolution, 10)
        if ratio <= 0:
            return
        yield ratio
        k += 1


def sweep_graph(
    graph_id: str,
    g: TaskGraph,
    platform: PlatformConfig,
    cfg: SweepConfig,
    eps_star_value: float | None = None,
) -> list[SweepRow]:
    """Run every configured method down its own feasibility cliff.

    Each LP method's rows share one MethodModel, past the cliff too (see the
    module docstring); branch-and-bound starts every ratio cold.
    """
    if eps_star_value is None:
        eps_star_value, _, _ = epsilon_star(g, platform)
    # built per call, so the runners are looked up by their module names
    runners = {
        "proposed": run_proposed,
        "baseline": run_baseline,
        "milp": lambda g, platform, eps_max, model: run_milp(
            g, platform, eps_max, time_limit=cfg.milp_time_limit
        ),
    }
    rows: list[SweepRow] = []
    for method in cfg.methods:
        model = MethodModel()
        beyond = None  # points probed past the first infeasible ratio
        try:
            for ratio in sweep_ratios(cfg.resolution):
                out = runners[method](g, platform, ratio * eps_star_value, model)
                rows.append(
                    SweepRow(graph_id, method, ratio, out.feasible, out.qos, out.energy,
                             out.makespan, out.runtime, out.gap, out.nodes)
                )
                if not out.feasible:
                    beyond = 0 if beyond is None else beyond + 1
                    if beyond >= PAST_INFEASIBLE:
                        break
        finally:
            # no dense matrix outlives the walk
            model.compiled = None
    rows.sort(key=lambda r: (r.graph_id, r.method, -r.eps_ratio))
    return rows


def _num(x, fmt="{:.12g}") -> str:
    return "" if x is None else fmt.format(x)


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.graph_id,
                    r.method,
                    f"{r.eps_ratio:g}",
                    "1" if r.feasible else "0",
                    _num(r.qos),
                    _num(r.energy),
                    _num(r.makespan),
                    f"{r.runtime:.6f}",
                    _num(r.gap, "{:.6g}"),
                    "" if r.nodes is None else str(r.nodes),
                ]
            )
        )
    return "\n".join(lines) + "\n"
