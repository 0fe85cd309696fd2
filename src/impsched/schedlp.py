"""The LP of the scheduling stage and schedule extraction.

One builder, build_qos_lp, writes the program from the workloads of a
labeling: the timing core (durations, deadline, precedence with unconditional
edge costs, per-processor chaining from the list-scheduler order), one load
row per task, and either the energy budget with the QoS objective or, without
a budget, minimum energy. The baseline and the minimum-energy program (its
optimum is the sweep anchor) are that program under the labeling that keeps
every task precise (imprecision.precise_workloads).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import FrequencySet, PowerModel, cheapest_frequency, energy_per_cycle
from .imprecision import EffectiveWorkloads, precise_workloads, precision, qos
from .listsched import Assignment
from .lp import EQ, INF, LE, LinearProgram, LPSolution
from .taskgraph import TaskGraph

__all__ = [
    "Schedule",
    "build_qos_lp",
    "build_min_energy_lp",
    "build_baseline_lp",
    "asap_basis",
    "decode_schedule",
]


@dataclass
class Schedule:
    """Start times (s), cycles per (task, frequency index), executed optional
    cycles per task, and the derived duration/energy/QoS figures."""

    start: dict[str, float]
    cycles: dict[tuple[str, int], float]
    opt_cycles: dict[str, float]
    durations: dict[str, float]
    energy: float
    qos: float
    makespan: float


def _cycle_costs(pm: PowerModel, fs: FrequencySet) -> list[float]:
    return [energy_per_cycle(pm, f) for f in fs]


def _add_timing_core(
    lp: LinearProgram, g: TaskGraph, asg: Assignment, fs: FrequencySet, T_d: float
) -> None:
    if T_d <= 0:
        raise ValueError("deadline must be positive")
    missing = [u for u in g.tasks if u not in asg.proc_of]
    if missing:
        raise ValueError(f"assignment misses tasks: {', '.join(sorted(missing))}")
    for u in g.tasks:
        lp.add_var(f"S[{u}]", 0.0, T_d)
        lp.add_var(f"D[{u}]", 0.0, INF)
        for i in range(len(fs)):
            lp.add_var(f"N[{u},{i}]", 0.0, INF)
    for u in g.tasks:
        coeffs = {f"N[{u},{i}]": 1.0 / f for i, f in enumerate(fs)}
        coeffs[f"D[{u}]"] = -1.0
        lp.add_row(f"dur[{u}]", coeffs, EQ, 0.0)
        lp.add_row(f"dl[{u}]", {f"S[{u}]": 1.0, f"D[{u}]": 1.0}, LE, T_d)
    for e in g.edges:
        lp.add_row(
            f"prec[{e.src},{e.dst}]",
            {f"S[{e.src}]": 1.0, f"D[{e.src}]": 1.0, f"S[{e.dst}]": -1.0},
            LE,
            -e.comm,
        )
    for k, seq in enumerate(asg.order):
        for j in range(len(seq) - 1):
            u, v = seq[j], seq[j + 1]
            lp.add_row(
                f"chain[{k},{j}]",
                {f"S[{u}]": 1.0, f"D[{u}]": 1.0, f"S[{v}]": -1.0},
                LE,
                0.0,
            )


def _energy_coeffs(g: TaskGraph, pm: PowerModel, fs: FrequencySet) -> dict[str, float]:
    costs = _cycle_costs(pm, fs)
    return {
        f"N[{u},{i}]": costs[i] for u in g.tasks for i in range(len(fs))
    }


def _qos_objective(lp: LinearProgram, g: TaskGraph) -> None:
    exits = g.exits()
    coeffs = {}
    constant = 0.0
    for u in exits:
        t = g.task(u)
        coeffs[f"o[{u}]"] = (1.0 - t.threshold) / (t.optional * len(exits))
        constant += t.threshold / len(exits)
    lp.set_objective("max", coeffs, constant)


def build_qos_lp(
    g: TaskGraph,
    wl: EffectiveWorkloads,
    asg: Assignment,
    pm: PowerModel,
    fs: FrequencySet,
    eps_max: float | None,
    T_d: float,
) -> LinearProgram:
    """The scheduling program on the workloads of a labeling.

    Non-exit tasks execute exactly their labeled workload. Under an energy
    budget eps_max, exit tasks run their (possibly extended) mandatory part
    plus a free optional amount and the program maximizes mean exit
    precision. Without one (None), exit tasks run their optional part in full
    too and the program minimizes energy.
    """
    lp = LinearProgram()
    _add_timing_core(lp, g, asg, fs, T_d)
    exits = set(g.exits())
    for u in g.tasks:
        t = g.task(u)
        total = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        if u not in exits:
            lp.add_row(f"load[{u}]", total, EQ, float(wl.total[u]))
        elif eps_max is None:
            lp.add_row(f"load[{u}]", total, EQ, float(wl.mandatory_eff[u] + t.optional))
        else:
            lp.add_var(f"o[{u}]", 0.0, float(t.optional))
            total[f"o[{u}]"] = -1.0
            lp.add_row(f"load[{u}]", total, EQ, float(wl.mandatory_eff[u]))
    if eps_max is None:
        lp.set_objective("min", _energy_coeffs(g, pm, fs))
    else:
        lp.add_row("energy", _energy_coeffs(g, pm, fs), LE, eps_max)
        _qos_objective(lp, g)
    return lp


def build_min_energy_lp(
    g: TaskGraph,
    asg: Assignment,
    pm: PowerModel,
    fs: FrequencySet,
    T_d: float,
) -> LinearProgram:
    """Minimize total energy while executing every task precisely.

    The optimum is the reference budget for energy sweeps: the cheapest way
    to run all initial workloads within the deadline on this assignment.
    """
    return build_qos_lp(g, precise_workloads(g), asg, pm, fs, None, T_d)


def build_baseline_lp(
    g: TaskGraph,
    asg: Assignment,
    pm: PowerModel,
    fs: FrequencySet,
    eps_max: float,
    T_d: float,
) -> LinearProgram:
    """The QoS program under the labeling that keeps every task precise."""
    return build_qos_lp(g, precise_workloads(g), asg, pm, fs, eps_max, T_d)


def asap_basis(
    lp: LinearProgram, g: TaskGraph, asg: Assignment, pm: PowerModel, fs: FrequencySet
) -> np.ndarray:
    """A crash basis (Bixby 1992) for the minimum-energy program lp that
    build_qos_lp wrote for g and asg: solve_lp(lp, basis=...) starts there.

    Every task runs at i*, the frequency of lowest energy per cycle, and
    starts as soon as its prec/chain rows allow; the incoming row that sets
    its start binds. Basic: N[u,i*] and D[u] of every task, S[u] of every
    task with an incoming row, and every slack but those of the load and dur
    rows and the binding rows. Every other column sits on its lower bound,
    which its cost (0, or an energy per cycle) prefers.

    In topological order the basis is triangular, hence nonsingular. It is
    dual feasible: the load rows price at the cost c* of i*, every other row
    at 0, so N[u,i] has the reduced cost c_i - c* >= 0. Where the schedule
    meets the deadline the basis is optimal; elsewhere the dual simplex
    repairs it.
    """
    i_star, _ = cheapest_frequency(pm, fs)
    f_star = fs.freqs[i_star]
    col = {name: j for j, name in enumerate(lp.var_names)}
    slack = {name: lp.n_vars + i for i, name in enumerate(lp.row_names)}
    incoming = {u: [] for u in g.tasks}  # (row, predecessor, gap) per task
    for e in g.edges:
        incoming[e.dst].append((f"prec[{e.src},{e.dst}]", e.src, e.comm))
    for k, seq in enumerate(asg.order):
        for j in range(len(seq) - 1):
            incoming[seq[j + 1]].append((f"chain[{k},{j}]", seq[j], 0.0))
    succ = {u: [] for u in g.tasks}
    for v, rows in incoming.items():
        for _, u, _ in rows:
            succ[u].append(v)
    vstat = np.full(lp.n_vars + lp.n_rows, 2, dtype=np.int8)
    vstat[: lp.n_vars] = 0
    waiting = {u: len(rows) for u, rows in incoming.items()}
    ready = [u for u in g.tasks if not waiting[u]]
    finish = {}
    for u in ready:  # ready grows while the walk reads it: a topological order
        start = 0.0
        if incoming[u]:
            row, p, gap = max(incoming[u], key=lambda r: finish[r[1]] + r[2])
            start = finish[p] + gap
            vstat[col[f"S[{u}]"]] = 2
            vstat[slack[row]] = 0
        finish[u] = start + lp.rhs(f"load[{u}]") / f_star
        vstat[[col[f"N[{u},{i_star}]"], col[f"D[{u}]"]]] = 2
        vstat[[slack[f"load[{u}]"], slack[f"dur[{u}]"]]] = 0
        for v in succ[u]:
            waiting[v] -= 1
            if not waiting[v]:
                ready.append(v)
    return vstat


def decode_schedule(
    g: TaskGraph,
    pm: PowerModel,
    fs: FrequencySet,
    sol: LPSolution,
    fixed_opt: dict[str, float] | None = None,
) -> Schedule:
    """Extract a Schedule from an optimal LP solution.

    Optional cycles come from the o variables where present; fixed_opt fills
    tasks whose optional execution was decided before the LP (labeled
    non-exit tasks, or every task in the min-energy program).
    """
    if not sol.optimal:
        raise ValueError(f"cannot decode a {sol.status} solution")
    costs = _cycle_costs(pm, fs)
    start = {}
    durations = {}
    cycles = {}
    opt_cycles = {}
    energy = 0.0
    for u in g.tasks:
        start[u] = sol.values[f"S[{u}]"]
        durations[u] = sol.values[f"D[{u}]"]
        for i in range(len(fs)):
            n = sol.values[f"N[{u},{i}]"]
            cycles[(u, i)] = n
            energy += n * costs[i]
        key = f"o[{u}]"
        if key in sol.values:
            # keep solver round-off out of the precision algebra
            opt_cycles[u] = min(max(sol.values[key], 0.0), float(g.task(u).optional))
        elif fixed_opt is not None and u in fixed_opt:
            opt_cycles[u] = float(fixed_opt[u])
    exits = g.exits()
    missing = [u for u in exits if u not in opt_cycles]
    if missing:
        raise ValueError(f"no optional cycles for exit tasks: {', '.join(missing)}")
    q = qos(
        precision(g.task(u).threshold, g.task(u).optional, opt_cycles[u])
        for u in exits
    )
    makespan = max(start[u] + durations[u] for u in g.tasks)
    return Schedule(start, cycles, opt_cycles, durations, energy, q, makespan)
