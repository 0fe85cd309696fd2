"""The LP of the scheduling stage and schedule extraction.

One builder, build_qos_lp, writes the program from the workloads of a
labeling: the timing core (durations, deadline, precedence with unconditional
edge costs, per-processor chaining from the list-scheduler order), one load
row per task, and either the energy budget with the QoS objective or, without
a budget, minimum energy. The baseline and the minimum-energy program (its
optimum is the sweep anchor) are that program under the labeling that keeps
every task precise (imprecision.precise_workloads).

One as-soon-as-possible walk at the frequency of lowest energy per cycle
(over the precedence rows of a graph and assignment, built once by
precedence) serves three times: as the crash basis every first solve
starts from (asap_basis); as the minimum-energy schedule of fixed per-task
loads (min_energy_schedule), which a sweep row reports in place of the QoS
program's vertex; and, where that schedule of the full loads meets the
deadline, as the reason the QoS program is a fractional knapsack over the
exits' optional cycles, which knapsack_loads solves without the LP.
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
    "build_load_lp",
    "build_min_energy_lp",
    "build_baseline_lp",
    "asap_basis",
    "chosen_loads",
    "knapsack_loads",
    "min_energy_schedule",
    "Precedence",
    "precedence",
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
    too and the program minimizes energy (build_load_lp).
    """
    exits = set(g.exits())
    if eps_max is None:
        loads = {
            u: float(wl.mandatory_eff[u] + g.task(u).optional) if u in exits
            else float(wl.total[u])
            for u in g.tasks
        }
        return build_load_lp(g, asg, loads, pm, fs, T_d)
    lp = LinearProgram()
    _add_timing_core(lp, g, asg, fs, T_d)
    for u in g.tasks:
        total = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        if u not in exits:
            lp.add_row(f"load[{u}]", total, EQ, float(wl.total[u]))
        else:
            lp.add_var(f"o[{u}]", 0.0, float(g.task(u).optional))
            total[f"o[{u}]"] = -1.0
            lp.add_row(f"load[{u}]", total, EQ, float(wl.mandatory_eff[u]))
    lp.add_row("energy", _energy_coeffs(g, pm, fs), LE, eps_max)
    _qos_objective(lp, g)
    return lp


def build_load_lp(
    g: TaskGraph,
    asg: Assignment,
    loads: dict[str, float],
    pm: PowerModel,
    fs: FrequencySet,
    T_d: float,
) -> LinearProgram:
    """Minimize total energy while every task u executes loads[u] cycles."""
    lp = LinearProgram()
    _add_timing_core(lp, g, asg, fs, T_d)
    for u in g.tasks:
        total = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        lp.add_row(f"load[{u}]", total, EQ, loads[u])
    lp.set_objective("min", _energy_coeffs(g, pm, fs))
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


@dataclass(frozen=True)
class Precedence:
    """The prec and chain rows of a graph on an assignment, as the
    as-soon-as-possible walk reads them: per task its incoming rows (row
    name, predecessor, gap) in row order, and the tasks in a topological
    order of both row kinds. Built once per (graph, assignment) by
    precedence()."""

    order: tuple[str, ...]
    incoming: dict[str, tuple[tuple[str, str, float], ...]]


def precedence(g: TaskGraph, asg: Assignment) -> Precedence:
    incoming = {u: [] for u in g.tasks}
    for e in g.edges:
        incoming[e.dst].append((f"prec[{e.src},{e.dst}]", e.src, e.comm))
    for k, seq in enumerate(asg.order):
        for j in range(len(seq) - 1):
            incoming[seq[j + 1]].append((f"chain[{k},{j}]", seq[j], 0.0))
    succ = {u: [] for u in g.tasks}
    for v, rows in incoming.items():
        for _, u, _ in rows:
            succ[u].append(v)
    waiting = {u: len(rows) for u, rows in incoming.items()}
    order = [u for u in g.tasks if not waiting[u]]
    for u in order:  # order grows while the loop reads it
        for v in succ[u]:
            waiting[v] -= 1
            if not waiting[v]:
                order.append(v)
    return Precedence(tuple(order), {u: tuple(rows) for u, rows in incoming.items()})


def _asap(
    prec: Precedence, durations: dict[str, float]
) -> tuple[dict[str, float], dict[str, float], dict[str, str | None]]:
    """The as-soon-as-possible schedule of tasks with fixed durations: each
    task's start and finish, and the name of the incoming prec/chain row that
    sets its start (None for a task with no incoming row). Ties go to the
    first row."""
    start, binding, finish = {}, {}, {}
    for u in prec.order:
        s, row = 0.0, None
        for r, p, gap in prec.incoming[u]:
            t = finish[p] + gap
            if row is None or t > s:
                s, row = t, r
        start[u], binding[u] = s, row
        finish[u] = s + durations[u]
    return start, finish, binding


def asap_basis(
    lp: LinearProgram,
    g: TaskGraph,
    prec: Precedence,
    pm: PowerModel,
    fs: FrequencySet,
) -> np.ndarray:
    """A crash basis (Bixby 1992) for a program that build_qos_lp or
    build_load_lp wrote for g and an assignment asg, whose rows prec is
    (precedence(g, asg)): solve_lp(lp, basis=...) starts there.

    Every task runs at i*, the frequency of lowest energy per cycle, and
    starts as soon as its prec/chain rows allow; the incoming row that sets
    its start binds. Each o[u] of a QoS program sits on its upper bound,
    g.task(u).optional, so its task runs the load row's right-hand side plus
    that. Basic: N[u,i*] and D[u] of every task, S[u] of every task with an
    incoming row, and every slack but those of the load and dur rows and the
    binding rows (the energy row's slack is basic). Every other column sits
    on its lower bound. Each bound is the one the column's cost prefers: the
    lower for a cost of 0 or an energy per cycle, the upper for o's QoS
    weight.

    In topological order the basis is triangular, hence nonsingular. It is
    dual feasible. In the minimum-energy program the load rows price at the
    cost c* of i* and every other row at 0, so N[u,i] has the reduced cost
    c_i - c* >= 0. In a QoS program every basic costs 0, so every row
    prices at 0. Where the schedule meets the deadline (and, in a QoS
    program, the budget) the basis is optimal; elsewhere the dual simplex
    repairs it.
    """
    i_star, _ = cheapest_frequency(pm, fs)
    f_star = fs.freqs[i_star]
    col, row_at, nv = lp.var_index, lp.row_index, lp.n_vars
    vstat = np.full(nv + lp.n_rows, 2, dtype=np.int8)
    vstat[:nv] = 0
    load = {}
    for u in g.tasks:
        load[u] = lp.rhs(f"load[{u}]")
        if f"o[{u}]" in col:
            vstat[col[f"o[{u}]"]] = 1
            load[u] += g.task(u).optional
    _, _, binding = _asap(prec, {u: w / f_star for u, w in load.items()})
    for u, row in binding.items():
        if row is not None:
            vstat[col[f"S[{u}]"]] = 2
            vstat[nv + row_at[row]] = 0
        vstat[[col[f"N[{u},{i_star}]"], col[f"D[{u}]"]]] = 2
        vstat[[nv + row_at[f"load[{u}]"], nv + row_at[f"dur[{u}]"]]] = 0
    return vstat


def chosen_loads(
    g: TaskGraph, lp: LinearProgram, sol: LPSolution, fixed_opt: dict[str, float] | None
) -> tuple[dict[str, float], dict[str, float]]:
    """The cycles per task and the executed optional cycles that an optimal
    solution sol of the QoS program lp chose: each load row's right-hand
    side, plus on exit tasks the o value, clamped into its box as
    decode_schedule clamps it. fixed_opt is as in decode_schedule."""
    opt = _opt_cycles(g, sol.values, fixed_opt)
    loads = {
        u: lp.rhs(f"load[{u}]") + (opt[u] if f"o[{u}]" in sol.values else 0.0)
        for u in g.tasks
    }
    return loads, opt


def min_energy_schedule(
    g: TaskGraph,
    prec: Precedence,
    loads: dict[str, float],
    opt_cycles: dict[str, float],
    pm: PowerModel,
    fs: FrequencySet,
    T_d: float,
) -> Schedule | None:
    """The minimum-energy schedule in which every task u executes loads[u]
    cycles on an assignment asg within T_d, where its closed form holds;
    else None. prec is precedence(g, asg).

    That is the as-soon-as-possible schedule with every task at i*, the
    frequency of lowest energy per cycle c*. Every cycle costs at least c*,
    so c* times the total load bounds the energy from below, and this
    schedule reaches the bound: where it meets T_d it is optimal. Where it
    does not, the minimum-energy program of the loads (build_load_lp)
    decides. opt_cycles are the executed optional cycles the QoS is
    computed from.
    """
    i_star, c_star = cheapest_frequency(pm, fs)
    f_star = fs.freqs[i_star]
    durations = {u: loads[u] / f_star for u in g.tasks}
    start, finish, _ = _asap(prec, durations)
    makespan = max(finish.values())
    if makespan > T_d:
        return None
    cycles = dict.fromkeys([(u, i) for u in g.tasks for i in range(len(fs))], 0.0)
    for u in g.tasks:
        cycles[u, i_star] = loads[u]
    energy = c_star * sum(loads.values())
    return Schedule(
        start, cycles, dict(opt_cycles), durations, energy, _qos(g, opt_cycles), makespan
    )


def knapsack_loads(
    g: TaskGraph, wl: EffectiveWorkloads, pm: PowerModel, fs: FrequencySet, eps_max: float
) -> tuple[dict[str, float], dict[str, float]] | None:
    """The loads and executed optional cycles of an optimum of the QoS
    program (build_qos_lp) under eps_max, where the as-soon-as-possible
    schedule of the full loads (imprecision.scheduling_workloads) at i*
    meets T_d; None where no schedule fits eps_max. The caller checks the
    deadline condition, min_energy_schedule of the loads gives the schedule.

    Why it is exact where that schedule meets T_d:
    - loads at or below the full loads give an as-soon-as-possible schedule
      no longer than the full one, so no timing row binds;
    - every cycle costs at least c*, the energy per cycle at i*, and that
      schedule runs every cycle at c*;
    - so the program's feasible set in o is {c* (sum fixed + sum o) <= eps_max,
      0 <= o <= O}: a fractional knapsack. The fixed loads are wl.total on
      non-exit tasks and wl.mandatory_eff on exits. A budget is feasible
      exactly when eps_max >= c* sum fixed, and the rest of it fills each
      exit's optional cycles in decreasing order of the QoS weight
      (1 - threshold) / optional, ties in task order.
    """
    _, c_star = cheapest_frequency(pm, fs)
    exits = g.exits()
    is_exit = set(exits)
    loads = {
        u: float(wl.mandatory_eff[u] if u in is_exit else wl.total[u]) for u in g.tasks
    }
    fixed = sum(loads.values())
    if c_star * fixed > eps_max:
        return None
    spare = max(0.0, eps_max / c_star - fixed)
    opt = {u: 0.0 if u in is_exit else float(wl.optional_fixed[u]) for u in g.tasks}
    for u in sorted(exits, key=lambda u: -(1.0 - g.task(u).threshold) / g.task(u).optional):
        take = min(float(g.task(u).optional), spare)
        opt[u] = take
        loads[u] += take
        spare -= take
    return loads, opt


def _opt_cycles(g: TaskGraph, values: dict[str, float], fixed_opt) -> dict[str, float]:
    opt = {}
    for u in g.tasks:
        key = f"o[{u}]"
        if key in values:
            # keep solver round-off out of the precision algebra
            opt[u] = min(max(values[key], 0.0), float(g.task(u).optional))
        elif fixed_opt is not None and u in fixed_opt:
            opt[u] = float(fixed_opt[u])
    return opt


def _qos(g: TaskGraph, opt_cycles: dict[str, float]) -> float:
    exits = g.exits()
    missing = [u for u in exits if u not in opt_cycles]
    if missing:
        raise ValueError(f"no optional cycles for exit tasks: {', '.join(missing)}")
    return qos(
        precision(g.task(u).threshold, g.task(u).optional, opt_cycles[u])
        for u in exits
    )


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
    energy = 0.0
    for u in g.tasks:
        start[u] = sol.values[f"S[{u}]"]
        durations[u] = sol.values[f"D[{u}]"]
        for i in range(len(fs)):
            n = sol.values[f"N[{u},{i}]"]
            cycles[(u, i)] = n
            energy += n * costs[i]
    opt_cycles = _opt_cycles(g, sol.values, fixed_opt)
    makespan = max(start[u] + durations[u] for u in g.tasks)
    return Schedule(start, cycles, opt_cycles, durations, energy, _qos(g, opt_cycles), makespan)
