"""Exact reference formulation: joint assignment, ordering, frequency split,
and optional-cycle selection as one mixed-integer program, solved by an
in-repo best-first branch-and-bound over the LP relaxation.

Binary variables: Pi[k,u] assigns task u to processor k; Y[k,u,v] says u runs
immediately before v on k (with virtual list heads 0 and n+1); X[u] clamps the
summed parent output errors at 1 on each task with two or more parents. The
product X*errsum is linearized exactly. Two exact presolve reductions keep
binaries out of the search: a task with fewer parents has no clamp, since its
error sum never exceeds 1, and Y is fixed at 0 wherever v is an ancestor of u
and either has mandatory cycles, since that order cannot meet the edges.

A node differs from its parent only in binary bounds. It re-solves the
relaxation from its parent's final basis with the bounded dual simplex of
the lp module. A seeded root starts from the crash of the scheduling LPs
(schedlp.asap_basis) at the seed's assignment, an unseeded one from the
slack basis. Every node solves the same CompiledLP, so the program is
compiled and equilibrated once per search.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .energy import FrequencySet, PowerModel
from .listsched import Assignment
from .lp import EQ, GE, LE, LinearProgram, LPSolution, max_violation, solve_lp
from .schedlp import (
    Schedule, _energy_coeffs, _qos_objective, asap_basis, decode_schedule, precedence,
)
from .taskgraph import TaskGraph, topological_order

__all__ = [
    "MilpModel",
    "BnbResult",
    "linearize_product",
    "build_milp",
    "solve_branch_and_bound",
    "encode_solution",
    "decode_assignment",
]

INT_TOL = 1e-6


@dataclass
class MilpModel:
    lp: LinearProgram
    # Pi block, then Y, then X (one per task with two or more parents);
    # ties branch by position
    binaries: tuple[str, ...]
    task_order: tuple[str, ...]  # index 1..n maps to task_order[i-1]
    procs: int
    graph: TaskGraph
    power: PowerModel
    freqs: FrequencySet
    eps_max: float
    deadline: float


@dataclass
class BnbResult:
    status: str  # optimal | feasible | infeasible | unknown
    objective: float | None
    bound: float
    nodes: int
    wall_time: float
    lp_iterations: int  # simplex iterations summed over every node LP
    # how each explored node ended: infeasible, bound (pruned by its LP
    # bound), integral, branched or numerical; the counts sum to nodes
    ends: dict[str, int]

    @property
    def gap(self) -> float:
        if self.objective is None:
            return float("inf")
        return (self.bound - self.objective) / max(1e-9, abs(self.objective))


def linearize_product(
    lp: LinearProgram, z: str, x: str, y: str, upper: float
) -> None:
    """Constrain z = x*y for binary x and continuous y in [0, upper].

    Exact whenever x is integral: x=0 forces z=0, x=1 forces z=y.
    z must have been declared with bounds [0, upper].
    """
    if not np.isfinite(upper):
        raise ValueError("product linearization needs a finite upper bound")
    lp.add_row(f"linz_cap[{z}]", {z: 1.0, x: -upper}, LE, 0.0)
    lp.add_row(f"linz_le[{z}]", {z: 1.0, y: -1.0}, LE, 0.0)
    lp.add_row(f"linz_ge[{z}]", {z: 1.0, y: -1.0, x: -upper}, GE, -upper)


def build_milp(
    g: TaskGraph,
    procs: int,
    fs: FrequencySet,
    pm: PowerModel,
    eps_max: float,
    T_d: float,
) -> MilpModel:
    """Full joint model over the normalized DAG.

    A task u with two or more parents gets the clamp bit X[u], Z[u] =
    X[u]*Esum[u] and Ei[u] = X + Esum - Z = min(1, Esum). Any other task has
    Esum[u] <= 1, so its row is Ei[u] = Esum[u]. Y[k,v,u] is fixed at 0 where
    u is a proper ancestor of v and mandatory_u + mandatory_v > 0: with v
    right before u the path u ~> v forces D[u] + D[v] <= 0, while every
    D >= mandatory / f_max.
    """
    if procs < 1:
        raise ValueError("need at least one processor")
    tasks = tuple(sorted(g.tasks))
    n = len(tasks)
    idx = {u: i + 1 for i, u in enumerate(tasks)}  # 1..n; 0 / n+1 virtual
    anc: dict[str, set[str]] = {u: set() for u in tasks}  # proper ancestors
    for u in topological_order(g):  # rejects cycles
        for v in g.children(u):
            anc[v] |= anc[u] | {u}
    # the index pairs (v, u) whose Y[k,v,u] is fixed at 0
    dead = {
        (idx[v], idx[u])
        for v in tasks
        for u in anc[v]
        if g.task(u).mandatory + g.task(v).mandatory > 0
    }

    lp = LinearProgram()
    for u in tasks:
        lp.add_var(f"S[{u}]", 0.0, T_d)
        lp.add_var(f"D[{u}]", 0.0, T_d)
        for i, f in enumerate(fs):
            lp.add_var(f"N[{u},{i}]", 0.0, T_d * f)
    for u in tasks:
        t = g.task(u)
        lp.add_var(f"o[{u}]", 0.0, float(t.optional))
        lp.add_var(f"Eo[{u}]", 0.0, 1.0)
        lp.add_var(f"Esum[{u}]", 0.0, float(max(len(g.parents(u)), 0)))
        lp.add_var(f"Ei[{u}]", 0.0, 1.0)

    pi_names = []
    for k in range(procs):
        for u in tasks:
            pi_names.append(lp.add_var(f"Pi[{k},{u}]", 0.0, 1.0))
    y_names = []
    for k in range(procs):
        for ui in range(0, n + 1):
            for vi in range(1, n + 2):
                if vi == ui:
                    continue
                hi = 0.0 if (ui, vi) in dead else 1.0
                y_names.append(lp.add_var(f"Y[{k},{ui},{vi}]", 0.0, hi))
    x_names = []
    for u in tasks:
        if len(g.parents(u)) > 1:
            x_names.append(lp.add_var(f"X[{u}]", 0.0, 1.0))
            lp.add_var(f"Z[{u}]", 0.0, float(n))

    # timing rows (same shape as the LP stage, minus fixed chains)
    for u in tasks:
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
    lp.add_row("energy", _energy_coeffs(g, pm, fs), LE, eps_max)

    # one processor per task
    for u in tasks:
        lp.add_row(
            f"assign[{u}]", {f"Pi[{k},{u}]": 1.0 for k in range(procs)}, EQ, 1.0
        )

    # ordering flow: every assigned task has exactly one predecessor and one
    # successor slot on its processor; virtual 0 and n+1 are always present
    for k in range(procs):
        for ui in range(0, n + 1):
            coeffs = {
                f"Y[{k},{ui},{vi}]": 1.0 for vi in range(1, n + 2) if vi != ui
            }
            if ui == 0:
                lp.add_row(f"flow_out[{k},0]", coeffs, EQ, 1.0)
            else:
                coeffs[f"Pi[{k},{tasks[ui - 1]}]"] = -1.0
                lp.add_row(f"flow_out[{k},{ui}]", coeffs, EQ, 0.0)
        for vi in range(1, n + 2):
            coeffs = {
                f"Y[{k},{ui},{vi}]": 1.0 for ui in range(0, n + 1) if ui != vi
            }
            if vi == n + 1:
                lp.add_row(f"flow_in[{k},{n + 1}]", coeffs, EQ, 1.0)
            else:
                coeffs[f"Pi[{k},{tasks[vi - 1]}]"] = -1.0
                lp.add_row(f"flow_in[{k},{vi}]", coeffs, EQ, 0.0)

    # big-M non-overlap, activated by the ordering decision
    for k in range(procs):
        for u in tasks:
            for v in tasks:
                if u == v:
                    continue
                lp.add_row(
                    f"seq[{k},{u},{v}]",
                    {
                        f"S[{u}]": 1.0,
                        f"D[{u}]": 1.0,
                        f"S[{v}]": -1.0,
                        f"Y[{k},{idx[u]},{idx[v]}]": T_d,
                    },
                    LE,
                    T_d,
                )

    # error propagation
    for u in tasks:
        t = g.task(u)
        lp.add_row(
            f"errdef[{u}]", {f"Eo[{u}]": 1.0, f"o[{u}]": 1.0 / t.optional}, EQ, 1.0
        )
        coeffs = {f"Esum[{u}]": 1.0}
        for p in g.parents(u):
            coeffs[f"Eo[{p}]"] = -1.0
        lp.add_row(f"errsum[{u}]", coeffs, EQ, 0.0)
        if len(g.parents(u)) > 1:
            # clamp binary: X = 1 exactly when the parent error sum exceeds 1
            lp.add_row(
                f"clamp_lo[{u}]", {f"X[{u}]": float(n), f"Esum[{u}]": -1.0}, GE, -1.0
            )
            lp.add_row(f"clamp_hi[{u}]", {f"X[{u}]": 1.0, f"Esum[{u}]": -1.0}, LE, 0.0)
            linearize_product(lp, f"Z[{u}]", f"X[{u}]", f"Esum[{u}]", float(n))
            coeffs = {f"Ei[{u}]": 1.0, f"X[{u}]": -1.0, f"Esum[{u}]": -1.0, f"Z[{u}]": 1.0}
        else:
            coeffs = {f"Ei[{u}]": 1.0, f"Esum[{u}]": -1.0}
        lp.add_row(f"inerr[{u}]", coeffs, EQ, 0.0)
        # executed cycles = mandatory + compensation + executed optional
        coeffs = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        coeffs[f"Ei[{u}]"] = -float(t.extension)
        coeffs[f"o[{u}]"] = -1.0
        lp.add_row(f"load[{u}]", coeffs, EQ, float(t.mandatory))

    _qos_objective(lp, g)
    binaries = tuple(pi_names + y_names + x_names)
    return MilpModel(lp, binaries, tasks, procs, g, pm, fs, eps_max, T_d)


def encode_solution(
    model: MilpModel,
    asg: Assignment,
    sched: Schedule,
) -> dict[str, float]:
    """Translate a heuristic schedule into a full MILP variable assignment.

    Used to warm-start branch-and-bound with the proposed method's solution;
    the point is checked against the model rows before being accepted.
    """
    g = model.graph
    n = len(model.task_order)
    idx = {u: i + 1 for i, u in enumerate(model.task_order)}
    values: dict[str, float] = {}
    for u in g.tasks:
        values[f"S[{u}]"] = sched.start[u]
        values[f"D[{u}]"] = sched.durations[u]
    for (u, i), ncyc in sched.cycles.items():
        values[f"N[{u},{i}]"] = ncyc
    for u in g.tasks:
        t = g.task(u)
        o = float(sched.opt_cycles.get(u, 0.0))
        values[f"o[{u}]"] = o
        values[f"Eo[{u}]"] = 1.0 - o / t.optional
    for u in g.tasks:
        esum = sum(values[f"Eo[{p}]"] for p in g.parents(u))
        x = 1.0 if esum > 1.0 + 1e-12 else 0.0
        values[f"Esum[{u}]"] = esum
        values[f"Ei[{u}]"] = x + esum - x * esum
        if len(g.parents(u)) > 1:
            values[f"X[{u}]"] = x
            values[f"Z[{u}]"] = x * esum
    for k in range(model.procs):
        for u in g.tasks:
            values[f"Pi[{k},{u}]"] = 1.0 if asg.proc_of[u] == k else 0.0
        chain = [0] + [idx[u] for u in asg.order[k]] + [n + 1]
        arcs = set(zip(chain, chain[1:]))
        for ui in range(0, n + 1):
            for vi in range(1, n + 2):
                if vi == ui:
                    continue
                values[f"Y[{k},{ui},{vi}]"] = 1.0 if (ui, vi) in arcs else 0.0
    return values


def decode_assignment(model: MilpModel, values: dict[str, float]) -> Assignment:
    """Read processor chains out of integral Pi/Y values.

    Raises if the arcs do not form one clean path per processor covering
    exactly the assigned tasks (possible only for zero-duration cycles,
    which well-formed instances do not produce).
    """
    n = len(model.task_order)
    proc_of: dict[str, int] = {}
    order = []
    for k in range(model.procs):
        assigned = {
            u for u in model.task_order if values[f"Pi[{k},{u}]"] > 0.5
        }
        nxt: dict[int, int] = {}
        for ui in range(0, n + 1):
            for vi in range(1, n + 2):
                if vi != ui and values[f"Y[{k},{ui},{vi}]"] > 0.5:
                    if ui in nxt:
                        raise ValueError(f"processor {k}: task {ui} has two successors")
                    nxt[ui] = vi
        chain = []
        cur = 0
        seen = set()
        while cur != n + 1:
            if cur not in nxt or cur in seen:
                raise ValueError(f"processor {k}: broken ordering chain")
            seen.add(cur)
            cur = nxt[cur]
            if cur != n + 1:
                chain.append(model.task_order[cur - 1])
        if set(chain) != assigned:
            raise ValueError(f"processor {k}: chain does not match assignment")
        for u in chain:
            if u in proc_of:
                raise ValueError(f"task {u} assigned to two processors")
            proc_of[u] = k
        order.append(tuple(chain))
    if set(proc_of) != set(model.task_order):
        raise ValueError("some tasks are unassigned")
    return Assignment(proc_of, tuple(order))


def _seed_crash(model: MilpModel, values: dict[str, float]) -> np.ndarray:
    """The root's crash basis at a seed's assignment: schedlp.asap_basis, in
    which the seq[k,u,v] row of each arc Y = 1 of the seed plays the role of
    a chain row, with the seed's Pi and Y binaries that are 1 on their upper
    bound. Every o sits on its upper bound; X, Z and the error columns at 0."""
    g, col = model.graph, model.lp.var_index
    prec = precedence(g, decode_assignment(model, values), chain="seq[{k},{u},{v}]")
    vstat = asap_basis(model.lp, g, prec, model.power, model.freqs)
    on = [b for b in model.binaries if not b.startswith("X[") and values[b] > 0.5]
    vstat[[col[b] for b in on]] = 1
    return vstat


def solve_branch_and_bound(
    model: MilpModel,
    time_limit: float = 600.0,
    seed_values: dict[str, float] | None = None,
) -> tuple[BnbResult, Schedule | None, Assignment | None]:
    """Best-first branch-and-bound on the LP relaxation.

    While some free clamp bit X[u] is fractional, branches on the most
    fractional of them: with X fractional, Ei = X + Esum - Z can fall below
    min(1, Esum), which leaves the LP bound vacuous. Otherwise, and on a
    model without clamp bits, branches on the most fractional binary. Ties
    go to the first in model.binaries.
    Each node solves its LP warm from its parent's basis; an integral leaf
    re-solves with every binary fixed, warm from the leaf's own basis.
    seed_values, when given and feasible, becomes the initial incumbent,
    and the root starts from the crash at its assignment (_seed_crash);
    without it the root starts from the slack basis.
    A node LP that ends neither optimal nor infeasible stops the search
    with status "unknown".
    """
    t0 = time.monotonic()
    comp = model.lp.compile()
    bin_idx = np.array([comp.var_index[b] for b in model.binaries], dtype=np.int64)
    # the clamp bits X come last
    clamp_start = len(bin_idx) - sum(b.startswith("X[") for b in model.binaries)

    incumbent_obj = None
    incumbent_sol: LPSolution | None = None
    root_basis = None
    if seed_values is not None:
        x = np.array([seed_values[n] for n in comp.var_names])
        if max_violation(comp, x) <= 1e-6:
            incumbent_obj = float(comp.c @ x) + comp.constant
            incumbent_sol = LPSolution(
                "optimal",
                incumbent_obj,
                {n: float(x[j]) for j, n in enumerate(comp.var_names)},
                {},
                0,
                "seeded incumbent",
            )
            root_basis = _seed_crash(model, seed_values)

    # open nodes, best bound first, then first pushed:
    # (-bound, push count, lo, hi, the parent LP's basis)
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray | None]] = []
    push_count = 0

    def push(bound, lo, hi, basis):
        nonlocal push_count
        heapq.heappush(heap, (-bound, push_count, lo, hi, basis))
        push_count += 1

    push(float("inf"), comp.lo.copy(), comp.hi.copy(), root_basis)
    explored = 0
    ends = dict.fromkeys(("infeasible", "bound", "integral", "branched", "numerical"), 0)
    lp_iterations = 0
    status = None

    def better(obj):
        return incumbent_obj is None or obj > incumbent_obj + 1e-9

    while heap:
        if time.monotonic() - t0 > time_limit:
            status = "feasible" if incumbent_obj is not None else "unknown"
            break
        neg_bound, _, lo, hi, basis = heapq.heappop(heap)
        bound = -neg_bound
        if incumbent_obj is not None and bound <= incumbent_obj + 1e-9:
            continue
        explored += 1

        sol = solve_lp(comp, lower=lo, upper=hi, basis=basis)
        lp_iterations += sol.iterations
        if sol.status == "infeasible":
            ends["infeasible"] += 1
            continue
        if not sol.optimal:
            # numerical trouble on a subproblem: treat as unexplored bound
            ends["numerical"] += 1
            status = "unknown"
            break
        node_bound = min(bound, sol.objective)
        if incumbent_obj is not None and node_bound <= incumbent_obj + 1e-9:
            ends["bound"] += 1
            continue

        xb = np.array([sol.values[comp.var_names[j]] for j in bin_idx])
        frac = np.minimum(np.abs(xb), np.abs(1.0 - xb))
        frac = np.where(hi[bin_idx] > lo[bin_idx], frac, 0.0)
        worst = float(frac.max(initial=0.0))
        if worst <= INT_TOL:
            ends["integral"] += 1
            flo = lo.copy()
            fhi = hi.copy()
            rounded = np.round(np.clip(xb, 0.0, 1.0))
            flo[bin_idx] = rounded
            fhi[bin_idx] = rounded
            fixed_sol = solve_lp(comp, lower=flo, upper=fhi, basis=sol.basis)
            lp_iterations += fixed_sol.iterations
            if fixed_sol.optimal:
                # structural sanity; raises on subtours
                decode_assignment(model, fixed_sol.values)
                if better(fixed_sol.objective):
                    incumbent_obj = fixed_sol.objective
                    incumbent_sol = fixed_sol
            continue

        # most fractional X[u] while one is fractional, else most fractional
        # binary; ties resolved by position in the binaries tuple
        first = clamp_start if frac[clamp_start:].max(initial=0.0) > INT_TOL else 0
        best_j = None
        best_score = -1.0
        for pos in range(first, len(bin_idx)):
            j = bin_idx[pos]
            if hi[j] <= lo[j]:
                continue
            score = min(xb[pos], 1.0 - xb[pos])
            if score > best_score + 1e-9:
                best_score = score
                best_j = j
        ends["branched"] += 1
        for branch_val in (0.0, 1.0):
            blo = lo.copy()
            bhi = hi.copy()
            blo[best_j] = branch_val
            bhi[best_j] = branch_val
            push(node_bound, blo, bhi, sol.basis)

    wall = time.monotonic() - t0
    if status is None:
        status = "optimal" if incumbent_obj is not None else "infeasible"
    open_bounds = [-node[0] for node in heap]
    best_bound = max(
        open_bounds + ([incumbent_obj] if incumbent_obj is not None else []),
        default=float("-inf"),
    )
    if status == "optimal":
        best_bound = incumbent_obj
    result = BnbResult(status, incumbent_obj, best_bound, explored, wall, lp_iterations, ends)

    schedule = None
    assignment = None
    if incumbent_sol is not None:
        schedule = decode_schedule(model.graph, model.power, model.freqs, incumbent_sol)
        assignment = decode_assignment(model, incumbent_sol.values)
    return result, schedule, assignment
