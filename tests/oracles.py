"""Independent reference computations the tests check the package against.

Everything here is deliberately written from the problem definition, not from
the package's own helpers, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from impsched.lp import EQ, GE, LE, LinearProgram, solve_lp
from impsched.schedlp import _add_timing_core, _energy_coeffs, _qos_objective
from impsched.taskgraph import NO_OPTIONAL, TaskGraph, topological_order
from impsched.verify import _TOL, CheckResult, VerificationReport, WorkloadContract


# --- labeling ----------------------------------------------------------------

def labeling_objective(g: TaskGraph, precise: dict[str, bool]) -> int:
    """Non-exit total workload plus exit mandatory workload for a 0/1 labeling."""
    exits = set(g.exits())
    total = 0
    for u in g.tasks:
        t = g.task(u)
        extended = any(p in precise and not precise[p] for p in g.parents(u))
        m_eff = t.mandatory + (t.extension if extended else 0)
        if u in exits:
            total += m_eff
        else:
            total += m_eff + (t.optional if precise[u] else 0)
    return total


def brute_force_labeling_min(g: TaskGraph) -> int:
    """Exhaustive minimum over all binary optional-execution choices."""
    exits = set(g.exits())
    forced = {
        u: True
        for u in g.tasks
        if u not in exits and g.task(u).optional <= NO_OPTIONAL
    }
    free = sorted(
        u for u in g.tasks if u not in exits and u not in forced
    )
    assert len(free) <= 20, "brute force is meant for tiny graphs"
    best = None
    for bits in itertools.product((True, False), repeat=len(free)):
        precise = dict(forced)
        precise.update(zip(free, bits))
        obj = labeling_objective(g, precise)
        if best is None or obj < best:
            best = obj
    return best


def backward_pass_full(g: TaskGraph, precise: dict[str, bool]) -> dict[str, bool]:
    """The backward pass's precise labels, each candidate prefix scored by
    recomputing the whole objective (labeling_objective)."""
    precise = dict(precise)
    for t_id in reversed(topological_order(g)):
        if len(g.parents(t_id)) < 2:
            continue
        candidates = [
            p
            for p in g.parents(t_id)
            if precise.get(p, False) and g.task(p).optional > NO_OPTIONAL
        ]
        if not candidates:
            continue
        extended = {
            u: any(not precise.get(p, True) for p in g.parents(u)) for u in g.tasks
        }
        candidates.sort(
            key=lambda p: (sum(1 for c in g.children(p) if not extended[c]), p)
        )
        base = labeling_objective(g, precise)
        trial = dict(precise)
        best_delta, best_k = 0, 0
        for k, p in enumerate(candidates, 1):
            trial[p] = False
            delta = labeling_objective(g, trial) - base
            if delta < best_delta:
                best_delta, best_k = delta, k
        for p in candidates[:best_k]:
            precise[p] = False
    return precise


# --- the scheduling programs, one builder per method ----------------------------
# Each method's program and contract as written before they became one builder
# under the all-precise labeling; the package's must equal them bit for bit.

def qos_lp_reference(g, wl, asg, pm, fs, eps_max, T_d) -> LinearProgram:
    """Proposed: labeled non-exit loads, exits mandatory_eff + free optional."""
    lp = LinearProgram()
    _add_timing_core(lp, g, asg, fs, T_d)
    exits = set(g.exits())
    for u in g.tasks:
        total = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        if u in exits:
            lp.add_var(f"o[{u}]", 0.0, float(g.task(u).optional))
            total[f"o[{u}]"] = -1.0
            lp.add_row(f"load[{u}]", total, EQ, float(wl.mandatory_eff[u]))
        else:
            lp.add_row(f"load[{u}]", total, EQ, float(wl.total[u]))
    lp.add_row("energy", _energy_coeffs(g, pm, fs), LE, eps_max)
    _qos_objective(lp, g)
    return lp


def min_energy_lp_reference(g, asg, pm, fs, T_d) -> LinearProgram:
    """eps*: every task runs its initial workload, minimum energy."""
    lp = LinearProgram()
    _add_timing_core(lp, g, asg, fs, T_d)
    for u in g.tasks:
        total = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        lp.add_row(f"load[{u}]", total, EQ, float(g.task(u).initial_workload))
    lp.set_objective("min", _energy_coeffs(g, pm, fs))
    return lp


def baseline_lp_reference(g, asg, pm, fs, eps_max, T_d) -> LinearProgram:
    """Baseline: non-exit tasks keep their initial workloads, exits run their
    base mandatory part plus free optional."""
    lp = LinearProgram()
    _add_timing_core(lp, g, asg, fs, T_d)
    exits = set(g.exits())
    for u in g.tasks:
        t = g.task(u)
        total = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        if u in exits:
            lp.add_var(f"o[{u}]", 0.0, float(t.optional))
            total[f"o[{u}]"] = -1.0
            lp.add_row(f"load[{u}]", total, EQ, float(t.mandatory))
        else:
            lp.add_row(f"load[{u}]", total, EQ, float(t.initial_workload))
    lp.add_row("energy", _energy_coeffs(g, pm, fs), LE, eps_max)
    _qos_objective(lp, g)
    return lp


def baseline_contract_reference(g: TaskGraph) -> WorkloadContract:
    """Baseline windows: non-exit tasks pinned to their initial workloads,
    exits between mandatory and initial workload."""
    exits = set(g.exits())
    bounds = {}
    mandatory = {}
    for u in g.tasks:
        t = g.task(u)
        mandatory[u] = float(t.mandatory)
        if u in exits:
            bounds[u] = (float(t.mandatory), float(t.initial_workload))
        else:
            w = float(t.initial_workload)
            bounds[u] = (w, w)
    return WorkloadContract(bounds, mandatory)


# --- the verifier, one check at a time -----------------------------------------

def _worst(pairs) -> tuple[float, str]:
    """The first of the most negative (margin, detail) pairs, or (0.0, "")."""
    worst = (0.0, "")
    for margin, detail in pairs:
        if margin < worst[0]:
            worst = (margin, detail)
    return worst


def verify_reference(g, sched, asg, pm, fs, eps_max, T_d, contract) -> VerificationReport:
    """verify_schedule written one check at a time, each a plain loop over its
    elements' margins, under the same tolerance rule: a slack over a scale of
    its own unit (times over T_d, a task's cycles over its window's top, its
    duration over its recomputed one, energy over the recomputed energy and
    over eps_max; a zero scale counts as 1), passing at margin >= -_TOL."""
    freqs = list(fs)
    cost = [pm.alpha * f ** (pm.beta - 1.0) + pm.gamma + pm.delta / f for f in freqs]
    items = list(sched.cycles.items())
    total = {u: sum(n for (v, _), n in items if v == u) for u in g.tasks}
    seconds = {u: sum(n / freqs[i] for (v, i), n in items if v == u) for u in g.tasks}
    energy = sum(n * cost[i] for (_, i), n in items)
    top = {u: contract.bounds[u][1] or 1.0 for u in g.tasks}
    start, dur, opt = sched.start, sched.durations, sched.opt_cycles

    bad = [f"start[{u}]" for u in g.tasks if not math.isfinite(start[u])]
    bad += [f"D[{u}]" for u in g.tasks if not math.isfinite(dur[u])]
    bad += [f"N[{u},{i}]" for (u, i), n in items if not math.isfinite(n)]
    bad += [f"o[{u}]" for u in g.tasks if u in opt and not math.isfinite(opt[u])]
    bad += [k for k, v in (("energy", sched.energy), ("qos", sched.qos)) if not math.isfinite(v)]

    def window(u):
        lo, hi = contract.bounds[u]
        yield (total[u] - lo) / top[u], f"{u}: {total[u]:.1f} < {lo:.1f}"
        yield (hi - total[u]) / top[u], f"{u}: {total[u]:.1f} > {hi:.1f}"

    def accounting(u):
        expect = total[u] - contract.mandatory[u]
        return -abs(opt[u] - expect) / top[u], f"{u}: o={opt[u]:.2f} vs {expect:.2f}"

    def slack(u, v, gap):
        return (start[v] - start[u] - dur[u] - gap) / T_d

    exits = g.exits()
    q = sum(
        g.task(u).threshold
        + (1.0 - g.task(u).threshold)
        * min(max(opt[u], 0.0), float(g.task(u).optional)) / g.task(u).optional
        for u in exits
    ) / len(exits)
    checks = [
        ("finite-values", (-math.inf if bad else 0.0, ", ".join(bad))),
        ("cycles-nonnegative", _worst(
            (n / top[u], f"N[{u},{i}]={n}") for (u, i), n in items if n < 0.0)),
        ("workload-window", _worst(p for u in g.tasks for p in window(u))),
        ("optional-accounting", _worst(accounting(u) for u in g.tasks if u in opt)),
        ("duration-consistency", _worst(
            (-abs(dur[u] - seconds[u]) / (abs(seconds[u]) or 1.0),
             f"{u}: D={dur[u]:.3e} vs {seconds[u]:.3e}") for u in g.tasks)),
        ("start-nonnegative", _worst(
            (start[u] / T_d, f"{u} starts at {start[u]:.3e}") for u in g.tasks)),
        ("deadline", _worst(
            ((T_d - start[u] - dur[u]) / T_d, f"{u} finishes past the deadline")
            for u in g.tasks)),
        ("precedence", _worst(
            (slack(e.src, e.dst, e.comm), f"{e.src}->{e.dst}") for e in g.edges)),
        ("processor-non-overlap", _worst(
            (slack(seq[j], seq[j + 1], 0.0), f"proc {k}: {seq[j]} overlaps {seq[j + 1]}")
            for k, seq in enumerate(asg.order) for j in range(len(seq) - 1))),
        ("energy-accounting", (
            -abs(energy - sched.energy) / (abs(energy) or 1.0),
            f"recomputed {energy:.6e} vs stored {sched.energy:.6e}")),
        ("energy-budget", (
            (eps_max - energy) / (abs(eps_max) or 1.0),
            f"budget {eps_max:.6e}, used {energy:.6e}")),
        ("qos-accounting", (
            -abs(q - sched.qos), f"recomputed {q:.8f} vs stored {sched.qos:.8f}")),
    ]
    return VerificationReport(
        tuple(CheckResult(name, m >= -_TOL, m, at) for name, (m, at) in checks)
    )


# --- LP optimality certificate -------------------------------------------------

def dual_certificate_ok(lp, sol, tol: float = 1e-6) -> tuple[bool, str]:
    """Check dual feasibility and complementary slackness of a claimed optimum."""
    comp = lp.compile() if isinstance(lp, LinearProgram) else lp
    x = np.array([sol.values[n] for n in comp.var_names])
    y = np.array([sol.duals[n] for n in comp.row_names])
    rc = comp.c - comp.A.T @ y
    act = comp.A @ x if comp.A.shape[0] else np.zeros(0)
    mx = comp.maximize
    for i, s in enumerate(comp.senses):
        scale = max(1.0, abs(comp.b[i]))
        if s == LE:
            slack = comp.b[i] - act[i]
            ok_sign = y[i] >= -tol if mx else y[i] <= tol
        elif s == GE:
            slack = act[i] - comp.b[i]
            ok_sign = y[i] <= tol if mx else y[i] >= -tol
        else:
            continue
        if not ok_sign:
            return False, f"dual sign violated on row {comp.row_names[i]}"
        if abs(y[i]) > tol and slack / scale > tol:
            return False, f"complementary slackness violated on {comp.row_names[i]}"
    for j, name in enumerate(comp.var_names):
        scale = max(1.0, abs(comp.c[j]))
        at_lo = np.isfinite(comp.lo[j]) and x[j] - comp.lo[j] <= tol * max(
            1.0, abs(comp.lo[j])
        )
        at_hi = np.isfinite(comp.hi[j]) and comp.hi[j] - x[j] <= tol * max(
            1.0, abs(comp.hi[j])
        )
        if at_lo and at_hi:
            continue
        r = rc[j] / scale
        if mx:
            if at_lo and r > tol:
                return False, f"reduced cost of {name} at lower bound is {r}"
            if at_hi and r < -tol:
                return False, f"reduced cost of {name} at upper bound is {r}"
            if not at_lo and not at_hi and abs(r) > tol:
                return False, f"reduced cost of basic {name} is {r}"
        else:
            if at_lo and r < -tol:
                return False, f"reduced cost of {name} at lower bound is {r}"
            if at_hi and r > tol:
                return False, f"reduced cost of {name} at upper bound is {r}"
            if not at_lo and not at_hi and abs(r) > tol:
                return False, f"reduced cost of basic {name} is {r}"
    return True, ""


# --- exhaustive scheduling oracle ---------------------------------------------

def _ancestors(g: TaskGraph) -> dict[str, set[str]]:
    anc: dict[str, set[str]] = {u: set() for u in g.tasks}
    for u in topological_order(g):
        for v in g.children(u):
            anc[v].add(u)
            anc[v] |= anc[u]
    return anc


def _config_lp(g, fs, pm, order, eps_max, T_d, x_fix):
    """QoS LP for one fixed (assignment, per-processor order, clamp) choice.

    With the clamp bits fixed, the input error of every task is linear in the
    parents' executed optional cycles, so each configuration is a plain LP.
    """
    lp = LinearProgram()
    for u in g.tasks:
        lp.add_var(f"S[{u}]", 0.0, T_d)
        lp.add_var(f"D[{u}]", 0.0, T_d)
        for i, f in enumerate(fs):
            lp.add_var(f"N[{u},{i}]", 0.0, T_d * f)
        lp.add_var(f"o[{u}]", 0.0, float(g.task(u).optional))
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
    for k, seq in enumerate(order):
        for j in range(len(seq) - 1):
            u, v = seq[j], seq[j + 1]
            lp.add_row(
                f"chain[{k},{j}]",
                {f"S[{u}]": 1.0, f"D[{u}]": 1.0, f"S[{v}]": -1.0},
                LE,
                0.0,
            )
    lp.add_row("energy", _energy_coeffs(g, pm, fs), LE, eps_max)
    for u in g.tasks:
        t = g.task(u)
        parents = g.parents(u)
        x = x_fix.get(u, 0)
        # executed = M + m * E_in + o, with E_in = x + (1-x) * sum(1 - o_p/O_p)
        coeffs = {f"N[{u},{i}]": 1.0 for i in range(len(fs))}
        coeffs[f"o[{u}]"] = coeffs.get(f"o[{u}]", 0.0) - 1.0
        rhs = t.mandatory + t.extension * x + t.extension * (1 - x) * len(parents)
        for p in parents:
            c = t.extension * (1 - x) / g.task(p).optional
            if c:
                coeffs[f"o[{p}]"] = coeffs.get(f"o[{p}]", 0.0) + c
        lp.add_row(f"load[{u}]", coeffs, EQ, rhs)
        if parents:
            region = {f"o[{p}]": -1.0 / g.task(p).optional for p in parents}
            if x == 0:
                lp.add_row(f"region[{u}]", region, LE, 1.0 - len(parents))
            else:
                lp.add_row(f"region[{u}]", region, GE, 1.0 - len(parents))
    _qos_objective(lp, g)
    return lp


def exhaustive_best_qos(g, procs, pm, fs, eps_max, T_d) -> float | None:
    """Best QoS over all assignments, precedence-consistent orders, and clamp
    bits; None when every configuration is infeasible.

    Restricting orders to ancestor-consistent permutations is lossless here
    because every task has a strictly positive mandatory workload, making
    precedence-violating chains infeasible.
    """
    tasks = sorted(g.tasks)
    assert all(g.task(u).mandatory > 0 for u in tasks)
    anc = _ancestors(g)
    multi = [u for u in tasks if len(g.parents(u)) > 1]
    best = None

    def orders_for(group):
        out = []
        for perm in itertools.permutations(sorted(group)):
            if any(
                perm[j] in anc[perm[i]]
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
            ):
                continue
            out.append(perm)
        return out

    for assign in itertools.product(range(procs), repeat=len(tasks)):
        # canonical under identical-processor symmetry: processor indices
        # appear in first-seen order
        top = -1
        ok = True
        for a in assign:
            if a > top + 1:
                ok = False
                break
            top = max(top, a)
        if not ok:
            continue
        groups = [
            [tasks[i] for i in range(len(tasks)) if assign[i] == k]
            for k in range(procs)
        ]
        per_group = [orders_for(gr) for gr in groups]
        for order in itertools.product(*per_group):
            for bits in itertools.product((0, 1), repeat=len(multi)):
                sol = solve_lp(
                    _config_lp(g, fs, pm, order, eps_max, T_d, dict(zip(multi, bits)))
                )
                if sol.optimal and (best is None or sol.objective > best):
                    best = sol.objective
    return best


# --- grid oracle for the minimum-energy program --------------------------------

def grid_min_energy_two_chain(g, pm, fs, T_d, steps: int = 60) -> float | None:
    """Two-task chain on one processor: grid over per-task frequency splits.

    Each task's workload is split between the slowest and one other frequency
    level by a scanned fraction; returns the cheapest feasible energy found.
    """
    (a, b) = sorted(g.tasks)
    comm = g.comm(a, b)
    freqs = list(fs)
    costs = [
        pm.alpha * f ** (pm.beta - 1.0) + pm.gamma + pm.delta / f for f in freqs
    ]
    best = None
    Wa = g.task(a).initial_workload
    Wb = g.task(b).initial_workload
    m = len(freqs)
    for ia, ja in itertools.combinations_with_replacement(range(m), 2):
        for ib, jb in itertools.combinations_with_replacement(range(m), 2):
            for sa in range(steps + 1):
                fa = sa / steps
                da = Wa * (fa / freqs[ia] + (1 - fa) / freqs[ja])
                ea = Wa * (fa * costs[ia] + (1 - fa) * costs[ja])
                for sb in range(steps + 1):
                    fb = sb / steps
                    db = Wb * (fb / freqs[ib] + (1 - fb) / freqs[jb])
                    if da + comm + db > T_d:
                        continue
                    eb = Wb * (fb * costs[ib] + (1 - fb) * costs[jb])
                    tot = ea + eb
                    if best is None or tot < best:
                        best = tot
    return best


# --- equilibration on the dense matrix -----------------------------------------

def _pow2_reciprocal(values: np.ndarray) -> np.ndarray:
    """1/values rounded to the nearest power of two; 1 where values <= 0."""
    out = np.ones_like(values)
    mask = values > 0
    out[mask] = np.exp2(-np.round(np.log2(values[mask])))
    return out


def equilibrate_dense(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometric-mean row/column scaling computed on the whole dense matrix:
    two rounds of row then column scaling by sqrt(max * min) of the scaled
    nonzeros, then a row pass by the row maxima. Reference for the
    nonzeros-only impsched.lp._equilibrate, which must agree bit for bit."""
    nr, nc = A.shape
    R = np.ones(nr)
    C = np.ones(nc)
    M = np.abs(A)
    with np.errstate(invalid="ignore"):
        for _ in range(2):
            S = M * R[:, None] * C[None, :]
            rmax = S.max(axis=1, initial=0.0)
            rmin = np.where(S > 0, S, np.inf).min(axis=1, initial=np.inf)
            R *= _pow2_reciprocal(
                np.where((rmax > 0) & np.isfinite(rmin), np.sqrt(rmax * rmin), 1.0)
            )
            S = M * R[:, None] * C[None, :]
            cmax = S.max(axis=0, initial=0.0)
            cmin = np.where(S > 0, S, np.inf).min(axis=0, initial=np.inf)
            C *= _pow2_reciprocal(
                np.where((cmax > 0) & np.isfinite(cmin), np.sqrt(cmax * cmin), 1.0)
            )
    S = M * R[:, None] * C[None, :]
    R *= _pow2_reciprocal(S.max(axis=1, initial=0.0))
    return R, C


def scaling_dense(A: np.ndarray):
    """(R, C, the scaled A, the row scales of max_violation) from dense
    products over the whole matrix. Reference for the nonzeros-only
    impsched.lp._scaling, which must agree bit for bit."""
    R, C = equilibrate_dense(A)
    As = A * R[:, None] * C[None, :]
    return R, C, As, np.maximum(1.0, np.abs(A).max(axis=1, initial=0.0))
