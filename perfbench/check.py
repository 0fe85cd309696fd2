"""Output checks. Every point that fails one counts into `fail_rate`.

Three checks, each able to fail on its own:

- the expected-outcome table (`expected.json`): for every point of the
  workload's fixed instance set, whatever the seed's order, the feasible flag, QoS or eps* (relative tolerance 1e-9), and the
  branch-and-bound status and objective. `energy_J`, makespan and node
  counts are left out: energy is vertex-dependent at non-binding budgets,
  and node counts are what a performance change is meant to move;
- invariants that hold at every seed (QoS never rises as the budget falls;
  the exact optimum is never below the heuristic it was seeded with);
- HiGHS on the same scheduling LPs, fed the power-of-two equilibrated
  program (raw SI coefficients near 5e-10 fall under its small-value
  threshold). HiGHS is not used for branch-and-bound: with integrality it
  misreports these models, and criterion 5 already checks the B&B values
  against an exhaustive oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EXPECTED = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0
TABLE_RTOL = 1e-9
HIGHS_RTOL = 1e-7
QOS_TOL = 1e-9


def load_table(workload: str) -> dict:
    return json.loads(EXPECTED.read_text())["workloads"][workload]


def _close(a, b, rtol) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def compare_table(outcomes: dict, table: dict) -> list[str]:
    """Keys of points whose recorded fields disagree with this pass."""
    bad = []
    for key in sorted(set(table) | set(outcomes)):
        want, got = table.get(key), outcomes.get(key)
        if want is None or got is None:
            bad.append(f"{key}: {'missing' if got is None else 'not in table'}")
            continue
        for field, w in want.items():
            g = got.get(field)
            same = (
                _close(g, w, TABLE_RTOL)
                if isinstance(w, float) or isinstance(g, float)
                else g == w
            )
            if not same:
                bad.append(f"{key}: {field} {g!r}, expected {w!r}")
    return bad


def table_entry(workload: str, outcome: dict) -> dict:
    """The fields of one outcome that the table records."""
    if workload == "bnb":
        return {"status": outcome["status"], "objective": outcome["objective"]}
    return dict(outcome)


def invariants(workload: str, outcomes: dict) -> list[str]:
    bad = []
    if workload == "bnb":
        for key, o in outcomes.items():
            heuristic = o["proposed_qos"]
            if not o["verified"] or o["status"] not in ("optimal", "infeasible"):
                bad.append(f"{key}: status {o['status']}, verified {o['verified']}")
            elif o["status"] == "infeasible":
                if heuristic is not None:
                    bad.append(f"{key}: infeasible, but the heuristic found {heuristic}")
            elif heuristic is not None and not (
                heuristic - QOS_TOL <= o["objective"] <= 1 + QOS_TOL
            ):
                bad.append(f"{key}: optimum {o['objective']} below heuristic "
                           f"{heuristic} or above 1")
        return bad
    series: dict[tuple[str, str], list[tuple[float, dict]]] = {}
    for key, o in outcomes.items():
        if key.startswith("eps/"):
            if not o["eps_star"] > 0:
                bad.append(f"{key}: eps* {o['eps_star']}")
            continue
        graph, method, ratio = key.rsplit("/", 2)
        series.setdefault((graph, method), []).append((float(ratio), o))
    for (graph, method), pts in series.items():
        pts.sort(key=lambda p: -p[0])
        last_qos, seen_infeasible = None, False
        for ratio, o in pts:
            where = f"{graph}/{method}/{ratio:g}"
            if o["feasible"]:
                if seen_infeasible:
                    bad.append(f"{where}: feasible below an infeasible budget")
                if not 0.0 <= o["qos"] <= 1.0 + QOS_TOL:
                    bad.append(f"{where}: qos {o['qos']}")
                if last_qos is not None and o["qos"] > last_qos + QOS_TOL:
                    bad.append(f"{where}: qos rose to {o['qos']} as the budget fell")
                last_qos = o["qos"]
            else:
                seen_infeasible = True
    return bad


def _pow2(v: np.ndarray) -> np.ndarray:
    out = np.ones_like(v)
    pos = v > 0
    out[pos] = np.exp2(-np.round(np.log2(v[pos])))
    return out


def equilibrate(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geometric-mean row and column scales, rounded to powers of two."""
    M = np.abs(A)
    R, C = np.ones(A.shape[0]), np.ones(A.shape[1])
    for _ in range(3):
        S = M * R[:, None] * C[None, :]
        big = S.max(axis=1, initial=0.0)
        small = np.where(S > 0, S, np.inf).min(axis=1, initial=np.inf)
        R *= _pow2(np.where(big > 0, np.sqrt(big * np.minimum(small, big)), 1.0))
        S = M * R[:, None] * C[None, :]
        big = S.max(axis=0, initial=0.0)
        small = np.where(S > 0, S, np.inf).min(axis=0, initial=np.inf)
        C *= _pow2(np.where(big > 0, np.sqrt(big * np.minimum(small, big)), 1.0))
    return R, C


def highs_objective(comp):
    """(status, objective) of a CompiledLP from HiGHS; objective None unless
    status is 'optimal'."""
    from scipy.optimize import linprog

    R, C = equilibrate(comp.A)
    A = comp.A * R[:, None] * C[None, :]
    b = comp.b * R
    sign = -1.0 if comp.maximize else 1.0
    senses = np.array(comp.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "=="
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    with np.errstate(invalid="ignore"):
        lo = np.where(np.isfinite(comp.lo), comp.lo / C, None)
        hi = np.where(np.isfinite(comp.hi), comp.hi / C, None)
    res = linprog(
        sign * comp.c * C,
        A_ub=A_ub if len(b_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=list(zip(lo, hi)),
        method="highs",
        # the defaults (1e-7) stopped 1.4e-5 short of a QoS-1.0 optimum
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 0:
        return "optimal", sign * res.fun + comp.constant
    return {2: "infeasible", 3: "unbounded"}.get(res.status, "error"), None


def highs_check(spans) -> list[str]:
    """Re-solve every captured scheduling LP with HiGHS and compare with the
    eps* or QoS that the point around it reported."""
    bad = []
    for s in spans:
        if s.func != "solve_lp" or s.data is None or s.data[0] is None:
            continue
        point = spans[s.parent] if s.parent >= 0 else None
        if point is None or point.data is None:
            continue  # the point raised; it is already counted
        result = point.data[1]
        if point.func == "epsilon_star":
            reported = result[0]
        else:
            reported = result.qos if result.feasible else None
        ref_status, ref = highs_objective(s.data[0].compile())
        if (reported is None) != (ref_status != "optimal") or (
            reported is not None and not _close(reported, ref, HIGHS_RTOL)
        ):
            bad.append(f"LP{len(bad)} under {point.name}: reported {reported!r}, "
                       f"HiGHS {ref_status} {ref!r}")
    return bad


class Tally:
    """Failed and attempted points over the passes of one run.

    With a table every pass is compared with it; without one, every later
    pass with the first. `add` keeps nothing of a pass but its failures, so
    memory does not grow with the number of passes.
    """

    def __init__(self, workload, table):
        self.workload = workload
        self.reference = table
        self.attempted = 0
        self.failed_keys: set[str] = set()
        self.notes: list[str] = []
        self.passes = 0

    def add(self, res, rec) -> None:
        name = self.workload.name
        bad = list(res.errors) + invariants(name, res.outcomes)
        if self.reference is not None:
            bad += compare_table(res.outcomes, self.reference)
        else:
            self.reference = {k: table_entry(name, o) for k, o in res.outcomes.items()}
        keys = {f"pass{self.passes}:{b.split(':', 1)[0]}" for b in bad}
        self.failed_keys |= keys
        self.notes += bad
        self.attempted += max(
            len(self.workload.point_times(rec.spans)),
            len(res.outcomes) + len(res.errors),
            len(keys),
        )
        self.passes += 1

    def add_highs(self, rec) -> None:
        """HiGHS on the LPs of one pass; run after memory is measured, since
        it loads scipy."""
        bad = highs_check(rec.spans)
        self.failed_keys |= {f"highs:{b.split(':', 1)[0]}" for b in bad}
        self.notes += bad

    @property
    def failed(self) -> int:
        return len(self.failed_keys)
