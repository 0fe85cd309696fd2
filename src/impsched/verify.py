"""Independent schedule verification.

Every check here recomputes its quantity from the raw schedule data and the
power constants; nothing is shared with the LP builders on purpose, so a bug
on either side shows up as a failed check rather than agreeing with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import FrequencySet, PowerModel
from .imprecision import EffectiveWorkloads
from .listsched import Assignment
from .schedlp import Schedule
from .taskgraph import TaskGraph

__all__ = [
    "CheckResult",
    "VerificationReport",
    "WorkloadContract",
    "verify_schedule",
    "idle_static_energy",
]

# relative slack tolerance; LP feasibility is 1e-7 on scaled rows
_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    margin: float  # worst slack seen (negative = violated)
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            state = "ok " if c.ok else "FAIL"
            extra = f" ({c.detail})" if c.detail else ""
            lines.append(f"{state} {c.name}: margin {c.margin:.3e}{extra}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WorkloadContract:
    """Per-task cycle window and the mandatory part the window sits on."""

    bounds: dict[str, tuple[float, float]]
    mandatory: dict[str, float]

    @classmethod
    def from_labeling(cls, g: TaskGraph, wl: EffectiveWorkloads) -> "WorkloadContract":
        exits = set(g.exits())
        bounds = {}
        mandatory = {}
        for u in g.tasks:
            m_eff = float(wl.mandatory_eff[u])
            mandatory[u] = m_eff
            if u in exits:
                bounds[u] = (m_eff, m_eff + g.task(u).optional)
            else:
                w = float(wl.total[u])
                bounds[u] = (w, w)
        return cls(bounds, mandatory)

    @classmethod
    def precise_initial(cls, g: TaskGraph) -> "WorkloadContract":
        bounds = {}
        mandatory = {}
        for u in g.tasks:
            t = g.task(u)
            w = float(t.initial_workload)
            bounds[u] = (w, w)
            mandatory[u] = float(t.mandatory)
        return cls(bounds, mandatory)

    @classmethod
    def from_milp_schedule(cls, g: TaskGraph, sched: Schedule) -> "WorkloadContract":
        """Recompute each task's input error from the executed optional cycles."""
        bounds = {}
        mandatory = {}
        for u in g.tasks:
            t = g.task(u)
            err_sum = 0.0
            for p in g.parents(u):
                tp = g.task(p)
                err_sum += 1.0 - sched.opt_cycles.get(p, 0.0) / tp.optional
            e_in = min(1.0, err_sum)
            m_eff = t.mandatory + t.extension * e_in
            mandatory[u] = m_eff
            bounds[u] = (m_eff, m_eff + t.optional)
        return cls(bounds, mandatory)


def idle_static_energy(sched: Schedule, asg: Assignment, pm: PowerModel) -> float:
    """Static energy of the idle gaps up to the makespan, per processor.

    Audit figure only: the budget accounting charges per-task energy
    exclusively, so idle intervals are never billed against eps_max.
    """
    horizon = sched.makespan
    total = 0.0
    for seq in asg.order:
        busy = sum(sched.durations[u] for u in seq)
        total += pm.delta * max(0.0, horizon - busy)
    return total


def _scaled(value: float, scale: float) -> float:
    return value / max(1.0, abs(scale))


def verify_schedule(
    g: TaskGraph,
    sched: Schedule,
    asg: Assignment,
    pm: PowerModel,
    fs: FrequencySet,
    eps_max: float,
    T_d: float,
    contract: WorkloadContract,
) -> VerificationReport:
    """Re-derive every scheduling constraint from scratch and report margins."""
    checks: list[CheckResult] = []
    freqs = list(fs)
    n_f = len(freqs)
    # per-cycle energy straight from the constants, independent of the
    # energy module used by the builders
    cycle_cost = [
        pm.alpha * f ** (pm.beta - 1.0) + pm.gamma + pm.delta / f for f in freqs
    ]

    def add(name, margin, detail=""):
        checks.append(CheckResult(name, margin >= -_TOL, margin, detail))

    # every comparison below is False for nan, so non-finite numbers fail here
    finite = math.isfinite
    bad = [f"start[{u}]" for u, v in sched.start.items() if not finite(v)]
    bad += [f"D[{u}]" for u, v in sched.durations.items() if not finite(v)]
    bad += [f"N[{u},{i}]" for (u, i), v in sched.cycles.items() if not finite(v)]
    bad += [f"o[{u}]" for u, v in sched.opt_cycles.items() if not finite(v)]
    bad += [name for name, v in (("energy", sched.energy), ("qos", sched.qos)) if not finite(v)]
    add("finite-values", -math.inf if bad else 0.0, ", ".join(bad))

    # cycles non-negative
    worst = (0.0, "")
    for (u, i), n in sched.cycles.items():
        s = _scaled(n, 1.0)
        if s < worst[0]:
            worst = (s, f"N[{u},{i}]={n}")
    add("cycles-nonnegative", worst[0], worst[1])

    # workload windows
    totals = {u: sum(sched.cycles.get((u, i), 0.0) for i in range(n_f)) for u in g.tasks}
    lo_m, hi_m, detail = 0.0, 0.0, ""
    for u in g.tasks:
        total = totals[u]
        lo, hi = contract.bounds[u]
        m_lo = _scaled(total - lo, lo)
        m_hi = _scaled(hi - total, hi)
        if m_lo < lo_m:
            lo_m, detail = m_lo, f"{u}: {total:.1f} < {lo:.1f}"
        if m_hi < hi_m:
            hi_m, detail = m_hi, f"{u}: {total:.1f} > {hi:.1f}"
    add("workload-window", min(lo_m, hi_m), detail)

    # optional-cycle accounting: executed optional = total - mandatory part
    worst = (0.0, "")
    for u in g.tasks:
        if u not in sched.opt_cycles:
            continue
        expect = totals[u] - contract.mandatory[u]
        err = -_scaled(abs(sched.opt_cycles[u] - expect), contract.mandatory[u] + 1.0)
        if err < worst[0]:
            worst = (err, f"{u}: o={sched.opt_cycles[u]:.2f} vs {expect:.2f}")
    add("optional-accounting", worst[0], worst[1])

    # durations match the frequency split
    worst = (0.0, "")
    for u in g.tasks:
        d = sum(sched.cycles.get((u, i), 0.0) / freqs[i] for i in range(n_f))
        err = -_scaled(abs(sched.durations[u] - d), d)
        if err < worst[0]:
            worst = (err, f"{u}: D={sched.durations[u]:.3e} vs {d:.3e}")
    add("duration-consistency", worst[0], worst[1])

    # start times and deadline
    worst = (0.0, "")
    for u in g.tasks:
        s = _scaled(sched.start[u], T_d)
        if s < worst[0]:
            worst = (s, f"{u} starts at {sched.start[u]:.3e}")
    add("start-nonnegative", worst[0], worst[1])
    worst = (0.0, "")
    for u in g.tasks:
        m = _scaled(T_d - sched.start[u] - sched.durations[u], T_d)
        if m < worst[0]:
            worst = (m, f"{u} finishes past the deadline")
    add("deadline", worst[0], worst[1])

    # precedence with communication on every edge
    worst = (0.0, "")
    for e in g.edges:
        m = _scaled(
            sched.start[e.dst] - sched.start[e.src] - sched.durations[e.src] - e.comm,
            T_d,
        )
        if m < worst[0]:
            worst = (m, f"{e.src}->{e.dst}")
    add("precedence", worst[0], worst[1])

    # same-processor non-overlap per the assignment order
    worst = (0.0, "")
    for k, seq in enumerate(asg.order):
        for j in range(len(seq) - 1):
            u, v = seq[j], seq[j + 1]
            m = _scaled(
                sched.start[v] - sched.start[u] - sched.durations[u], T_d
            )
            if m < worst[0]:
                worst = (m, f"proc {k}: {u} overlaps {v}")
    add("processor-non-overlap", worst[0], worst[1])

    # energy accounting and budget
    total_energy = sum(
        n * cycle_cost[i] for (u, i), n in sched.cycles.items()
    )
    add(
        "energy-accounting",
        -_scaled(abs(total_energy - sched.energy), total_energy),
        f"recomputed {total_energy:.6e} vs stored {sched.energy:.6e}",
    )
    add(
        "energy-budget",
        _scaled(eps_max - total_energy, eps_max),
        f"budget {eps_max:.6e}, used {total_energy:.6e}",
    )

    # QoS from exit precisions
    exits = g.exits()
    prec_sum = 0.0
    for u in exits:
        t = g.task(u)
        o = min(max(sched.opt_cycles[u], 0.0), float(t.optional))
        prec_sum += t.threshold + (1.0 - t.threshold) * o / t.optional
    q = prec_sum / len(exits)
    add(
        "qos-accounting",
        -abs(q - sched.qos),
        f"recomputed {q:.8f} vs stored {sched.qos:.8f}",
    )

    return VerificationReport(tuple(checks))
