"""Independent schedule verification.

Every check here recomputes its quantity from the raw schedule data and the
power constants; nothing is shared with the LP builders on purpose, so a bug
on either side shows up as a failed check rather than agreeing with itself.

Tolerances are unit-free. Each margin is a slack over a scale of its own
unit, and a check passes while its margin is at least -_TOL: times over T_d,
a task's cycles over the top of its workload window, its duration over the
duration its cycles take, the energy over the recomputed energy (accounting)
and over eps_max (budget); a zero scale counts as 1. QoS is unit-free
already. On every correct schedule measured (tools/verify_margins.py, and the
test suite's LP and branch-and-bound schedules) no margin was below -7e-14,
so 1e-8 leaves more than 10x of headroom; a 0.9 us error on a 1 ms duration
or 0.9 uJ over a 0.01 J budget fails.

verify_schedule makes one pass over each collection, without a helper call
per element: the cycles (finiteness, sign, each task's cycles and seconds,
the energy), the tasks, the edges, and each processor's chain. Arrays lose
here: numpy with a per-graph index was 2x faster at 40 tasks but 2.6x slower
at 3.
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

_TOL = 1e-8  # of every margin; see the module docstring


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
    freqs = fs.freqs
    # per-cycle energy straight from the constants, independent of the
    # energy module used by the builders
    cycle_cost = [pm.alpha * f ** (pm.beta - 1.0) + pm.gamma + pm.delta / f for f in freqs]
    finite = math.isfinite
    start, dur, opt, bounds = sched.start, sched.durations, sched.opt_cycles, contract.bounds

    # the cycles: finiteness, sign, each task's cycles and seconds, energy
    bad_n, neg, neg_at = [], 0.0, ""
    total = dict.fromkeys(g.tasks, 0.0)
    seconds = dict.fromkeys(g.tasks, 0.0)
    energy = 0.0
    for (u, i), n in sched.cycles.items():
        if not finite(n):
            bad_n.append(f"N[{u},{i}]")
        if n < 0.0 and n / (bounds[u][1] or 1.0) < neg:
            neg, neg_at = n / (bounds[u][1] or 1.0), f"N[{u},{i}]={n}"
        total[u] += n
        seconds[u] += n / freqs[i]
        energy += n * cycle_cost[i]

    # the tasks: finiteness, workload window, optional cycles, duration,
    # start and deadline
    bad_s, bad_d, bad_o = [], [], []
    win = acc = dev = early = late = 0.0
    win_at = acc_at = dev_at = early_at = late_at = ""
    for u in g.tasks:
        s, d, n, x = start[u], dur[u], total[u], seconds[u]
        if not finite(s):
            bad_s.append(f"start[{u}]")
        if not finite(d):
            bad_d.append(f"D[{u}]")
        lo, hi = bounds[u]
        scale = hi or 1.0
        m = (n - lo) / scale
        if m < win:
            win, win_at = m, f"{u}: {n:.1f} < {lo:.1f}"
        m = (hi - n) / scale
        if m < win:
            win, win_at = m, f"{u}: {n:.1f} > {hi:.1f}"
        if u in opt:
            o, expect = opt[u], n - contract.mandatory[u]
            if not finite(o):
                bad_o.append(f"o[{u}]")
            m = -abs(o - expect) / scale
            if m < acc:
                acc, acc_at = m, f"{u}: o={o:.2f} vs {expect:.2f}"
        m = -abs(d - x) / (abs(x) or 1.0)
        if m < dev:
            dev, dev_at = m, f"{u}: D={d:.3e} vs {x:.3e}"
        m = s / T_d
        if m < early:
            early, early_at = m, f"{u} starts at {s:.3e}"
        m = (T_d - s - d) / T_d
        if m < late:
            late, late_at = m, f"{u} finishes past the deadline"

    # precedence with communication on every edge
    prec, prec_at = 0.0, ""
    for e in g.edges:
        m = (start[e.dst] - start[e.src] - dur[e.src] - e.comm) / T_d
        if m < prec:
            prec, prec_at = m, f"{e.src}->{e.dst}"

    # same-processor non-overlap per the assignment order
    chain, chain_at = 0.0, ""
    for k, seq in enumerate(asg.order):
        for j in range(1, len(seq)):
            u, v = seq[j - 1], seq[j]
            m = (start[v] - start[u] - dur[u]) / T_d
            if m < chain:
                chain, chain_at = m, f"proc {k}: {u} overlaps {v}"

    # QoS from exit precisions
    exits = g.exits()
    prec_sum = 0.0
    for u in exits:
        t = g.task(u)
        o = min(max(opt[u], 0.0), float(t.optional))
        prec_sum += t.threshold + (1.0 - t.threshold) * o / t.optional
    q = prec_sum / len(exits)

    # every comparison above is False for nan, so non-finite numbers fail here
    bad = bad_s + bad_d + bad_n + bad_o
    bad += [name for name, v in (("energy", sched.energy), ("qos", sched.qos)) if not finite(v)]

    def check(name, m, at):
        return CheckResult(name, m >= -_TOL, m, at)

    return VerificationReport((
        check("finite-values", -math.inf if bad else 0.0, ", ".join(bad)),
        check("cycles-nonnegative", neg, neg_at),
        check("workload-window", win, win_at),
        check("optional-accounting", acc, acc_at),
        check("duration-consistency", dev, dev_at),
        check("start-nonnegative", early, early_at),
        check("deadline", late, late_at),
        check("precedence", prec, prec_at),
        check("processor-non-overlap", chain, chain_at),
        check(
            "energy-accounting",
            -abs(energy - sched.energy) / (abs(energy) or 1.0),
            f"recomputed {energy:.6e} vs stored {sched.energy:.6e}",
        ),
        check(
            "energy-budget",
            (eps_max - energy) / (abs(eps_max) or 1.0),
            f"budget {eps_max:.6e}, used {energy:.6e}",
        ),
        check("qos-accounting", -abs(q - sched.qos), f"recomputed {q:.8f} vs stored {sched.qos:.8f}"),
    ))
