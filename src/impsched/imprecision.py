"""Error/precision algebra and the labeling heuristic for optional workloads.

The heuristic decides, for every non-exit task, whether its optional part runs
fully (precise) or is discarded entirely (imprecise), trying to minimize the
cycles spent on non-exit work plus exit mandatory work so that the scheduler
can push the remaining budget into exit-task optional cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .taskgraph import NO_OPTIONAL, TaskGraph, topological_order

__all__ = [
    "Labeling",
    "EffectiveWorkloads",
    "LabelingError",
    "output_error",
    "input_error",
    "mandatory_extension",
    "precision",
    "qos",
    "base_case1_decision",
    "forward_pass",
    "backward_pass",
    "imp_label",
    "reduction_objective",
    "effective_workloads",
    "precise_workloads",
    "initial_workloads",
    "format_labeling",
]


class LabelingError(ValueError):
    """Labeling inconsistent with the graph it claims to describe."""


@dataclass(frozen=True)
class Labeling:
    """precise: optional-part decision for non-exit tasks (True = run fully).

    extended: whether a task's mandatory part grows by its full extension,
    which happens exactly when some parent is labeled imprecise. Exit tasks
    never carry a precise entry; their optional cycles stay free for the
    scheduler.
    """

    precise: dict[str, bool]
    extended: dict[str, bool]


@dataclass(frozen=True)
class EffectiveWorkloads:
    """Cycle counts implied by a labeling: per task, the load window
    [fixed, full] of cycles it must and may run.

    mandatory_eff -- per task: mandatory plus extension if extended
    optional_fixed -- per task whose optional cycles are decided: optional
        if precise else 0. Every non-exit task; the exits too under
        initial_workloads, which leaves no optional cycle free
    fixed -- per task: mandatory_eff, plus its optional_fixed entry if any
    full -- per task: fixed, plus the whole optional part on a free exit
        (an exit without an optional_fixed entry)
    """

    mandatory_eff: dict[str, int]
    optional_fixed: dict[str, int]
    fixed: dict[str, int]
    full: dict[str, int]


def output_error(optional: float, executed: float) -> float:
    """Fraction of the optional workload that was discarded."""
    if optional <= 0:
        raise ValueError("optional workload must be positive")
    if not 0 <= executed <= optional:
        raise ValueError("executed optional cycles out of range")
    return 1.0 - executed / optional


def input_error(parent_output_errors) -> float:
    """Input error: parents' output errors summed, clamped to 1."""
    total = 0.0
    for e in parent_output_errors:
        if not 0.0 <= e <= 1.0:
            raise ValueError("output errors must lie in [0, 1]")
        total += e
    return min(1.0, total)


def mandatory_extension(extension: float, e_in: float) -> float:
    """Extra mandatory cycles needed to compensate the given input error."""
    if not 0.0 <= e_in <= 1.0:
        raise ValueError("input error must lie in [0, 1]")
    return extension * e_in


def precision(threshold: float, optional: float, executed: float) -> float:
    """Task precision: threshold plus the executed optional share above it."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if optional <= 0:
        raise ValueError("optional workload must be positive")
    if not 0 <= executed <= optional:
        raise ValueError("executed optional cycles out of range")
    return threshold + (1.0 - threshold) * (executed / optional)


def qos(exit_precisions) -> float:
    """Quality of service: mean precision over the exit tasks."""
    vals = list(exit_precisions)
    if not vals:
        raise ValueError("QoS needs a non-empty exit set")
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ValueError("precisions must lie in [0, 1]")
    return sum(vals) / len(vals)


def base_case1_decision(optional_parent: float, child_extensions) -> bool:
    """One parent, a set of children: keep the parent precise?

    Discarding the parent's optional part saves those cycles but extends each
    child by its full extension; the discard wins (returns False) when the
    extensions sum to no more than the parent's optional workload.
    """
    if optional_parent <= 0:
        raise ValueError("optional workload must be positive")
    return sum(child_extensions) > optional_parent


def _check_single_source(g: TaskGraph) -> None:
    if len(g.sources()) != 1:
        raise LabelingError("graph must be normalized to a single source")


def forward_pass(g: TaskGraph) -> Labeling:
    """Label non-exit tasks front-to-back, then re-evaluate around shared children.

    A child whose mandatory part is already extended (because another parent
    went imprecise) is free for subsequent parents and drops out of their
    extension sums. After the sweep, parents of extended multi-parent tasks
    are re-evaluated with those children removed; each such child triggers
    re-evaluation at most once.
    """
    _check_single_source(g)
    order = topological_order(g)
    pos = {u: i for i, u in enumerate(order)}
    exits = set(g.exits())

    precise: dict[str, bool] = {}
    extended: dict[str, bool] = {u: False for u in g.tasks}

    def evaluate(u: str) -> bool:
        pending = sum(
            g.task(c).extension for c in g.children(u) if not extended[c]
        )
        return pending > g.task(u).optional

    for u in order:
        if u in exits:
            continue
        if g.task(u).optional <= NO_OPTIONAL:
            precise[u] = True  # no real optional part; nothing to discard
            continue
        precise[u] = evaluate(u)
        if not precise[u]:
            for c in g.children(u):
                extended[c] = True

    visited: set[str] = set()
    rounds = 0
    while True:
        rounds += 1
        if rounds > len(g.tasks) + 1:
            raise RuntimeError("update pass failed to settle within |V| rounds")
        marked = [
            c
            for c in g.tasks
            if len(g.parents(c)) > 1 and extended[c] and c not in visited
        ]
        if not marked:
            break
        visited.update(marked)
        reeval = sorted({p for c in marked for p in g.parents(c)}, key=pos.__getitem__)
        changed = False
        for p in reeval:
            if p in exits or not precise.get(p, False):
                continue
            if g.task(p).optional <= NO_OPTIONAL:
                continue
            if not evaluate(p):
                precise[p] = False
                changed = True
                for c in g.children(p):
                    extended[c] = True
        if not changed:
            break

    return Labeling(precise, extended)


def _extended_from_precise(g: TaskGraph, precise: dict[str, bool]) -> dict[str, bool]:
    return {
        u: any(not precise.get(p, True) for p in g.parents(u)) for u in g.tasks
    }


def check_labeling(g: TaskGraph, lab: Labeling) -> None:
    exits = set(g.exits())
    for u in g.tasks:
        if u in exits:
            if u in lab.precise:
                raise LabelingError(f"exit task {u} must not carry a precise label")
        elif u not in lab.precise:
            raise LabelingError(f"non-exit task {u} missing a precise label")
    want = _extended_from_precise(g, lab.precise)
    for u in g.tasks:
        if lab.extended.get(u, False) != want[u]:
            raise LabelingError(
                f"extended flag of {u} inconsistent with parent labels"
            )


def effective_workloads(g: TaskGraph, lab: Labeling) -> EffectiveWorkloads:
    check_labeling(g, lab)
    mandatory_eff, optional_fixed, fixed, full = {}, {}, {}, {}
    for u in g.tasks:
        t = g.task(u)
        m = mandatory_eff[u] = t.mandatory + (t.extension if lab.extended[u] else 0)
        if u in lab.precise:
            optional_fixed[u] = t.optional if lab.precise[u] else 0
            fixed[u] = full[u] = m + optional_fixed[u]
        else:  # an exit: its optional cycles are the scheduler's
            fixed[u], full[u] = m, m + t.optional
    return EffectiveWorkloads(mandatory_eff, optional_fixed, fixed, full)


def precise_workloads(g: TaskGraph) -> EffectiveWorkloads:
    """Workloads of the labeling that keeps every non-exit task precise:
    nothing is extended, so every task's full load is its initial workload.
    The baseline schedules these."""
    exits = set(g.exits())
    precise = {u: True for u in g.tasks if u not in exits}
    return effective_workloads(g, Labeling(precise, {u: False for u in g.tasks}))


def initial_workloads(g: TaskGraph) -> EffectiveWorkloads:
    """Every task at its initial workload, the exits' optional parts
    included: no optional cycle is left free. eps* schedules these."""
    initial = {u: t.initial_workload for u, t in g.tasks.items()}
    return EffectiveWorkloads(
        {u: t.mandatory for u, t in g.tasks.items()},
        {u: t.optional for u, t in g.tasks.items()},
        initial,
        dict(initial),
    )


def reduction_objective(g: TaskGraph, lab: Labeling) -> int:
    """Cycles the labeling commits outside exit-task optional work."""
    return sum(effective_workloads(g, lab).fixed.values())


def backward_pass(g: TaskGraph, lab: Labeling) -> Labeling:
    """Flip groups of precise parents around shared children when that pays.

    Walking back from the exits, each multi-parent task sorts its precise
    parents by how many of their children are still intact and evaluates only
    the prefix subsets of that list, applying the prefix with the largest
    objective reduction (smallest prefix on ties, no flip if none reduces).
    A prefix's reduction is its parents' optional cycles less the extensions
    of the children it newly extends, summed one parent at a time.
    """
    check_labeling(g, lab)
    _check_single_source(g)
    order = topological_order(g)

    precise = dict(lab.precise)
    extended = dict(lab.extended)

    for t_id in reversed(order):
        if len(g.parents(t_id)) < 2:
            continue
        candidates = [
            p
            for p in g.parents(t_id)
            if precise.get(p, False) and g.task(p).optional > NO_OPTIONAL
        ]
        if not candidates:
            continue
        candidates.sort(
            key=lambda p: (
                sum(1 for c in g.children(p) if not extended[c]),
                p,
            )
        )
        delta = 0
        best_delta = 0
        best_k = 0
        newly_extended = set()
        for k, p in enumerate(candidates, 1):
            delta -= g.task(p).optional
            for c in g.children(p):
                if not extended[c] and c not in newly_extended:
                    newly_extended.add(c)
                    delta += g.task(c).extension
            if delta < best_delta:
                best_delta = delta
                best_k = k
        if best_k:
            for p in candidates[:best_k]:
                precise[p] = False
                for c in g.children(p):
                    extended[c] = True

    return Labeling(precise, extended)


def imp_label(g: TaskGraph) -> tuple[Labeling, EffectiveWorkloads]:
    """Forward then backward pass; returns the labeling and its workloads."""
    lab = backward_pass(g, forward_pass(g))
    return lab, effective_workloads(g, lab)


def format_labeling(g: TaskGraph, lab: Labeling) -> str:
    exits = set(g.exits())
    lines = []
    for u in sorted(g.tasks):
        if u in exits:
            p = "-"
        else:
            p = "1" if lab.precise[u] else "0"
        e = "1" if lab.extended[u] else "0"
        lines.append(f"label {u} precise={p} extended={e}")
    return "\n".join(lines) + "\n"
