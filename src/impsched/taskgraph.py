"""Task graph model: validation, normalization, text format, and random generation.

Workloads are processor cycles (non-negative integers in inputs), communication
costs and deadlines are seconds.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from dataclasses import dataclass

__all__ = [
    "NO_OPTIONAL",
    "MANDATORY_REGIMES",
    "Task",
    "Edge",
    "TaskGraph",
    "GeneratorParams",
    "ValidationReport",
    "CycleError",
    "GraphFormatError",
    "GeneratorError",
    "validate_graph",
    "topological_order",
    "normalize_source",
    "compute_deadline",
    "parse_task_graph",
    "serialize_task_graph",
    "generate_random_graph",
    "check_params",
]

# Sentinel optional size (cycles) for tasks that have no real optional part.
# Keeps the output-error ratio o/O well defined; the labeling stage treats
# such tasks as always precise.
NO_OPTIONAL = 1

# Mandatory share of the initial workload, by generation regime.
MANDATORY_REGIMES = {
    "man_low": (0.2, 0.4),
    "man_med": (0.4, 0.6),
    "man_high": (0.6, 0.8),
    "man_mixed": (0.2, 0.8),
}

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


class CycleError(ValueError):
    """Raised when an operation requires a DAG but the graph has a cycle."""


class GraphFormatError(ValueError):
    """Syntax or semantic error in the taskgraph text format."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class GeneratorError(ValueError):
    """Invalid or unsatisfiable generator parameters."""


@dataclass(frozen=True)
class Task:
    """One node of the task graph.

    mandatory -- cycles that must always execute (M)
    optional  -- cycles that refine the result and may be discarded (O)
    extension -- maximum extra mandatory cycles compensating erroneous inputs (m)
    threshold -- precision delivered when only the mandatory part completes
    """

    id: str
    mandatory: int
    optional: int
    extension: int
    threshold: float

    @property
    def initial_workload(self) -> int:
        return self.mandatory + self.optional


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    comm: float  # average communication cost, seconds


class TaskGraph:
    """Immutable DAG of tasks with a hard end-to-end deadline (seconds).

    Construction requires structural integrity (valid ids, edge endpoints
    present, no duplicate edges); value-range and acyclicity problems are
    reported by validate_graph instead. Sources and exits are derived here;
    _derived keeps what is derived on first request (topological_order,
    normalize_source, sweep._fill).
    """

    def __init__(self, tasks, edges, deadline: float):
        task_map: dict[str, Task] = {}
        for t in tasks:
            if not _ID_RE.match(t.id):
                raise ValueError(f"invalid task id {t.id!r}")
            if t.id in task_map:
                raise ValueError(f"duplicate task id {t.id!r}")
            task_map[t.id] = t
        self.tasks: dict[str, Task] = dict(sorted(task_map.items()))

        seen = set()
        children: dict[str, list[str]] = {u: [] for u in self.tasks}
        parents: dict[str, list[str]] = {u: [] for u in self.tasks}
        comm: dict[tuple[str, str], float] = {}
        for e in edges:
            if e.src not in self.tasks or e.dst not in self.tasks:
                raise ValueError(f"edge {e.src}->{e.dst} references unknown task")
            if (e.src, e.dst) in seen:
                raise ValueError(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
            children[e.src].append(e.dst)
            parents[e.dst].append(e.src)
            comm[(e.src, e.dst)] = e.comm
        self.edges: tuple[Edge, ...] = tuple(
            sorted(edges, key=lambda e: (e.src, e.dst))
        )
        self._children = {u: tuple(sorted(v)) for u, v in children.items()}
        self._parents = {u: tuple(sorted(v)) for u, v in parents.items()}
        self._comm = comm
        self._sources = tuple(u for u in self.tasks if not parents[u])
        self._exits = tuple(u for u in self.tasks if not children[u])
        self._derived: dict = {}
        self.deadline = float(deadline)

    def __eq__(self, other):
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self.tasks == other.tasks
            and self.edges == other.edges
            and self.deadline == other.deadline
        )

    def __repr__(self):
        return (
            f"TaskGraph(tasks={len(self.tasks)}, edges={len(self.edges)}, "
            f"deadline={self.deadline})"
        )

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self.tasks)

    def task(self, u: str) -> Task:
        return self.tasks[u]

    def children(self, u: str) -> tuple[str, ...]:
        return self._children[u]

    def parents(self, u: str) -> tuple[str, ...]:
        return self._parents[u]

    def comm(self, u: str, v: str) -> float:
        return self._comm[(u, v)]

    def sources(self) -> tuple[str, ...]:
        return self._sources

    def exits(self) -> tuple[str, ...]:
        return self._exits

    def with_deadline(self, deadline: float) -> "TaskGraph":
        return TaskGraph(self.tasks.values(), self.edges, deadline)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    stats: dict

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: TaskGraph) -> ValidationReport:
    """Check all TaskGraph invariants; violations are reported, never raised."""
    violations: list[str] = []

    for u, t in g.tasks.items():
        if t.mandatory < 0:
            violations.append(f"task {u}: negative mandatory workload")
        if t.optional <= 0:
            violations.append(f"task {u}: optional workload must be positive")
        if t.extension < 0:
            violations.append(f"task {u}: negative extension")
        if not 0.0 <= t.threshold <= 1.0:
            violations.append(f"task {u}: precision threshold outside [0, 1]")
    for e in g.edges:
        if e.comm < 0:
            violations.append(f"edge {e.src}->{e.dst}: negative communication cost")
        if e.src == e.dst:
            violations.append(f"edge {e.src}->{e.dst}: self loop")
    if g.deadline <= 0:
        violations.append("deadline must be positive")

    acyclic = True
    try:
        topological_order(g)
    except CycleError:
        acyclic = False
        violations.append("cycle detected")

    sources = g.sources()
    exits = g.exits()
    if not exits:
        violations.append("no exit tasks")
    if len(sources) > 1:
        violations.append("multiple source tasks (run normalize_source)")

    in_degs = [len(g.parents(u)) for u in g.tasks] or [0]
    out_degs = [len(g.children(u)) for u in g.tasks] or [0]
    stats = {
        "n_tasks": len(g.tasks),
        "n_edges": len(g.edges),
        "n_sources": len(sources),
        "n_exits": len(exits),
        "max_in_degree": max(in_degs),
        "max_out_degree": max(out_degs),
        "acyclic": acyclic,
    }
    return ValidationReport(tuple(violations), stats)


def topological_order(g: TaskGraph) -> list[str]:
    """Deterministic topological order (Kahn; ties broken by ascending id):
    a fresh list of the order kept on g. A cyclic graph raises every time."""
    if "order" in g._derived:
        return list(g._derived["order"])
    indeg = {u: len(g.parents(u)) for u in g.tasks}
    ready = [u for u, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in g.children(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(g.tasks):
        stuck = sorted(u for u, d in indeg.items() if d > 0)
        raise CycleError(f"cycle detected among tasks: {', '.join(stuck)}")
    g._derived["order"] = tuple(order)
    return order


def _fresh_source_id(g: TaskGraph) -> str:
    cand = "_src"
    k = 0
    while cand in g.tasks:
        cand = f"_src{k}"
        k += 1
    return cand


def normalize_source(g: TaskGraph) -> TaskGraph:
    """Ensure a single source, adding a zero-workload dummy task if needed.

    The dummy carries the NO_OPTIONAL sentinel and threshold 1 so it never
    affects labeling or QoS. The same object on every call: kept on g where
    g has several sources, else g itself, kept nowhere (g holding g would be
    a reference cycle, left to the garbage collector).
    """
    topological_order(g)  # rejects cyclic input
    sources = g.sources()
    if len(sources) <= 1:
        return g
    if "normalized" not in g._derived:
        dummy = Task(_fresh_source_id(g), 0, NO_OPTIONAL, 0, 1.0)
        new_edges = list(g.edges) + [Edge(dummy.id, s, 0.0) for s in sources]
        tasks = list(g.tasks.values()) + [dummy]
        g._derived["normalized"] = TaskGraph(tasks, new_edges, g.deadline)
    return g._derived["normalized"]


def compute_deadline(
    g: TaskGraph, f_max: float, include_extension: bool = True
) -> float:
    """Deadline rule: twice the longest source-to-exit path at f_max.

    Each task contributes its full workload (mandatory + extension + optional
    unless include_extension is off) and each edge its communication cost, so
    the path length upper-bounds any achievable schedule of that path.
    """
    if f_max <= 0:
        raise ValueError("f_max must be positive")
    order = topological_order(g)

    def node_seconds(u: str) -> float:
        t = g.task(u)
        cycles = t.mandatory + t.optional
        if include_extension:
            cycles += t.extension
        return cycles / f_max

    dist: dict[str, float] = {}
    for u in reversed(order):
        best = 0.0
        for v in g.children(u):
            best = max(best, g.comm(u, v) + dist[v])
        dist[u] = node_seconds(u) + best
    return 2.0 * max(dist[s] for s in g.sources())


# --- text format -----------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def serialize_task_graph(g: TaskGraph) -> str:
    lines = ["taskgraph v1", f"deadline {_fmt(g.deadline)}"]
    for u in sorted(g.tasks):
        t = g.task(u)
        lines.append(
            f"task {u} M={t.mandatory} O={t.optional} m={t.extension} "
            f"PT={_fmt(t.threshold)}"
        )
    for e in g.edges:
        lines.append(f"edge {e.src} {e.dst} comm={_fmt(e.comm)}")
    return "\n".join(lines) + "\n"


def _parse_int_field(line_no: int, token: str, key: str) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise GraphFormatError(line_no, f"expected {key}=<cycles>, got {token!r}")
    try:
        value = int(token[len(prefix):])
    except ValueError:
        raise GraphFormatError(line_no, f"{key} must be an integer cycle count")
    return value


def _parse_float_field(line_no: int, token: str, key: str) -> float:
    prefix = key + "="
    if not token.startswith(prefix):
        raise GraphFormatError(line_no, f"expected {key}=<value>, got {token!r}")
    try:
        value = float(token[len(prefix):])
    except ValueError:
        raise GraphFormatError(line_no, f"{key} must be a decimal number")
    if not math.isfinite(value):
        raise GraphFormatError(line_no, f"{key} must be finite")
    return value


def parse_task_graph(text: str) -> TaskGraph:
    """Parse the taskgraph v1 text format. Raises GraphFormatError."""
    tasks: list[Task] = []
    task_lines: dict[str, int] = {}
    edges: list[Edge] = []
    edge_lines: list[tuple[int, Edge]] = []
    deadline = None
    header_seen = False

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if not header_seen:
            if toks != ["taskgraph", "v1"]:
                raise GraphFormatError(line_no, "expected header 'taskgraph v1'")
            header_seen = True
            continue
        kind = toks[0]
        if kind == "deadline":
            if len(toks) != 2:
                raise GraphFormatError(line_no, "expected 'deadline <seconds>'")
            if deadline is not None:
                raise GraphFormatError(line_no, "duplicate deadline line")
            try:
                deadline = float(toks[1])
            except ValueError:
                raise GraphFormatError(line_no, "deadline must be a decimal number")
            if not 0 < deadline < math.inf:
                raise GraphFormatError(line_no, "deadline must be positive and finite")
        elif kind == "task":
            if len(toks) != 6:
                raise GraphFormatError(
                    line_no, "expected 'task <id> M=<c> O=<c> m=<c> PT=<f>'"
                )
            tid = toks[1]
            if not _ID_RE.match(tid):
                raise GraphFormatError(line_no, f"invalid task id {tid!r}")
            if tid in task_lines:
                raise GraphFormatError(line_no, f"duplicate task id {tid!r}")
            mandatory = _parse_int_field(line_no, toks[2], "M")
            optional = _parse_int_field(line_no, toks[3], "O")
            ext = _parse_int_field(line_no, toks[4], "m")
            thr = _parse_float_field(line_no, toks[5], "PT")
            if mandatory < 0:
                raise GraphFormatError(line_no, "mandatory workload must be >= 0")
            if optional <= 0:
                raise GraphFormatError(line_no, "optional workload must be positive")
            if ext < 0:
                raise GraphFormatError(line_no, "extension must be >= 0")
            if not 0.0 <= thr <= 1.0:
                raise GraphFormatError(line_no, "PT must lie in [0, 1]")
            tasks.append(Task(tid, mandatory, optional, ext, thr))
            task_lines[tid] = line_no
        elif kind == "edge":
            if len(toks) != 4:
                raise GraphFormatError(
                    line_no, "expected 'edge <src> <dst> comm=<seconds>'"
                )
            comm = _parse_float_field(line_no, toks[3], "comm")
            if comm < 0:
                raise GraphFormatError(line_no, "comm must be >= 0")
            edge_lines.append((line_no, Edge(toks[1], toks[2], comm)))
        else:
            raise GraphFormatError(line_no, f"unknown directive {kind!r}")

    if not header_seen:
        raise GraphFormatError(1, "empty document (missing 'taskgraph v1' header)")
    if deadline is None:
        raise GraphFormatError(1, "missing deadline line")

    known = set(task_lines)
    for line_no, e in edge_lines:
        if e.src not in known:
            raise GraphFormatError(line_no, f"edge references unknown task {e.src!r}")
        if e.dst not in known:
            raise GraphFormatError(line_no, f"edge references unknown task {e.dst!r}")
        if e.src == e.dst:
            raise GraphFormatError(line_no, "self loop")
        edges.append(e)
    try:
        return TaskGraph(tasks, edges, deadline)
    except ValueError as exc:  # duplicate edges
        raise GraphFormatError(edge_lines[0][0] if edge_lines else 1, str(exc))


# --- random generation -----------------------------------------------------

@dataclass(frozen=True)
class GeneratorParams:
    n_tasks: int
    max_in_degree: int = 6
    max_out_degree: int = 6
    mean_initial_workload: int = 2_000_000
    mandatory_regime: str = "man_mixed"
    comm_range: tuple[float, float] = (0.4e-3, 0.6e-3)
    seed: int = 0
    include_extension_in_deadline: bool = True


def check_params(p: GeneratorParams) -> None:
    """Raise GeneratorError unless generate_random_graph can use p."""
    if p.n_tasks < 1:
        raise GeneratorError("n_tasks must be >= 1")
    if p.max_in_degree < 1 or p.max_out_degree < 1:
        raise GeneratorError("degree caps must be >= 1")
    if p.mean_initial_workload <= 0:
        raise GeneratorError("mean_initial_workload must be positive")
    if p.mandatory_regime not in MANDATORY_REGIMES:
        raise GeneratorError(
            f"unknown regime {p.mandatory_regime!r}; "
            f"expected one of {sorted(MANDATORY_REGIMES)}"
        )
    lo, hi = p.comm_range
    if not 0 <= lo <= hi < math.inf:  # also false for nan
        raise GeneratorError("comm_range must satisfy 0 <= lo <= hi, both finite")


def _layered_topology(p: GeneratorParams, rng: random.Random):
    """Layered fan-out topology with a single source and capped degrees.

    Every node outside layer 0 takes its first parent from the previous
    layer (capacity-checked, so construction never fails) and extra parents
    from any earlier layer with spare out-degree.
    """
    n = p.n_tasks
    layers: list[list[int]] = [[0]]
    remaining = n - 1
    depth_target = max(2, int(round(math.sqrt(n))) + rng.randint(-1, 1))
    out_deg = [0] * n
    parents: list[list[int]] = [[] for _ in range(n)]
    next_id = 1

    while remaining > 0:
        prev = layers[-1]
        cap = sum(p.max_out_degree - out_deg[u] for u in prev)
        layers_left = max(1, depth_target - len(layers))
        base = math.ceil(remaining / layers_left)
        width = max(1, base + rng.randint(-1, 1))
        width = min(remaining, cap, width)
        layer = list(range(next_id, next_id + width))
        next_id += width
        remaining -= width

        slots = [u for u in prev for _ in range(p.max_out_degree - out_deg[u])]
        rng.shuffle(slots)
        for j, v in enumerate(layer):
            u = slots[j]
            parents[v].append(u)
            out_deg[u] += 1

        earlier = [u for lay in layers for u in lay]
        for v in layer:
            extra = rng.randint(0, p.max_in_degree - 1)
            if extra == 0:
                continue
            pool = [
                u
                for u in earlier
                if out_deg[u] < p.max_out_degree and u not in parents[v]
            ]
            for u in rng.sample(pool, min(extra, len(pool))):
                parents[v].append(u)
                out_deg[u] += 1
        layers.append(layer)

    return parents


def generate_random_graph(p: GeneratorParams, f_max: float = 2.1e9) -> TaskGraph:
    """TGFF-style random instance, fully reproducible from the seed.

    The raw uniform draws are independent of the mandatory regime, so two
    calls differing only in regime share topology, initial workloads,
    extensions (relative to M) and thresholds.
    """
    check_params(p)
    rng = random.Random(p.seed)
    parents = _layered_topology(p, rng)

    n = p.n_tasks
    width = max(2, len(str(n - 1)))
    ids = [f"t{i:0{width}d}" for i in range(n)]

    lo, hi = MANDATORY_REGIMES[p.mandatory_regime]
    tasks = []
    for i in range(n):
        w_init = max(5, round(rng.uniform(0.5, 1.5) * p.mean_initial_workload))
        ratio = lo + rng.random() * (hi - lo)
        mandatory = round(ratio * w_init)
        mandatory = min(max(mandatory, math.ceil(lo * w_init)), math.floor(hi * w_init))
        mandatory = min(max(mandatory, 1), w_init - 1)
        optional = w_init - mandatory
        ext = round(rng.uniform(0.0, 2.0) * mandatory)
        threshold = rng.random()
        tasks.append(Task(ids[i], mandatory, optional, ext, threshold))

    edge_pairs = sorted(
        (ids[u], ids[v]) for v in range(n) for u in parents[v]
    )
    c_lo, c_hi = p.comm_range
    edges = [Edge(s, d, rng.uniform(c_lo, c_hi)) for s, d in edge_pairs]

    g = TaskGraph(tasks, edges, 1.0)
    return g.with_deadline(
        compute_deadline(g, f_max, p.include_extension_in_deadline)
    )
