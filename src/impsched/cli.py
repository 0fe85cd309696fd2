"""Command-line driver for instance generation, scheduling, sweeps, and checks.

Exit codes: 0 success, 1 usage error or output pipe closed by its reader,
2 infeasible-only result, 3 internal numerical or verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import math
import os
import sys
from pathlib import Path

from .energy import (
    FrequencySet,
    PowerModel,
    fit_power_model,
)
from .imprecision import (
    Labeling,
    LabelingError,
    effective_workloads,
    format_labeling,
    imp_label,
    initial_workloads,
    precise_workloads,
)
from .listsched import Assignment, format_assignment
from .lp import write_lp_file
from .schedlp import Schedule
from .sweep import (
    InfeasibleError,
    MethodModel,
    PipelineError,
    PlatformConfig,
    SweepConfig,
    epsilon_star,
    default_platform,
    rows_to_csv,
    run_baseline,
    run_milp,
    run_proposed,
    sweep_graph,
)
from .taskgraph import (
    CycleError,
    GeneratorError,
    GeneratorParams,
    GraphFormatError,
    MANDATORY_REGIMES,
    TaskGraph,
    check_params,
    generate_random_graph,
    normalize_source,
    parse_task_graph,
    serialize_task_graph,
    topological_order,
    validate_graph,
)
from .verify import WorkloadContract, idle_static_energy, verify_schedule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_positive(name: str, value):
    """value if it is a finite number above 0, else a UsageError naming it."""
    if not 0 < value < math.inf:  # also false for nan
        raise UsageError(f"{name} must be a positive finite number, got {value}")
    return value


def _check_finite(name: str, value):
    if not math.isfinite(value):
        raise UsageError(f"{name} must be a finite number, got {value}")
    return value


# --- configuration ----------------------------------------------------------

def load_platform(
    config_path: str | None,
    procs: int | None = None,
    no_insertion: bool = False,
    lp_comm: bool = False,
) -> PlatformConfig:
    """Platform defaults are the built-in fitted 70nm model; a config file's
    [platform] section (GHz/mW units) overrides them."""
    platform = default_platform()
    if config_path:
        cp = configparser.ConfigParser()
        read = cp.read(config_path)
        if not read:
            raise UsageError(f"cannot read config file {config_path!r}")
        if cp.has_section("platform"):
            sec = cp["platform"]
            try:
                constants = [
                    _check_finite(key, sec.getfloat(key, default))
                    for key, default in zip(
                        ("alpha", "beta", "gamma", "delta"), platform.power.to_ghz_mw()
                    )
                ]
                power = PowerModel.from_ghz_mw(*constants)
                if "freqs_ghz" in sec:
                    freqs = FrequencySet(
                        tuple(
                            _check_finite("freqs_ghz", float(t)) * 1e9
                            for t in sec["freqs_ghz"].replace(",", " ").split()
                        )
                    )
                else:
                    freqs = platform.freqs
                procs_cfg = sec.getint("procs", platform.procs)
            except ValueError as exc:
                raise UsageError(f"[platform] in {config_path!r}: {exc}")
            platform = PlatformConfig(power, freqs, _check_positive("procs", procs_cfg))
    if procs is not None:
        platform = PlatformConfig(platform.power, platform.freqs, _check_positive("--procs", procs))
    if no_insertion or lp_comm:
        platform = PlatformConfig(
            platform.power,
            platform.freqs,
            platform.procs,
            heft_insertion=not no_insertion,
            heft_lp_comm=lp_comm,
        )
    return platform


def load_generator_params(config_path: str | None, args) -> GeneratorParams:
    values = dict(
        n_tasks=30,
        max_in_degree=6,
        max_out_degree=6,
        mean_initial_workload=2_000_000,
        mandatory_regime="man_mixed",
        comm_min_ms=0.4,
        comm_max_ms=0.6,
        seed=0,
        include_extension_in_deadline=True,
    )
    if config_path:
        cp = configparser.ConfigParser()
        if not cp.read(config_path):
            raise UsageError(f"cannot read config file {config_path!r}")
        if cp.has_section("generator"):
            sec = cp["generator"]
            for key in values:
                if key in sec:
                    try:
                        if isinstance(values[key], bool):
                            values[key] = sec.getboolean(key)
                        elif isinstance(values[key], int):
                            values[key] = sec.getint(key)
                        elif isinstance(values[key], float):
                            values[key] = sec.getfloat(key)
                        else:
                            values[key] = sec[key]
                    except ValueError as exc:
                        raise UsageError(f"[generator] {key} in {config_path!r}: {exc}")
    for key in (
        "n_tasks",
        "max_in_degree",
        "max_out_degree",
        "mean_initial_workload",
        "mandatory_regime",
        "seed",
    ):
        arg = getattr(args, key, None)
        if arg is not None:
            values[key] = arg
    if getattr(args, "comm_min_ms", None) is not None:
        values["comm_min_ms"] = args.comm_min_ms
    if getattr(args, "comm_max_ms", None) is not None:
        values["comm_max_ms"] = args.comm_max_ms
    if getattr(args, "exclude_extension_from_deadline", False):
        values["include_extension_in_deadline"] = False
    comm = (values.pop("comm_min_ms") * 1e-3, values.pop("comm_max_ms") * 1e-3)
    params = GeneratorParams(comm_range=comm, **values)
    try:
        check_params(params)
    except GeneratorError as exc:
        raise UsageError(str(exc))
    return params


def load_sweep_config(config_path: str | None, args) -> SweepConfig:
    resolution = 0.05
    methods = "proposed,baseline"
    time_limit = 600.0
    if config_path:
        cp = configparser.ConfigParser()
        if not cp.read(config_path):
            raise UsageError(f"cannot read config file {config_path!r}")
        if cp.has_section("sweep"):
            sec = cp["sweep"]
            try:
                resolution = sec.getfloat("resolution", resolution)
                methods = sec.get("methods", methods)
                time_limit = sec.getfloat("time_limit", time_limit)
            except ValueError as exc:
                raise UsageError(f"[sweep] in {config_path!r}: {exc}")
    if getattr(args, "resolution", None) is not None:
        resolution = args.resolution
    if getattr(args, "methods", None) is not None:
        methods = args.methods
    if getattr(args, "time_limit", None) is not None:
        time_limit = args.time_limit
    try:
        return SweepConfig(
            resolution=resolution,
            methods=tuple(m.strip() for m in methods.split(",") if m.strip()),
            milp_time_limit=_check_positive("time limit", time_limit),
        )
    except ValueError as exc:
        raise UsageError(str(exc))


# --- schedule files ---------------------------------------------------------

def format_schedule(
    mode: str,
    g: TaskGraph,
    sched: Schedule,
    asg: Assignment,
    eps_max: float,
    procs: int,
    labeling: Labeling | None = None,
) -> str:
    lines = [
        "schedule v1",
        f"mode {mode}",
        f"eps_max {_fmt(eps_max)}",
        f"procs {procs}",
    ]
    if labeling is not None:
        lines.extend(format_labeling(g, labeling).splitlines())
    lines.extend(format_assignment(asg).splitlines())
    for u in sorted(g.tasks):
        lines.append(f"start {u} {_fmt(sched.start[u])}")
        lines.append(f"dur {u} {_fmt(sched.durations[u])}")
    for (u, i) in sorted(sched.cycles):
        lines.append(f"cycles {u} {i} {_fmt(sched.cycles[(u, i)])}")
    for u in sorted(sched.opt_cycles):
        lines.append(f"opt {u} {_fmt(sched.opt_cycles[u])}")
    lines.append(f"energy {_fmt(sched.energy)}")
    lines.append(f"qos {_fmt(sched.qos)}")
    lines.append(f"makespan {_fmt(sched.makespan)}")
    return "\n".join(lines) + "\n"


def _finite(token: str) -> float:
    value = float(token)
    if not abs(value) < float("inf"):  # also rejects nan
        raise ValueError(f"{token!r} is not a finite number")
    return value


def parse_schedule(text: str):
    """Returns (mode, eps_max, procs, labeling|None, assignment, schedule)."""
    mode = None
    eps_max = None
    procs = None
    precise: dict[str, bool] = {}
    extended: dict[str, bool] = {}
    has_labels = False
    assign: dict[str, tuple[int, int]] = {}
    assign_line: dict[str, int] = {}
    start: dict[str, float] = {}
    dur: dict[str, float] = {}
    cycles: dict[tuple[str, int], float] = {}
    opt: dict[str, float] = {}
    energy = qos_val = makespan = None

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "schedule":
                if toks != ["schedule", "v1"]:
                    raise ValueError("expected header 'schedule v1'")
            elif toks[0] == "mode":
                mode = toks[1]
            elif toks[0] == "eps_max":
                eps_max = _finite(toks[1])
            elif toks[0] == "procs":
                procs = int(toks[1])
            elif toks[0] == "label":
                has_labels = True
                u = toks[1]
                pv = toks[2].split("=", 1)[1]
                ev = toks[3].split("=", 1)[1]
                if pv != "-":
                    precise[u] = pv == "1"
                extended[u] = ev == "1"
            elif toks[0] == "assign":
                u = toks[1]
                k = int(toks[2].split("=", 1)[1])
                slot = int(toks[3].split("=", 1)[1])
                assign[u] = (k, slot)
                assign_line[u] = line_no
            elif toks[0] == "start":
                start[toks[1]] = _finite(toks[2])
            elif toks[0] == "dur":
                dur[toks[1]] = _finite(toks[2])
            elif toks[0] == "cycles":
                cycles[(toks[1], int(toks[2]))] = _finite(toks[3])
            elif toks[0] == "opt":
                opt[toks[1]] = _finite(toks[2])
            elif toks[0] == "energy":
                energy = _finite(toks[1])
            elif toks[0] == "qos":
                qos_val = _finite(toks[1])
            elif toks[0] == "makespan":
                makespan = _finite(toks[1])
            else:
                raise ValueError(f"unknown directive {toks[0]!r}")
        except (IndexError, ValueError) as exc:
            raise GraphFormatError(line_no, f"bad schedule line: {exc}")

    if None in (mode, eps_max, procs, energy, qos_val, makespan):
        raise GraphFormatError(1, "schedule file is missing header fields")
    per_task = {"assign": assign, "start": start, "dur": dur}
    if has_labels:
        per_task["label"] = extended
    tasks = set().union(*per_task.values())
    for kind, seen in per_task.items():
        if missing := sorted(tasks - set(seen)):
            raise GraphFormatError(1, f"schedule file has no {kind!r} line for task {missing[0]}")
    for u, (k, _) in assign.items():
        if not 0 <= k < procs:
            raise GraphFormatError(
                assign_line[u], f"task {u} is assigned to processor {k} of {procs}"
            )
    order = [[] for _ in range(procs)]
    for u, (k, slot) in assign.items():
        order[k].append((slot, u))
    asg = Assignment(
        {u: k for u, (k, _) in assign.items()},
        tuple(tuple(u for _, u in sorted(seq)) for seq in order),
    )
    sched = Schedule(start, cycles, opt, dur, energy, qos_val, makespan)
    labeling = Labeling(precise, extended) if has_labels else None
    return mode, eps_max, procs, labeling, asg, sched


# --- command implementations -------------------------------------------------

def _platform_from(args) -> PlatformConfig:
    return load_platform(
        args.config,
        args.procs,
        no_insertion=getattr(args, "no_insertion", False),
        lp_comm=getattr(args, "lp_comm", False),
    )


def _read_graph(path: str) -> TaskGraph:
    """The graph in path; one no command can schedule (no task, or a cycle)
    is a usage error naming the file."""
    try:
        g = parse_task_graph(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read graph {path!r}: {exc}")
    if not g.tasks:
        raise UsageError(f"graph {path!r} has no task")
    try:
        topological_order(g)
    except CycleError as exc:
        raise UsageError(f"graph {path!r}: {exc}")
    return g


def _unwritable(path, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {str(path)!r}: {exc.strerror or exc}")


@contextlib.contextmanager
def _writing(path):
    """path opened for writing; an OSError on it is a usage error naming it."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise _unwritable(path, exc)


def _write_out(out: str | None, text: str) -> None:
    if out:
        with _writing(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _eps_from_args(g, platform, args) -> float:
    """The budget of --eps-max, else --eps-ratio (default 1) times eps*.
    A budget of 0 is infeasible, not malformed."""
    flag, value = "--eps-max", args.eps_max
    if value is None:
        flag, value = "--eps-ratio", 1.0 if args.eps_ratio is None else args.eps_ratio
    if not 0 <= value < math.inf:  # also false for nan
        raise UsageError(f"{flag} must be a finite number >= 0, got {value}")
    return value if args.eps_max is not None else value * epsilon_star(g, platform)[0]


def cmd_generate(args) -> int:
    params = load_generator_params(args.config, args)
    platform = _platform_from(args)
    _check_positive("--count", args.count)
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc)
    for i in range(args.count):
        p = GeneratorParams(
            **{**params.__dict__, "seed": params.seed + i}
        )
        g = generate_random_graph(p, f_max=platform.freqs.f_max)
        report = validate_graph(g)
        if not report.ok:
            raise PipelineError(
                f"generated graph violates invariants: {report.violations}"
            )
        path = out_dir / f"graph_{p.mandatory_regime}_s{p.seed}.tg"
        _write_out(path, serialize_task_graph(g))
        print(path)
    return EXIT_OK


def cmd_label(args) -> int:
    g = normalize_source(_read_graph(args.graph))
    lab, _ = imp_label(g)
    _write_out(args.out, format_labeling(g, lab))
    return EXIT_OK


def cmd_epsilon_star(args) -> int:
    g = _read_graph(args.graph)
    platform = _platform_from(args)
    model = MethodModel()
    star, sched, asg = epsilon_star(g, platform, model)
    if args.out:
        _write_out(
            args.out,
            format_schedule("min-energy", model.gn, sched, asg, star, platform.procs),
        )
    if args.export_lp:
        with _writing(args.export_lp) as fh:
            write_lp_file(model.lp, fh)  # the program that decides eps*
    print(f"epsilon_star_J {_fmt(star)}")
    return EXIT_OK


def _run_single(method: str, args) -> int:
    g = _read_graph(args.graph)
    platform = _platform_from(args)
    eps_max = _eps_from_args(g, platform, args)
    model = MethodModel()
    if method == "milp":
        # the sweep's time-limit default and check, without its config file
        time_limit = load_sweep_config(None, args).milp_time_limit
        out = run_milp(g, platform, eps_max, time_limit=time_limit)
    else:
        runner = run_proposed if method == "proposed" else run_baseline
        out = runner(g, platform, eps_max, model)
    if not out.feasible:
        print(f"{method}: infeasible at eps_max {_fmt(eps_max)} J")
        return EXIT_INFEASIBLE
    print(
        f"{method}: qos {out.qos:.6f} energy_J {_fmt(out.energy)} "
        f"makespan_s {_fmt(out.makespan)}"
        + (f" nodes {out.nodes} gap {out.gap:.3g}" if method == "milp" else "")
    )
    gn = normalize_source(g)
    if args.out:
        _write_out(
            args.out,
            format_schedule(
                method,
                gn,
                out.schedule,
                out.assignment,
                eps_max,
                platform.procs,
                labeling=out.labeling,
            ),
        )
    if getattr(args, "export_lp", None):
        with _writing(args.export_lp) as fh:
            if method == "milp":
                from .milp import build_milp

                milp = build_milp(
                    gn, platform.procs, platform.freqs, platform.power, eps_max, gn.deadline
                )
                write_lp_file(milp.lp, fh, binaries=milp.binaries)
            else:
                # the program that decides the run
                write_lp_file(model.program(eps_max), fh)
    return EXIT_OK


def cmd_sweep(args) -> int:
    platform = _platform_from(args)
    cfg = load_sweep_config(args.config, args)
    rows = []
    for path in args.graphs:
        g = _read_graph(path)
        rows.extend(sweep_graph(Path(path).stem, g, platform, cfg))
    text = rows_to_csv(rows)
    _write_out(args.out, text)
    if not any(r.feasible for r in rows):
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_verify(args) -> int:
    g = normalize_source(_read_graph(args.graph))
    platform = _platform_from(args)
    try:
        text = Path(args.schedule).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read schedule {args.schedule!r}: {exc}")
    mode, eps_max, procs, labeling, asg, sched = parse_schedule(text)
    if procs > platform.procs:
        raise UsageError(
            f"schedule uses {procs} processors, the platform has {platform.procs}"
        )
    if set(sched.start) != set(g.tasks):
        raise UsageError("schedule tasks differ from the graph's tasks")
    if any(u not in g.tasks or not 0 <= i < len(platform.freqs) for u, i in sched.cycles):
        raise UsageError("schedule cycles name a task or frequency the graph or platform lacks")
    if missing := [u for u in g.exits() if u not in sched.opt_cycles]:
        raise UsageError(f"schedule file has no 'opt' line for exit task {missing[0]}")
    if mode == "proposed":
        if labeling is None:
            raise UsageError("proposed schedule file lacks label lines")
        try:
            wl = effective_workloads(g, labeling)
        except LabelingError as exc:
            raise UsageError(f"schedule labels do not fit the graph: {exc}")
        contract = WorkloadContract.from_labeling(g, wl)
    elif mode == "baseline":
        contract = WorkloadContract.from_labeling(g, precise_workloads(g))
    elif mode == "min-energy":
        contract = WorkloadContract.from_labeling(g, initial_workloads(g))
    elif mode == "milp":
        contract = WorkloadContract.from_milp_schedule(g, sched)
    else:
        raise UsageError(f"unknown schedule mode {mode!r}")
    report = verify_schedule(
        g, sched, asg, platform.power, platform.freqs, eps_max, g.deadline, contract
    )
    sys.stdout.write(report.format())
    # audit figure only; never part of the budget accounting
    idle = idle_static_energy(sched, asg, platform.power)
    print(f"idle_static_energy_J {_fmt(idle)}")
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def cmd_fit(args) -> int:
    delta = _check_finite("--delta", args.delta)
    try:
        text = Path(args.points).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read points file {args.points!r}: {exc}")
    points = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise UsageError(f"points file line {line_no}: expected '<f_GHz> <p_mW>'")
        try:
            points.append((_finite(toks[0]) * 1e9, _finite(toks[1]) * 1e-3))
        except ValueError as exc:
            raise UsageError(f"points file line {line_no}: {exc}")
    try:
        fit = fit_power_model(points, delta=delta * 1e-3)
    except (ValueError, OverflowError) as exc:
        raise UsageError(f"points file {args.points!r}: {exc}")
    alpha, beta, gamma, delta = fit.model.to_ghz_mw()
    print(f"alpha {alpha:.6f}")
    print(f"beta {beta:.6f}")
    print(f"gamma {gamma:.6f}")
    print(f"delta {delta:.6f}")
    print(f"rms_mW {fit.rms * 1e3:.6f}")
    return EXIT_OK


# --- argument parsing --------------------------------------------------------

@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config with [platform]/[generator]/[sweep]")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--procs", type=int, help="number of processors")
    common.add_argument("--seed", type=int, help="generator seed")
    common.add_argument("--time-limit", dest="time_limit", type=float,
                        help="branch-and-bound time limit, seconds")
    common.add_argument("--resolution", type=float, help="sweep step as a fraction")
    common.add_argument("--methods", help="comma list from proposed,baseline,milp")
    common.add_argument("--no-insertion", dest="no_insertion", action="store_true",
                        help="append-only list scheduling instead of gap insertion")
    common.add_argument("--lp-comm", dest="lp_comm", action="store_true",
                        help="charge edge costs inside list scheduling even on "
                        "the same processor, matching the LP rows")

    parser = argparse.ArgumentParser(
        prog="impsched",
        description="Schedule imprecise-computation task graphs under "
        "deadline and energy constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="emit random task graphs")
    p.add_argument("--n", dest="n_tasks", type=int)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--regime", dest="mandatory_regime", choices=sorted(MANDATORY_REGIMES))
    p.add_argument("--max-in", dest="max_in_degree", type=int)
    p.add_argument("--max-out", dest="max_out_degree", type=int)
    p.add_argument("--mean-workload", dest="mean_initial_workload", type=int)
    p.add_argument("--comm-min-ms", type=float)
    p.add_argument("--comm-max-ms", type=float)
    p.add_argument("--exclude-extension-from-deadline", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("label", parents=[common], help="print the labeling")
    p.add_argument("graph")
    p.set_defaults(func=cmd_label)

    for name, method in (
        ("schedule", "proposed"),
        ("baseline", "baseline"),
        ("milp", "milp"),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("graph")
        p.add_argument("--eps-ratio", type=float, help="budget as a fraction of eps*")
        p.add_argument("--eps-max", type=float, help="budget in Joules")
        p.add_argument("--export-lp", help="dump the program in LP format")
        p.set_defaults(func=functools.partial(_run_single, method))

    p = sub.add_parser("epsilon-star", parents=[common])
    p.add_argument("graph")
    p.add_argument("--export-lp")
    p.set_defaults(func=cmd_epsilon_star)

    p = sub.add_parser("sweep", parents=[common])
    p.add_argument("graphs", nargs="+")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("graph")
    p.add_argument("schedule")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fit", parents=[common])
    p.add_argument("points", help="file of '<f_GHz> <dynamic_power_mW>' lines")
    p.add_argument("--delta", type=float, default=276.0, help="static power, mW")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if getattr(args, "config", None) and not Path(args.config).is_file():
            raise UsageError(f"cannot read config file {args.config!r}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`impsched verify ... | head`): send what
        # is still buffered to os.devnull, not to the closed pipe at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError):  # a stdout without a descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (UsageError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PipelineError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
