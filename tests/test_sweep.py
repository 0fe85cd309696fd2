import dataclasses
import gc
import math
import types
import weakref

import numpy as np
import pytest

from impsched import sweep
from impsched.imprecision import imp_label
from impsched.listsched import heft_assign
from impsched.lp import CompiledLP, LinearProgram, _scaling, solve_lp
from impsched.schedlp import (
    Schedule,
    asap_basis,
    build_baseline_lp,
    build_qos_lp,
    min_energy_schedule,
    precedence,
)
from impsched.sweep import (
    CSV_HEADER,
    MethodModel,
    SweepConfig,
    epsilon_star,
    default_platform,
    rows_to_csv,
    run_baseline,
    run_proposed,
    sweep_graph,
    sweep_ratios,
    InfeasibleError,
    PipelineError,
)
from impsched.taskgraph import (
    GeneratorParams,
    generate_random_graph,
    normalize_source,
    parse_task_graph,
    serialize_task_graph,
)
from conftest import decide_by_lp
from test_lp import highs_objective


@pytest.fixture(scope="module")
def small_sweep():
    platform = default_platform()
    g = generate_random_graph(GeneratorParams(n_tasks=12, seed=4))
    cfg = SweepConfig(methods=("proposed", "baseline"))
    rows = sweep_graph("g4", g, platform, cfg)
    return g, rows


class TestRatios:
    def test_grid(self):
        got = list(sweep_ratios(0.25))
        assert got == [1.0, 0.75, 0.5, 0.25]

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            SweepConfig(resolution=0.0)
        with pytest.raises(ValueError):
            SweepConfig(methods=("nonsense",))
        with pytest.raises(ValueError, match="no method"):
            SweepConfig(methods=())


class TestEpsilonStar:
    def test_exists_for_generated_deadline(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=6))
        star, sched, asg = epsilon_star(g, platform4)
        assert star > 0
        assert sched.qos == 1.0

    def test_single_task_analytic(self, platform4):
        from conftest import make_graph
        from impsched.energy import cheapest_frequency

        g = make_graph([("a", 1_000_000, 1_000_000, 0, 0.5)], deadline=0.1)
        star, _, _ = epsilon_star(g, platform4)
        _, cheapest = cheapest_frequency(platform4.power, platform4.freqs)
        assert star == pytest.approx(2_000_000 * cheapest, rel=1e-9)

    def test_impossible_deadline_raises(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=6))
        g = g.with_deadline(g.deadline / 50.0)
        with pytest.raises(InfeasibleError):
            epsilon_star(g, platform4)


class TestSweep:
    def test_full_qos_at_unity(self, small_sweep):
        _, rows = small_sweep
        for r in rows:
            if r.eps_ratio == 1.0:
                assert r.feasible and r.qos >= 1.0 - 1e-6

    def test_proposed_monotone(self, small_sweep):
        _, rows = small_sweep
        qs = [r.qos for r in rows if r.method == "proposed" and r.feasible]
        # rows are sorted by descending ratio already
        for a, b in zip(qs, qs[1:]):
            assert b <= a + 1e-7

    def test_proposed_at_least_baseline(self, small_sweep):
        _, rows = small_sweep
        by_key = {(r.method, r.eps_ratio): r for r in rows}
        for (method, ratio), r in by_key.items():
            if method != "proposed" or not r.feasible:
                continue
            other = by_key.get(("baseline", ratio))
            if other is not None and other.feasible:
                assert r.qos >= other.qos - 1e-6

    def test_stops_two_past_cliff(self, small_sweep):
        _, rows = small_sweep
        for method in ("proposed", "baseline"):
            flags = [r.feasible for r in rows if r.method == method]
            if False in flags:
                # exactly cliff + two extra probes, all infeasible
                idx = flags.index(False)
                assert flags[idx:] == [False] * len(flags[idx:])
                assert len(flags) - idx <= 3

    def test_row_ordering(self, small_sweep):
        _, rows = small_sweep
        keys = [(r.graph_id, r.method, -r.eps_ratio) for r in rows]
        assert keys == sorted(keys)

    def test_energy_within_budget(self, small_sweep):
        g, rows = small_sweep
        platform = default_platform()
        star, _, _ = epsilon_star(g, platform)
        for r in rows:
            if r.feasible:
                assert r.energy <= r.eps_ratio * star + 1e-9


class TestCsv:
    def test_header_and_shape(self, small_sweep):
        _, rows = small_sweep
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_HEADER.split(","))

    def test_reproducible_modulo_runtime(self):
        platform = default_platform()
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=9))
        cfg = SweepConfig(methods=("proposed",))
        a = rows_to_csv(sweep_graph("g", g, platform, cfg))
        b = rows_to_csv(sweep_graph("g", g, platform, cfg))

        def mask_runtime(text):
            out = []
            for i, line in enumerate(text.splitlines()):
                if i == 0:
                    out.append(line)
                    continue
                cols = line.split(",")
                cols[7] = "RT"
                out.append(",".join(cols))
            return "\n".join(out)

        assert mask_runtime(a) == mask_runtime(b)

    def test_infeasible_rows_have_empty_metrics(self, small_sweep):
        _, rows = small_sweep
        text = rows_to_csv(rows)
        for line in text.strip().splitlines()[1:]:
            cols = line.split(",")
            if cols[3] == "0":
                assert cols[4] == "" and cols[5] == "" and cols[6] == ""


class TestMethodRunners:
    def test_infeasible_reported_not_raised(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=2))
        out = run_proposed(g, platform4, eps_max=1e-12)
        assert not out.feasible
        out = run_baseline(g, platform4, eps_max=1e-12)
        assert not out.feasible

    def test_runtime_recorded(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=2))
        star, _, _ = epsilon_star(g, platform4)
        out = run_proposed(g, platform4, star)
        assert out.runtime > 0

    @pytest.mark.parametrize(
        "regime,n,seed", [("man_high", 44, 246643601), ("man_mixed", 60, 15)]
    )
    def test_baseline_at_eps_star_passes_recheck(self, platform4, regime, n, seed, lp_fallback):
        # the optimal basis leaves an N[u, k] about 1e-7 below zero in scaled
        # units, which its column scale of 2^10 pushes past the re-check; the
        # row is decided by the LP (lp_fallback)
        g = generate_random_graph(
            GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=seed)
        )
        star, _, _ = epsilon_star(g, platform4)
        out = run_baseline(g, platform4, star)
        assert out.feasible and out.qos == pytest.approx(1.0)

    @pytest.mark.parametrize("one_source", [True, False])
    def test_one_graph_list_schedules_each_workload_once(self, platform4, monkeypatch, one_source):
        # eps*, then a proposed and a baseline row without a model: the
        # baseline reuses the list schedule eps* made of the precise workloads
        text = serialize_task_graph(generate_random_graph(GeneratorParams(n_tasks=14, seed=3)))
        if not one_source:  # without t00: the graph that keeps them is the normalized one
            text = "".join(line for line in text.splitlines(True) if " t00 " not in line)
        calls = []
        heft = sweep.heft_assign

        def counting(*args, **kwargs):
            calls.append(args)
            return heft(*args, **kwargs)

        monkeypatch.setattr(sweep, "heft_assign", counting)
        g = parse_task_graph(text)
        assert (len(g.sources()) == 1) == one_source
        star = epsilon_star(g, platform4)
        runners = (run_proposed, run_baseline)
        outs = [runner(g, platform4, 0.8 * star[0]) for runner in runners]
        assert len(calls) == 2 and any(out.feasible for out in outs)
        # the graph keeps derived structure only, never a program or a schedule
        kinds = (LinearProgram, CompiledLP, MethodModel, Schedule)
        assert not [o for o in reachable(g) if isinstance(o, kinds)]
        # the same results as on a copy that has derived nothing yet
        assert epsilon_star(parse_task_graph(text), platform4) == star
        for runner, out in zip(runners, outs):
            alone = runner(parse_task_graph(text), platform4, 0.8 * star[0])
            assert dataclasses.replace(alone, runtime=0.0) == dataclasses.replace(out, runtime=0.0)


class TestWarmSweep:
    @pytest.mark.parametrize("regime,n,seed", [("man_low", 38, 7), ("man_high", 30, 3)])
    def test_rows_match_cold_runs_and_highs(self, platform4, regime, n, seed, lp_fallback):
        # every row, the cold runs' too, is decided by the LP (lp_fallback)
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=seed))
        star, _, _ = epsilon_star(g, platform4)
        solves = []

        def capture(problem, *args, **kwargs):
            sol = solve_lp(problem, *args, **kwargs)
            solves.append((problem, kwargs.get("basis"), sol))
            return sol

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "solve_lp", capture)
            cfg = SweepConfig()
            rows = sweep_graph("g", g, platform4, cfg, eps_star_value=star)
        assert len(solves) == len(rows)
        # back to call order: each method down its ratios
        rows.sort(key=lambda r: (cfg.methods.index(r.method), -r.eps_ratio))
        runners = {"proposed": run_proposed, "baseline": run_baseline}
        for row, (comp, basis, sol) in zip(rows, solves):
            model = MethodModel()
            cold = runners[row.method](g, platform4, row.eps_ratio * star, model)
            assert row.feasible == cold.feasible
            # every row of a walk starts from the crash
            assert sol.start == "warm"
            pm, fs = platform4.power, platform4.freqs
            prec = precedence(model.gn, model.asg)
            assert np.array_equal(basis, asap_basis(model.lp, model.gn, prec, pm, fs))
            status, ref = highs_objective(comp)
            assert sol.status == status
            if row.feasible:
                assert row.qos == pytest.approx(cold.qos, rel=1e-9)
                assert row.qos == pytest.approx(ref, rel=1e-9)
        # points past each cliff were proved infeasible by the dual simplex
        proved = [sol for _, _, sol in solves if sol.status == "infeasible"]
        assert len(proved) >= 4 and all(sol.basis is not None for sol in proved)


def fresh_program(method, g, platform, eps_max) -> CompiledLP:
    """The method's LP built from scratch at eps_max, compiled."""
    gn = normalize_source(g)
    pm, fs = platform.power, platform.freqs
    if method == "proposed":
        _, wl = imp_label(gn)
        workloads = {u: float(w) for u, w in wl.full.items()}
    else:
        workloads = {u: float(t.initial_workload) for u, t in gn.tasks.items()}
    asg = heft_assign(
        gn,
        workloads,
        platform.procs,
        fs.f_max,
        insertion=platform.heft_insertion,
        lp_comm=platform.heft_lp_comm,
    )
    if method == "proposed":
        lp = build_qos_lp(gn, wl, asg, pm, fs, eps_max, gn.deadline)
    else:
        lp = build_baseline_lp(gn, asg, pm, fs, eps_max, gn.deadline)
    return lp.compile()


def same_program(a: CompiledLP, b: CompiledLP) -> bool:
    return (
        a.var_names == b.var_names
        and a.row_names == b.row_names
        and a.senses == b.senses
        and a.maximize == b.maximize
        and a.constant == b.constant
        and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "A b c lo hi".split())
    )


def reachable(obj) -> list:
    """Every object obj references, directly or not, short of classes,
    modules and functions."""
    seen, stack, out = set(), [obj], []
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        out.append(o)
        stack.extend(gc.get_referents(o))
    return out


class TestModelReuse:
    """A walk compiles each method's program once and solves it, from one
    crash, with only the energy budget changed."""

    @pytest.fixture(scope="class")
    def walk(self):
        platform = default_platform()
        g = generate_random_graph(
            GeneratorParams(n_tasks=30, mandatory_regime="man_mixed", seed=5)
        )
        star, _, _ = epsilon_star(g, platform)
        cfg = SweepConfig()
        solved = []
        inverses = []
        templates = {}  # per model, a weak reference to its compiled program

        def capture(problem, *args, **kwargs):
            # the program as the solver sees it, kept without the cache it
            # shares with the model's compiled template
            solved.append(dataclasses.replace(problem))
            sol = solve_lp(problem, *args, **kwargs)
            # the basis inverse the solve left in that cache
            inverses.append(weakref.ref(_scaling(problem)[4][0][1]))
            return sol

        def keeping(runner):
            # keeps every call's arguments and result, as a tracer would
            def run(*args):
                kept.append((args, runner(*args)))
                # every row of a model solves a copy of one compiled program
                model = args[3]
                ref = templates.setdefault(id(model), weakref.ref(model.compiled))
                assert ref() is model.compiled and solved[-1].A is model.compiled.A
                return kept[-1][1]
            return run

        kept = []
        with pytest.MonkeyPatch.context() as mp:
            # the rows are decided by the LP, so the walk solves one
            decide_by_lp(mp)
            mp.setattr(sweep, "solve_lp", capture)
            mp.setattr(sweep, "run_proposed", keeping(run_proposed))
            mp.setattr(sweep, "run_baseline", keeping(run_baseline))
            rows = sweep_graph("g", g, platform, cfg, eps_star_value=star)
        assert len(kept) == len(rows)
        rows.sort(key=lambda r: (cfg.methods.index(r.method), -r.eps_ratio))
        return types.SimpleNamespace(
            g=g, platform=platform, star=star, rows=rows, solved=solved, kept=kept,
            inverses=inverses, templates=list(templates.values()),
        )

    def test_each_row_solves_a_fresh_build(self, walk):
        g, platform, star, rows, solved = walk.g, walk.platform, walk.star, walk.rows, walk.solved
        assert len(solved) == len(rows)
        for row, during in zip(rows, solved):
            fresh = fresh_program(row.method, g, platform, row.eps_ratio * star)
            assert same_program(during, fresh)

    def test_rows_equal_a_fresh_model_at_every_row(self, walk, lp_fallback):
        g, platform, star, rows = walk.g, walk.platform, walk.star, walk.rows
        runners = {"proposed": run_proposed, "baseline": run_baseline}
        for row in rows:
            out = runners[row.method](g, platform, row.eps_ratio * star, MethodModel())
            cold = sweep.SweepRow(
                "g", row.method, row.eps_ratio, out.feasible, out.qos, out.energy,
                out.makespan, 0.0, out.gap, out.nodes,
            )
            assert dataclasses.replace(row, runtime=0.0) == cold

    def test_compiled_template_dies_with_the_walk(self, walk):
        assert walk.kept
        # one template per method, gone once sweep_graph returned, although
        # the runners' arguments (the walk's models) are still kept
        assert len(walk.templates) == 2 and all(ref() is None for ref in walk.templates)
        # and so is every basis inverse its cache held
        assert len(walk.inverses) == len(walk.solved)
        assert all(ref() is None for ref in walk.inverses)

    def test_cold_outcome_holds_no_program(self, walk, lp_fallback):
        out = run_proposed(walk.g, walk.platform, walk.star)
        assert out.feasible and out.labeling is not None
        held = reachable(out)
        assert not [
            o for o in held
            if isinstance(o, (LinearProgram, CompiledLP, MethodModel))
            or (isinstance(o, np.ndarray) and o.ndim > 1)
        ]



def benchmark_graphs():
    """The 24 graphs of the benchmark: the sweep workload's four (n 38-44,
    one per regime) and the 20 of the acceptance suite (n 10-38)."""
    graphs = [
        generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=s))
        for regime, n, s in (
            ("man_low", 38, 7), ("man_med", 40, 3), ("man_mixed", 42, 17), ("man_high", 44, 19)
        )
    ]
    for ri, regime in enumerate(("man_low", "man_med", "man_high", "man_mixed")):
        for si, n in enumerate((10, 14, 19, 27, 38)):
            graphs.append(generate_random_graph(
                GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=100 + 10 * ri + si)
            ))
    return graphs


class TestClosedForm:
    """Where the as-soon-as-possible schedule of a model's full loads meets
    the deadline, rows are decided without an LP, and eps* must equal its
    closed form; each must equal the optimum of the program the LP path
    would solve."""

    def test_rows_and_eps_star_match_the_lp_and_highs(self, platform4):
        rows = 0
        for g in benchmark_graphs():
            star_model = MethodModel()
            star, _, _ = epsilon_star(g, platform4, star_model)
            assert star_model.full is not None
            assert star == pytest.approx(star_model.full.energy, rel=1e-9)
            sol = solve_lp(star_model.lp)
            status, ref = highs_objective(star_model.lp.compile())
            assert sol.optimal and status == "optimal"
            assert star == pytest.approx(sol.objective, rel=1e-9)
            assert star == pytest.approx(ref, rel=1e-9)
            for method, runner in (("proposed", run_proposed), ("baseline", run_baseline)):
                model, crash = MethodModel(), None
                for ratio in sweep_ratios(0.05):
                    eps = ratio * star
                    out = runner(g, platform4, eps, model)
                    assert out.decided_by == "closed-form"
                    if crash is None:
                        pm, fs = platform4.power, platform4.freqs
                        crash = asap_basis(model.lp, model.gn, model.prec, pm, fs)
                    # the program an LP row at eps solves, from where it starts
                    program = model.program(eps).compile()
                    sol = solve_lp(program, basis=crash)
                    status, ref = highs_objective(program)
                    assert out.feasible == sol.optimal == (status == "optimal"), (method, ratio)
                    if out.feasible:
                        assert out.qos == pytest.approx(sol.objective, rel=1e-9)
                        assert out.qos == pytest.approx(ref, rel=1e-9)
                    rows += 1
        assert rows == 960

    def test_eps_star_that_disagrees_with_the_closed_form_raises(self, platform4, monkeypatch):
        fill = sweep._fill

        def off_by_a_millionth(model, *args, **kwargs):
            fill(model, *args, **kwargs)
            model.full = dataclasses.replace(model.full, energy=model.full.energy * (1 + 1e-6))

        monkeypatch.setattr(sweep, "_fill", off_by_a_millionth)
        g = generate_random_graph(GeneratorParams(n_tasks=14, mandatory_regime="man_low", seed=4))
        with pytest.raises(PipelineError, match="disagree"):
            epsilon_star(g, platform4)

    def test_closed_form_rows_build_and_solve_no_lp(self, platform4, monkeypatch):
        # eps* is solved by its LP, so it is given; the rows then touch none
        g = generate_random_graph(GeneratorParams(n_tasks=38, mandatory_regime="man_low", seed=7))
        star, _, _ = epsilon_star(g, platform4)
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return call

        for name in ("build_qos_lp", "build_baseline_lp", "build_min_energy_lp",
                     "build_load_lp", "solve_lp"):
            monkeypatch.setattr(sweep, name, refuse(name))
        kept = []

        def keeping(runner):
            def run(*args):
                kept.append(runner(*args))
                return kept[-1]
            return run

        monkeypatch.setattr(sweep, "run_proposed", keeping(run_proposed))
        monkeypatch.setattr(sweep, "run_baseline", keeping(run_baseline))
        rows = sweep_graph("g", g, platform4, SweepConfig(), eps_star_value=star)
        assert calls == [] and len(kept) == len(rows) > 0
        assert {out.decided_by for out in kept} == {"closed-form"}
        assert any(not r.feasible for r in rows)


def fixed_loads(model):
    """The loads a model's rows always run: exits without optional work."""
    return {u: float(w) for u, w in model.workloads.fixed.items()}


class TestLpFallback:
    """A deadline that the full loads' as-soon-as-possible schedule misses:
    eps* and every row go to the LP."""

    @pytest.fixture(scope="class")
    def tight(self):
        """Per method, the graph under a deadline between the as-soon-as-possible
        makespans of the method's fixed loads and of its full loads (for the
        baseline, also below eps*'s), and eps* under the graph's own deadline."""
        platform = default_platform()
        pm, fs = platform.power, platform.freqs
        g = generate_random_graph(GeneratorParams(n_tasks=38, mandatory_regime="man_low", seed=7))
        star_model = MethodModel()
        star, _, _ = epsilon_star(g, platform, star_model)
        graphs = {}
        for method, runner in (("proposed", run_proposed), ("baseline", run_baseline)):
            model = MethodModel()
            runner(g, platform, star, model)
            full = model.full.makespan
            if method == "baseline":
                full = min(full, star_model.full.makespan)
            fixed = min_energy_schedule(
                model.gn, model.prec, fixed_loads(model), {u: 0.0 for u in model.gn.tasks},
                pm, fs, math.inf,
            ).makespan
            assert fixed < full
            graphs[method] = g.with_deadline(0.5 * (fixed + full))
        return platform, graphs, star

    def test_eps_star_falls_back_and_matches_highs(self, tight, monkeypatch):
        platform, graphs, loose_star = tight
        g = graphs["baseline"]
        solved = []

        def capture(problem, *args, **kwargs):
            solved.append(problem)
            return solve_lp(problem, *args, **kwargs)

        monkeypatch.setattr(sweep, "solve_lp", capture)
        model = MethodModel()
        star, sched, _ = epsilon_star(g, platform, model)
        assert model.full is None and solved == [model.lp]
        status, ref = highs_objective(model.lp.compile())
        assert status == "optimal" and star == pytest.approx(ref, rel=1e-9)
        # the deadline binds: the precise loads no longer all run at c*
        assert star > loose_star * (1 + 1e-6) and sched.energy == pytest.approx(star, rel=1e-9)

    @pytest.mark.parametrize("method", ["proposed", "baseline"])
    def test_rows_are_decided_by_the_lp_and_match_highs(self, tight, method, monkeypatch):
        platform, graphs, _ = tight
        g = graphs[method]
        star, _, _ = epsilon_star(g, platform)
        solved = []

        def capture(problem, *args, **kwargs):
            solved.append(problem)
            return solve_lp(problem, *args, **kwargs)

        monkeypatch.setattr(sweep, "solve_lp", capture)
        runner = {"proposed": run_proposed, "baseline": run_baseline}[method]
        model, feasible = MethodModel(), []
        for ratio in sweep_ratios(0.05):
            eps = ratio * star
            out = runner(g, platform, eps, model)
            assert model.full is None and out.decided_by == "lp"
            # the row's QoS program was solved, and is the model's program
            program = [p for p in solved if "energy" in p.row_names][-1]
            assert same_program(program, model.program(eps).compile())
            status, ref = highs_objective(program)
            assert out.feasible == (status == "optimal"), ratio
            if out.feasible:
                assert out.qos == pytest.approx(ref, rel=1e-9)
            feasible.append(out.feasible)
        assert True in feasible and False in feasible


class TestRowsOnTheirOwn:
    """Graphs whose baseline rows go to the LP on two or three processors.
    Solved from the previous row's final basis, one of their rows ends
    "numerical" (ROADMAP item 2); from the model's crash every row solves,
    and depends on its model and budget only."""

    @pytest.mark.parametrize("n,seed,procs", [(40, 0, 2), (80, 0, 3), (80, 2, 3)])
    def test_lp_rows_match_highs_and_a_fresh_model(self, n, seed, procs, monkeypatch):
        platform = default_platform(procs)
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime="man_low", seed=seed))
        kept = []

        def keeping(runner):
            def run(*args):
                kept.append((args, runner(*args)))
                return kept[-1][1]
            return run

        monkeypatch.setattr(sweep, "run_proposed", keeping(run_proposed))
        monkeypatch.setattr(sweep, "run_baseline", keeping(run_baseline))
        rows = sweep_graph("g", g, platform, SweepConfig())
        assert len(kept) == len(rows)
        runners = {"proposed": run_proposed, "baseline": run_baseline}
        lp_rows = [(args, out) for args, out in kept if out.decided_by == "lp"]
        assert lp_rows
        for (_, _, eps, model), out in lp_rows:
            status, ref = highs_objective(model.program(eps).compile())
            assert out.feasible == (status == "optimal"), (out.method, eps)
            if out.feasible:
                assert out.qos == pytest.approx(ref, rel=1e-9)
            alone = runners[out.method](g, platform, eps, MethodModel())
            assert (alone.feasible, alone.qos, alone.energy, alone.makespan, alone.schedule) == (
                out.feasible, out.qos, out.energy, out.makespan, out.schedule
            )
