import pytest

from conftest import make_graph
from impsched.energy import FrequencySet, PowerModel, cheapest_frequency, energy_per_cycle
from impsched.imprecision import imp_label, precise_workloads
from impsched.listsched import heft_assign
from impsched.lp import solve_lp
from impsched import sweep
from impsched.schedlp import (
    asap_basis,
    build_baseline_lp,
    build_load_lp,
    build_min_energy_lp,
    build_qos_lp,
    chosen_loads,
    decode_schedule,
    min_energy_schedule,
    precedence,
)
from impsched.sweep import (
    MethodModel,
    default_platform,
    epsilon_star,
    run_baseline,
    run_proposed,
)
from impsched.taskgraph import (
    MANDATORY_REGIMES,
    GeneratorParams,
    generate_random_graph,
    normalize_source,
)
from impsched.verify import WorkloadContract, verify_schedule
from oracles import (
    baseline_contract_reference,
    baseline_lp_reference,
    grid_min_energy_two_chain,
    min_energy_contract_reference,
    min_energy_lp_reference,
    qos_lp_reference,
)
from test_lp import highs_objective
from test_sweep import same_program

# monotone per-cycle energy (no static term) keeps corner cases analytic
SIMPLE_PM = PowerModel(1e-27, 3.0, 0.0, 0.0)
SIMPLE_FS = FrequencySet((1e9, 2e9))


def single_task_setup(M=1_000_000, O=500_000, m=0, pt=0.3, deadline=0.05):
    g = make_graph([("a", M, O, m, pt)], deadline=deadline)
    lab, wl = imp_label(g)
    asg = heft_assign(g, {"a": float(M + O)}, 1, SIMPLE_FS.f_max)
    return g, lab, wl, asg


class TestQosLP:
    def test_generous_budget_full_precision(self):
        g, lab, wl, asg = single_task_setup()
        lp = build_qos_lp(g, wl, asg, SIMPLE_PM, SIMPLE_FS, eps_max=1.0, T_d=g.deadline)
        sol = solve_lp(lp)
        assert sol.optimal
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        sched = decode_schedule(g, SIMPLE_PM, SIMPLE_FS, sol, fixed_opt=wl.optional_fixed)
        assert sched.opt_cycles["a"] == pytest.approx(500_000, rel=1e-9)

    def test_tight_budget_mandatory_only(self):
        # budget buys exactly the mandatory cycles at the cheapest level;
        # with a monotone cycle cost that is the slowest frequency
        g, lab, wl, asg = single_task_setup()
        eps = 1_000_000 * energy_per_cycle(SIMPLE_PM, SIMPLE_FS.freqs[0])
        sol = solve_lp(build_qos_lp(g, wl, asg, SIMPLE_PM, SIMPLE_FS, eps, g.deadline))
        assert sol.optimal
        assert sol.objective == pytest.approx(0.3, abs=1e-7)
        sched = decode_schedule(g, SIMPLE_PM, SIMPLE_FS, sol, fixed_opt=wl.optional_fixed)
        assert sched.opt_cycles["a"] == pytest.approx(0.0, abs=1.0)

    def test_deadline_infeasible(self):
        g, lab, wl, asg = single_task_setup(deadline=1e-4)
        # even at f_max the mandatory part takes 5e-4 s
        sol = solve_lp(build_qos_lp(g, wl, asg, SIMPLE_PM, SIMPLE_FS, 1.0, g.deadline))
        assert sol.status == "infeasible"

    def test_qos_between_thresholds(self):
        g, lab, wl, asg = single_task_setup()
        e_cheap = energy_per_cycle(SIMPLE_PM, SIMPLE_FS.freqs[0])
        eps = (1_000_000 + 250_000) * e_cheap
        sol = solve_lp(build_qos_lp(g, wl, asg, SIMPLE_PM, SIMPLE_FS, eps, g.deadline))
        assert sol.objective == pytest.approx(0.3 + 0.7 * 0.5, rel=1e-6)


class TestMinEnergyLP:
    def test_loose_deadline_cheapest_frequency(self):
        g, _, _, asg = single_task_setup()
        sol = solve_lp(build_min_energy_lp(g, asg, SIMPLE_PM, SIMPLE_FS, g.deadline))
        assert sol.optimal
        expect = 1_500_000 * energy_per_cycle(SIMPLE_PM, SIMPLE_FS.freqs[0])
        assert sol.objective == pytest.approx(expect, rel=1e-9)

    def test_tight_deadline_forces_fmax(self):
        W = 1_500_000
        g = make_graph([("a", 1_000_000, 500_000, 0, 0.3)], deadline=W / 2e9)
        asg = heft_assign(g, {"a": float(W)}, 1, SIMPLE_FS.f_max)
        sol = solve_lp(build_min_energy_lp(g, asg, SIMPLE_PM, SIMPLE_FS, g.deadline))
        assert sol.optimal
        expect = W * energy_per_cycle(SIMPLE_PM, SIMPLE_FS.freqs[1])
        assert sol.objective == pytest.approx(expect, rel=1e-9)

    def test_two_task_chain_matches_grid_oracle(self):
        g = make_graph(
            [("a", 700_000, 300_000, 0, 0.5), ("b", 900_000, 200_000, 0, 0.5)],
            [("a", "b", 0.2e-3)],
            deadline=1.35e-3,  # between all-slow and all-fast
        )
        asg = heft_assign(
            g, {u: float(g.task(u).initial_workload) for u in g.tasks}, 1, SIMPLE_FS.f_max
        )
        sol = solve_lp(build_min_energy_lp(g, asg, SIMPLE_PM, SIMPLE_FS, g.deadline))
        assert sol.optimal
        ref = grid_min_energy_two_chain(g, SIMPLE_PM, SIMPLE_FS, g.deadline, steps=400)
        assert ref is not None
        assert sol.objective <= ref * (1 + 1e-9)
        assert abs(sol.objective - ref) / ref < 1e-3


class TestAsapBasis:
    """The crash epsilon_star starts from: the as-soon-as-possible schedule
    at the cheapest frequency. It fits the minimum-energy program and is
    optimal where that schedule meets the deadline; elsewhere the dual
    simplex repairs it to the slack start's optimum."""

    @staticmethod
    def crash_and_slack(g):
        platform = default_platform()
        model = MethodModel()
        epsilon_star(g, platform, model)
        crash = asap_basis(model.lp, model.gn, model.prec, platform.power, platform.freqs)
        warm, cold = solve_lp(model.lp, basis=crash), solve_lp(model.lp)
        assert warm.start == "warm" and cold.start == "slack"
        assert warm.optimal and warm.objective == pytest.approx(cold.objective, rel=1e-12)
        status, ref = highs_objective(model.lp.compile())
        assert status == "optimal" and warm.objective == pytest.approx(ref, rel=1e-9)
        return warm

    @pytest.mark.parametrize("n", [10, 44])
    @pytest.mark.parametrize("regime", sorted(MANDATORY_REGIMES))
    def test_optimal_where_the_schedule_meets_the_deadline(self, regime, n):
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=n))
        assert self.crash_and_slack(g).iterations == 0

    @pytest.mark.parametrize("n", [10, 44])
    def test_dual_simplex_repairs_a_missed_deadline(self, n):
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime="man_mixed", seed=n))
        # the crash vertex is the as-soon-as-possible schedule at the cheapest
        # frequency; 10% less time than it takes is still feasible at f_max
        vertex = self.crash_and_slack(g)
        makespan = max(
            vertex.values[f"S[{u}]"] + vertex.values[f"D[{u}]"] for u in normalize_source(g).tasks
        )
        assert self.crash_and_slack(g.with_deadline(0.9 * makespan)).iterations > 0


class TestMinEnergySchedule:
    """The second stage of a proposed or baseline row: of the workloads its
    QoS solve chose, the schedule of minimum energy."""

    @pytest.mark.parametrize("n", [10, 44])
    @pytest.mark.parametrize("regime", sorted(MANDATORY_REGIMES))
    def test_reaches_the_optimum_of_the_chosen_loads(self, regime, n, lp_fallback):
        # the QoS program decides the row (lp_fallback), so its solve chose the loads
        platform = default_platform()
        pm, fs = platform.power, platform.freqs
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=n))
        star, _, _ = epsilon_star(g, platform)
        model, solved = MethodModel(), []

        def capture(problem, *args, **kwargs):
            solved.append(solve_lp(problem, *args, **kwargs))
            return solved[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "solve_lp", capture)
            # a budget that binds on 4 of the 8 graphs
            out = run_proposed(g, platform, 0.95 * star, model)
        assert out.feasible and len(solved) == 1
        gn, asg, T_d, sol = model.gn, model.asg, model.gn.deadline, solved[0]
        loads, opt = chosen_loads(gn, model.lp, sol, model.workloads.optional_fixed)
        sched = min_energy_schedule(gn, model.prec, loads, opt, pm, fs, T_d)
        assert sched == out.schedule
        # the QoS is the first stage's, bit for bit
        assert sched.qos == decode_schedule(gn, pm, fs, sol, model.workloads.optional_fixed).qos
        status, ref = highs_objective(build_load_lp(gn, asg, loads, pm, fs, T_d).compile())
        assert status == "optimal" and sched.energy == pytest.approx(ref, rel=1e-9)
        # 10% less time than the as-soon-as-possible schedule takes
        assert min_energy_schedule(gn, model.prec, loads, opt, pm, fs, 0.9 * sched.makespan) is None

    @pytest.mark.parametrize("n", [10, 44])
    @pytest.mark.parametrize("regime", sorted(MANDATORY_REGIMES))
    def test_a_missed_deadline_solves_the_program_of_the_loads(self, regime, n):
        platform = default_platform()
        pm, fs = platform.power, platform.freqs
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=n))
        star, _, _ = epsilon_star(g, platform)
        # a budget that buys full QoS at either deadline, so both rows choose
        # the same loads; at 90% of the first row's makespan the closed form
        # misses the deadline
        eps = 10 * star
        loose = run_proposed(g, platform, eps)
        assert loose.qos == 1.0
        tight = g.with_deadline(0.9 * loose.makespan)
        model, solved = MethodModel(), []

        def capture(problem, *args, **kwargs):
            solved.append((problem, solve_lp(problem, *args, **kwargs)))
            return solved[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "solve_lp", capture)
            out = run_proposed(tight, platform, eps, model)
        assert out.feasible and out.qos == 1.0
        gn, asg, T_d = model.gn, model.asg, model.gn.deadline
        loads, opt = chosen_loads(gn, model.lp, solved[0][1], model.workloads.optional_fixed)
        assert min_energy_schedule(gn, model.prec, loads, opt, pm, fs, T_d) is None
        (_, _), (comp, sol) = solved
        assert not comp.maximize and sol.start == "warm"
        status, ref = highs_objective(comp)
        assert status == "optimal" and sol.objective == pytest.approx(ref, rel=1e-9)
        assert out.energy == pytest.approx(sol.objective, rel=1e-12)
        assert verify_schedule(gn, out.schedule, asg, pm, fs, eps, T_d, model.contract).ok

    @pytest.mark.parametrize(
        "pm",
        # i* the lowest, an inner and the highest frequency
        [SIMPLE_PM, default_platform().power, PowerModel(1e-27, 3.0, 0.0, 100.0)],
    )
    def test_keeps_the_dict_order(self, pm):
        platform = default_platform()
        fs = platform.freqs
        g = generate_random_graph(GeneratorParams(n_tasks=20, seed=5))
        model = MethodModel()
        out = run_proposed(g, platform, epsilon_star(g, platform)[0], model)
        gn, asg = model.gn, model.asg
        loads = {u: sum(out.schedule.cycles[u, i] for i in range(len(fs))) for u in gn.tasks}
        sched = min_energy_schedule(
            gn, precedence(gn, asg), loads, out.schedule.opt_cycles, pm, fs, 1e3
        )
        i_star, _ = cheapest_frequency(pm, fs)
        # starts in the order of the walk, durations in task order, cycles
        # task-major with the frequencies ascending
        order = precedence(gn, asg).order
        assert list(sched.start) == list(order) and list(order) != list(gn.tasks)
        assert list(sched.durations) == list(gn.tasks)
        assert list(sched.cycles.items()) == [
            ((u, i), loads[u] if i == i_star else 0.0) for u in gn.tasks for i in range(len(fs))
        ]


class TestBaselineLP:
    def test_at_eps_star_reaches_full_qos(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=12, seed=21))
        star, _, asg = epsilon_star(g, platform4)
        gn = normalize_source(g)
        sol = solve_lp(
            build_baseline_lp(gn, asg, platform4.power, platform4.freqs, star, gn.deadline)
        )
        assert sol.optimal
        assert sol.objective >= 1.0 - 1e-6

    def test_below_eps_star_drops(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=12, seed=21))
        star, _, asg = epsilon_star(g, platform4)
        gn = normalize_source(g)
        sol = solve_lp(
            build_baseline_lp(
                gn, asg, platform4.power, platform4.freqs, 0.97 * star, gn.deadline
            )
        )
        assert sol.optimal
        assert sol.objective < 1.0 - 1e-6

    def test_below_mandatory_floor_infeasible(self, platform4):
        from impsched.energy import cheapest_frequency

        g = generate_random_graph(GeneratorParams(n_tasks=12, seed=21))
        gn = normalize_source(g)
        star, _, asg = epsilon_star(g, platform4)
        _, cheapest = cheapest_frequency(platform4.power, platform4.freqs)
        exits = set(gn.exits())
        floor = sum(
            (t.initial_workload if u not in exits else t.mandatory) * cheapest
            for u, t in gn.tasks.items()
        )
        sol = solve_lp(
            build_baseline_lp(
                gn, asg, platform4.power, platform4.freqs, 0.999 * floor, gn.deadline
            )
        )
        assert sol.status == "infeasible"


class TestPipelineInvariants:
    def test_qos_one_at_eps_star_same_assignment(self, platform4):
        # labeled program on the minimum-energy assignment still saturates
        for seed in (1, 5, 9):
            g = generate_random_graph(GeneratorParams(n_tasks=15, seed=seed))
            star, _, asg = epsilon_star(g, platform4)
            gn = normalize_source(g)
            lab, wl = imp_label(gn)
            sol = solve_lp(
                build_qos_lp(gn, wl, asg, platform4.power, platform4.freqs, star, gn.deadline)
            )
            assert sol.optimal
            assert sol.objective >= 1.0 - 1e-6

    def test_monotone_in_budget(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=14, seed=3))
        star, _, _ = epsilon_star(g, platform4)
        gn = normalize_source(g)
        lab, wl = imp_label(gn)
        asg = heft_assign(
            gn,
            {u: float(w) for u, w in wl.full.items()},
            platform4.procs,
            platform4.freqs.f_max,
        )
        prev = None
        for ratio in (1.0, 0.9, 0.8, 0.7, 0.6):
            sol = solve_lp(
                build_qos_lp(
                    gn, wl, asg, platform4.power, platform4.freqs, ratio * star, gn.deadline
                )
            )
            if not sol.optimal:
                break
            if prev is not None:
                assert sol.objective <= prev + 1e-7
            prev = sol.objective

    def test_workload_rows_hold_exactly(self, platform4):
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=8))
        out = run_proposed(g, platform4, eps_max=1.0)
        assert out.feasible
        gn = normalize_source(g)
        lab, wl = imp_label(gn)
        exits = set(gn.exits())
        for u in gn.tasks:
            total = sum(out.schedule.cycles[(u, i)] for i in range(len(platform4.freqs)))
            if u in exits:
                lo = wl.mandatory_eff[u]
                hi = lo + gn.task(u).optional
                assert lo - 1e-4 <= total <= hi + 1e-4
            else:
                assert total == pytest.approx(wl.fixed[u], abs=max(1e-4, 1e-7 * wl.fixed[u]))


# every regime, n from 10 to 44
ONE_BUILDER_GRAPHS = [
    (regime, n, 40 + i)
    for i, regime in enumerate(sorted(MANDATORY_REGIMES))
    for n in (10, 27, 44)
]


class TestOneBuilder:
    """The baseline and eps* programs are the proposed one under the labeling
    that keeps every task precise and under every task's initial workload,
    equal bit for bit to the programs and contracts their own builders wrote
    before the merge (oracles.py)."""

    @pytest.mark.parametrize("regime, n, seed", ONE_BUILDER_GRAPHS)
    def test_programs_and_contracts_equal_the_per_method_ones(self, regime, n, seed):
        platform = default_platform()
        pm, fs = platform.power, platform.freqs
        params = GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=seed)
        g = generate_random_graph(params)
        star_model = MethodModel()
        star, _, _ = epsilon_star(g, platform, star_model)
        gn, T_d, eps = star_model.gn, star_model.gn.deadline, 0.8 * star
        _, wl = imp_label(gn)
        # before the merge, the baseline and eps* list-scheduled initial workloads
        initial = {u: float(t.initial_workload) for u, t in gn.tasks.items()}
        asg = heft_assign(gn, initial, platform.procs, fs.f_max)
        assert star_model.asg == asg
        min_energy = min_energy_lp_reference(gn, asg, pm, fs, T_d)
        baseline_ref = baseline_lp_reference(gn, asg, pm, fs, eps, T_d)
        proposed_ref = qos_lp_reference(gn, wl, asg, pm, fs, eps, T_d)
        programs = [
            (build_qos_lp(gn, wl, asg, pm, fs, eps, T_d), proposed_ref),
            (build_baseline_lp(gn, asg, pm, fs, eps, T_d), baseline_ref),
            (build_min_energy_lp(gn, asg, pm, fs, T_d), min_energy),
            (star_model.lp, min_energy),
        ]
        # and what the runners build
        baseline = MethodModel()
        run_baseline(g, platform, eps, baseline)
        assert baseline.asg == asg
        programs.append((baseline.program(eps), baseline_ref))
        proposed = MethodModel()
        run_proposed(g, platform, eps, proposed)
        programs.append(
            (proposed.program(eps), qos_lp_reference(gn, wl, proposed.asg, pm, fs, eps, T_d))
        )
        for lp, reference in programs:
            assert same_program(lp.compile(), reference.compile())
        contract = baseline_contract_reference(gn)
        assert WorkloadContract.from_labeling(gn, precise_workloads(gn)) == contract
        assert baseline.contract == contract
        assert star_model.contract == min_energy_contract_reference(gn)
