import dataclasses

import numpy as np
import pytest

from conftest import EXACT_CASES, make_graph
from impsched import milp
from impsched.energy import DEFAULT_FREQUENCY_SET, DEFAULT_POWER_MODEL, FrequencySet, PowerModel
from impsched.imprecision import imp_label
from impsched.listsched import heft_assign
from impsched.lp import EQ, LinearProgram, _Simplex, max_violation, solve_lp
from impsched.milp import (
    build_milp,
    decode_assignment,
    encode_solution,
    linearize_product,
    solve_branch_and_bound,
)
from impsched.schedlp import build_qos_lp
from impsched.sweep import run_milp, run_proposed, epsilon_star, PlatformConfig
from impsched.taskgraph import GeneratorParams, generate_random_graph, normalize_source
from impsched.verify import WorkloadContract, verify_schedule
from oracles import exhaustive_best_qos
from test_lp import highs_objective

PM = PowerModel(1e-27, 3.0, 0.0, 0.0)
FS2 = FrequencySet((1e9, 2e9))
PLATFORM2 = PlatformConfig(PM, FS2, 2)


class TestLinearizeProduct:
    def build(self, x_fix=None):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 1.0)
        lp.add_var("y", 0.0, 1.0)
        lp.add_var("z", 0.0, 1.0)
        linearize_product(lp, "z", "x", "y", 1.0)
        if x_fix is not None:
            lp.add_row("fix", {"x": 1.0}, EQ, x_fix)
        return lp

    def test_x_zero_forces_z_zero(self):
        lp = self.build(x_fix=0.0)
        lp.add_row("y_fix", {"y": 1.0}, EQ, 0.7)
        lp.set_objective("max", {"z": 1.0})
        sol = solve_lp(lp)
        assert sol.values["z"] == pytest.approx(0.0, abs=1e-9)

    def test_x_one_forces_z_equals_y(self):
        lp = self.build(x_fix=1.0)
        lp.add_row("y_fix", {"y": 1.0}, EQ, 0.3)
        for sense in ("max", "min"):
            lp.set_objective(sense, {"z": 1.0})
            sol = solve_lp(lp)
            assert sol.values["z"] == pytest.approx(0.3, abs=1e-9)

    def test_boundary(self):
        lp = self.build(x_fix=1.0)
        lp.add_row("y_fix", {"y": 1.0}, EQ, 1.0)
        lp.set_objective("min", {"z": 1.0})
        sol = solve_lp(lp)
        assert sol.values["z"] == pytest.approx(1.0, abs=1e-9)

    def test_requires_finite_bound(self):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 1.0)
        lp.add_var("y", 0.0)
        lp.add_var("z", 0.0)
        with pytest.raises(ValueError):
            linearize_product(lp, "z", "x", "y", float("inf"))


class TestModelStructure:
    def test_single_task_reduces_to_lp(self):
        g = make_graph([("a", 1_000_000, 500_000, 200_000, 0.3)], deadline=0.01)
        lab, wl = imp_label(g)
        asg = heft_assign(g, {"a": 1_500_000.0}, 1, FS2.f_max)
        eps = 1_200_000 * PM.alpha * (1e9) ** 2  # above mandatory at the slow level
        lp_sol = solve_lp(build_qos_lp(g, wl, asg, PM, FS2, eps, g.deadline))
        model = build_milp(g, 1, FS2, PM, eps, g.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=30)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(lp_sol.objective, abs=1e-6)
        assert masg.proc_of["a"] == 0

    def test_all_precise_parents_leave_window_at_base(self):
        # the child's extension exceeds the parent's optional part, so under a
        # budget that covers exactly the all-precise workloads the parent runs
        # fully, X stays zero and the child window sits at [M, M+O]
        g = make_graph(
            [("a", 1000, 200, 0, 0.5), ("b", 1000, 400, 300, 0.5)],
            [("a", "b", 0.0)],
            deadline=0.01,
        )
        cheap = PM.alpha * (1e9) ** 2
        eps = (1200 + 1400) * cheap * (1 + 1e-9)
        model = build_milp(g, 1, FS2, PM, eps_max=eps, T_d=g.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=30)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-6)
        total_a = sum(sched.cycles[("a", i)] for i in range(len(FS2)))
        total_b = sum(sched.cycles[("b", i)] for i in range(len(FS2)))
        assert total_a == pytest.approx(1200, abs=1e-3)
        assert total_b == pytest.approx(1400, abs=1e-3)

    def test_discarding_parent_beats_precise_when_extension_cheap(self):
        # mirror case: extension below the parent's optional size, so the
        # exact model discards the parent's optional work under a budget too
        # small for the all-precise split
        g = make_graph(
            [("a", 1000, 500, 0, 0.5), ("b", 1000, 400, 300, 0.5)],
            [("a", "b", 0.0)],
            deadline=0.01,
        )
        cheap = PM.alpha * (1e9) ** 2
        eps = (1000 + 1700) * cheap * (1 + 1e-9)
        model = build_milp(g, 1, FS2, PM, eps_max=eps, T_d=g.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=30)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-6)
        assert sched.opt_cycles["a"] == pytest.approx(0.0, abs=1e-6)
        total_b = sum(sched.cycles[("b", i)] for i in range(len(FS2)))
        assert total_b == pytest.approx(1700, abs=1e-3)

    def test_clamp_forced_by_parent_errors(self):
        # three parents fully discarded: error sum 3 with n=4 forces X=1
        g = make_graph(
            [
                ("p1", 100, 50, 0, 0.5),
                ("p2", 100, 50, 0, 0.5),
                ("p3", 100, 50, 0, 0.5),
                ("c", 100, 50, 40, 0.5),
            ],
            [("p1", "c", 0.0), ("p2", "c", 0.0), ("p3", "c", 0.0)],
        )
        gn = normalize_source(g)
        n = len(gn.tasks)
        lp = build_milp(gn, 1, FS2, PM, eps_max=1.0, T_d=1.0).lp
        # pin all parent optional cycles to zero and check the X lower bound
        comp = lp.compile()
        lo = comp.lo.copy()
        hi = comp.hi.copy()
        for p in ("p1", "p2", "p3"):
            hi[comp.var_index[f"o[{p}]"]] = 0.0
        sol = solve_lp(comp, lower=lo, upper=hi)
        assert sol.optimal
        assert sol.values["Esum[c]"] == pytest.approx(3.0, abs=1e-6)
        # relaxation may keep X fractional, but never below (sum-1)/n
        assert sol.values["X[c]"] >= (3.0 - 1.0) / n - 1e-9

    def test_encode_seed_is_feasible(self):
        g = generate_random_graph(GeneratorParams(n_tasks=7, seed=12), f_max=FS2.f_max)
        star, _, _ = epsilon_star(g, PLATFORM2)
        out = run_proposed(g, PLATFORM2, 0.9 * star)
        assert out.feasible
        gn = normalize_source(g)
        model = build_milp(gn, 2, FS2, PM, 0.9 * star, gn.deadline)
        values = encode_solution(model, out.assignment, out.schedule)
        comp = model.lp.compile()
        x = np.array([values[n] for n in comp.var_names])
        assert max_violation(comp, x) <= 1e-6
        # and the encoded point scores exactly the proposed QoS
        obj = float(comp.c @ x) + comp.constant
        assert obj == pytest.approx(out.qos, abs=1e-9)
        asg = decode_assignment(model, values)
        assert asg.proc_of == out.assignment.proc_of


def exact_instances():
    """Criterion 5's instances, each as (model, seed values or None), seeded
    as there with the proposed method's solution."""
    fs = FrequencySet((DEFAULT_FREQUENCY_SET.freqs[0], DEFAULT_FREQUENCY_SET.freqs[4]))
    for n, procs, seed, ratio in EXACT_CASES:
        platform = PlatformConfig(DEFAULT_POWER_MODEL, fs, procs)
        g = generate_random_graph(
            GeneratorParams(n_tasks=n, mandatory_regime="man_mixed", seed=500 + seed),
            f_max=fs.f_max,
        )
        gn = normalize_source(g)
        eps = ratio * epsilon_star(g, platform)[0]
        model = build_milp(gn, procs, fs, DEFAULT_POWER_MODEL, eps, gn.deadline)
        prop = run_proposed(g, platform, eps)
        seed_values = (
            encode_solution(model, prop.assignment, prop.schedule) if prop.feasible else None
        )
        yield model, seed_values


class TestBranchAndBound:
    def test_matches_oracle_tiny(self):
        g = generate_random_graph(GeneratorParams(n_tasks=4, seed=2), f_max=FS2.f_max)
        gn = normalize_source(g)
        star, _, _ = epsilon_star(g, PLATFORM2)
        eps = 0.9 * star
        ref = exhaustive_best_qos(gn, 2, PM, FS2, eps, gn.deadline)
        model = build_milp(gn, 2, FS2, PM, eps, gn.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=120)
        assert res.status == "optimal"
        assert ref is not None
        assert res.objective == pytest.approx(ref, rel=1e-4, abs=1e-6)

    def test_infeasible_detected(self):
        g = make_graph([("a", 1_000_000, 500_000, 0, 0.5)], deadline=0.01)
        model = build_milp(g, 1, FS2, PM, eps_max=1e-12, T_d=g.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=10)
        assert res.status == "infeasible"
        assert sched is None

    def test_bound_envelopes_incumbent(self):
        g = generate_random_graph(GeneratorParams(n_tasks=6, seed=5), f_max=FS2.f_max)
        gn = normalize_source(g)
        star, _, _ = epsilon_star(g, PLATFORM2)
        model = build_milp(gn, 2, FS2, PM, 0.8 * star, gn.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=3.0)
        if res.objective is not None:
            assert res.objective <= res.bound + 1e-6
        if res.status == "optimal":
            assert res.gap <= 1e-6

    def test_seeded_never_below_proposed(self):
        g = generate_random_graph(GeneratorParams(n_tasks=8, seed=3), f_max=FS2.f_max)
        star, _, _ = epsilon_star(g, PLATFORM2)
        out = run_milp(g, PLATFORM2, 0.85 * star, time_limit=3.0)
        prop = run_proposed(g, PLATFORM2, 0.85 * star)
        if prop.feasible:
            assert out.feasible
            assert out.qos >= prop.qos - 1e-6

    def test_returned_schedule_verifies(self):
        g = generate_random_graph(GeneratorParams(n_tasks=5, seed=8), f_max=FS2.f_max)
        gn = normalize_source(g)
        star, _, _ = epsilon_star(g, PLATFORM2)
        eps = 0.9 * star
        model = build_milp(gn, 2, FS2, PM, eps, gn.deadline)
        res, sched, masg = solve_branch_and_bound(model, time_limit=60)
        assert res.status == "optimal"
        report = verify_schedule(
            gn, sched, masg, PM, FS2, eps, gn.deadline,
            WorkloadContract.from_milp_schedule(gn, sched),
        )
        assert report.ok, report.format()
        # decoded ordering is a permutation covering all tasks
        seen = [u for seq in masg.order for u in seq]
        assert sorted(seen) == sorted(gn.tasks)

    def test_node_ends_sum_to_nodes(self):
        totals = dict.fromkeys(("infeasible", "bound", "integral", "branched", "numerical"), 0)
        for model, seed_values in exact_instances():
            res, _, _ = solve_branch_and_bound(model, time_limit=240.0, seed_values=seed_values)
            assert res.status in ("optimal", "infeasible")
            assert set(res.ends) == set(totals)
            assert sum(res.ends.values()) == res.nodes
            # every node but the root was pushed by a branched node, two each
            assert res.nodes <= 1 + 2 * res.ends["branched"]
            for end, count in res.ends.items():
                totals[end] += count
        assert totals["numerical"] == 0
        assert all(totals[end] > 0 for end in ("infeasible", "bound", "branched"))


class TestPresolveReductions:
    def test_clamp_exists_exactly_on_tasks_with_two_or_more_parents(self):
        gn = normalize_source(
            generate_random_graph(GeneratorParams(n_tasks=8, seed=4), f_max=FS2.f_max)
        )
        multi = {u for u in gn.tasks if len(gn.parents(u)) > 1}
        assert multi and len(multi) < len(gn.tasks)
        model = build_milp(gn, 2, FS2, PM, 1.0, gn.deadline)
        lp = model.lp
        assert {v[2:-1] for v in lp.var_names if v[0] in "XZ"} == multi
        assert {b[2:-1] for b in model.binaries if b.startswith("X[")} == multi
        for prefix in ("clamp_lo", "clamp_hi"):
            assert {r[len(prefix) + 1:-1] for r in lp.row_names if r.startswith(prefix)} == multi
        for prefix in ("linz_cap", "linz_le", "linz_ge"):
            assert {r[len(prefix) + 3:-2] for r in lp.row_names if r.startswith(prefix)} == multi
        assert {r for r in lp.row_names if r.startswith("inerr")} == {
            f"inerr[{u}]" for u in gn.tasks
        }

    def test_single_parent_at_full_error_matches_oracle(self):
        # b's only parent a discards its optional work, so Esum[b] = 1 and b
        # runs its full extension: the budget covers a's mandatory part and
        # all of b, 1000 + (1000 + 300 + 400) cycles at the cheap frequency
        g = make_graph(
            [("a", 1000, 500, 0, 0.5), ("b", 1000, 400, 300, 0.5)],
            [("a", "b", 0.0)],
            deadline=0.01,
        )
        eps = 2700 * PM.alpha * (1e9) ** 2 * (1 + 1e-9)
        model = build_milp(g, 2, FS2, PM, eps, g.deadline)
        assert not any(b.startswith("X[") for b in model.binaries)
        res, sched, _ = solve_branch_and_bound(model, time_limit=30)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(
            exhaustive_best_qos(g, 2, PM, FS2, eps, g.deadline), abs=1e-6
        )
        assert res.objective == pytest.approx(1.0, abs=1e-6)
        assert sched.opt_cycles["a"] == pytest.approx(0.0, abs=1e-6)
        assert sum(sched.cycles[("b", i)] for i in range(len(FS2))) == pytest.approx(1700, abs=1e-3)

    def test_binding_clamp_matches_oracle(self):
        # c's parents p1 and p2 both discard their optional work: Esum[c] = 2
        # clamps to an input error of 1, the only way the budget runs all of c
        g = make_graph(
            [
                ("s", 100, 100, 0, 0.5),
                ("p1", 1000, 500, 0, 0.5),
                ("p2", 1000, 500, 0, 0.5),
                ("c", 1000, 400, 300, 0.5),
            ],
            [("s", "p1", 0.0), ("s", "p2", 0.0), ("p1", "c", 0.0), ("p2", "c", 0.0)],
            deadline=0.01,
        )
        eps = 3800 * PM.alpha * (1e9) ** 2 * (1 + 1e-9)
        model = build_milp(g, 2, FS2, PM, eps, g.deadline)
        assert [b for b in model.binaries if b.startswith("X[")] == ["X[c]"]
        res, sched, _ = solve_branch_and_bound(model, time_limit=30)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(
            exhaustive_best_qos(g, 2, PM, FS2, eps, g.deadline), abs=1e-6
        )
        assert res.objective == pytest.approx(1.0, abs=1e-6)
        assert sched.opt_cycles["p1"] + sched.opt_cycles["p2"] == pytest.approx(0.0, abs=1e-6)
        assert sum(sched.cycles[("c", i)] for i in range(len(FS2))) == pytest.approx(1700, abs=1e-3)

    def test_y_is_fixed_only_before_an_ancestor_with_mandatory_cycles(self):
        # chain a -> b -> c with a and b free of mandatory cycles
        g = make_graph(
            [("a", 0, 100, 0, 0.5), ("b", 0, 100, 0, 0.5), ("c", 100, 100, 0, 0.5)],
            [("a", "b", 0.0), ("b", "c", 0.0)],
        )
        model = build_milp(g, 2, FS2, PM, 1.0, g.deadline)
        comp = model.lp.compile()
        idx = {u: i + 1 for i, u in enumerate(model.task_order)}
        fixed = {
            name for name in model.binaries
            if name.startswith("Y[") and comp.hi[comp.var_index[name]] == 0.0
        }
        assert fixed == {
            f"Y[{k},{idx[v]},{idx[u]}]" for k in range(2) for v, u in (("c", "a"), ("c", "b"))
        }


class TestNodeWarmStarts:
    def test_every_node_starts_from_its_parents_basis(self, monkeypatch):
        # criterion 4's graph small_9 (n = 10, three frequencies, seed 309)
        # on one processor at 0.8 eps*, whose per-processor flow rows are
        # dependent. With the root crashed at the seed's assignment, its
        # search solves about 120 LPs, and every one of them, the root
        # included, loads a basis
        f = DEFAULT_FREQUENCY_SET.freqs
        fs = FrequencySet((f[0], f[2], f[4]))
        platform = PlatformConfig(DEFAULT_POWER_MODEL, fs, 1)
        g = generate_random_graph(
            GeneratorParams(n_tasks=10, mandatory_regime="man_mixed", seed=309), f_max=fs.f_max
        )
        gn = normalize_source(g)
        eps = 0.8 * epsilon_star(g, platform)[0]
        model = build_milp(gn, 1, fs, DEFAULT_POWER_MODEL, eps, gn.deadline)
        prop = run_proposed(g, platform, eps)
        seed_values = encode_solution(model, prop.assignment, prop.schedule)
        accepted = []
        load = _Simplex._load_basis

        def recording(self, *args):
            accepted.append(load(self, *args))
            return accepted[-1]

        iterations = []

        def counting(*args, **kwargs):
            sol = solve_lp(*args, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(_Simplex, "_load_basis", recording)
        monkeypatch.setattr(milp, "solve_lp", counting)
        res, _, _ = solve_branch_and_bound(model, time_limit=240.0, seed_values=seed_values)
        assert res.status == "optimal"
        assert len(accepted) == len(iterations) > 50 and all(accepted)
        assert res.lp_iterations == sum(iterations)


class _Recorded(Exception):
    """Stops a branch-and-bound once enough node LPs are recorded."""


def root_solve(monkeypatch, model, seed_values=None):
    """The first node LP of a search, as (the program under the root's
    bounds, its solution); the search stops there."""
    calls = []

    def recording(comp, lower, upper, basis):
        sol = solve_lp(comp, lower=lower, upper=upper, basis=basis)
        calls.append((dataclasses.replace(comp, lo=lower.copy(), hi=upper.copy()), sol))
        raise _Recorded

    monkeypatch.setattr(milp, "solve_lp", recording)
    with pytest.raises(_Recorded):
        solve_branch_and_bound(model, time_limit=60.0, seed_values=seed_values)
    return calls[0]


class TestRootCrash:
    def test_a_seeded_root_starts_from_the_seeds_crash(self, monkeypatch):
        seeded = 0
        for model, seed_values in exact_instances():
            if seed_values is None:
                continue
            seeded += 1
            root, sol = root_solve(monkeypatch, model, seed_values)
            assert sol.start == "warm" and sol.optimal
            # the crash reaches the relaxation's optimum, as the slack start does
            slack = solve_lp(root)
            assert slack.start == "slack" and slack.optimal
            assert sol.objective == pytest.approx(slack.objective, rel=1e-9)
        # one instance is infeasible at its budget, so it has no seed
        assert seeded == len(EXACT_CASES) - 1

    def test_an_unseeded_root_starts_from_the_slack_basis(self, monkeypatch):
        model, _ = next(exact_instances())
        _, sol = root_solve(monkeypatch, model)
        assert sol.start == "slack"


class TestBranchingRule:
    def test_branches_on_a_fractional_clamp_bit_first(self, monkeypatch):
        # n = 5, K = 1, seed 509 at 0.85 eps*: the root relaxation has a Pi or
        # Y binary near 0.38 and a clamp bit X[u] at 0.2
        fs = FrequencySet((DEFAULT_FREQUENCY_SET.freqs[0], DEFAULT_FREQUENCY_SET.freqs[4]))
        platform = PlatformConfig(DEFAULT_POWER_MODEL, fs, 1)
        g = generate_random_graph(
            GeneratorParams(n_tasks=5, mandatory_regime="man_mixed", seed=509), f_max=fs.f_max
        )
        gn = normalize_source(g)
        eps = 0.85 * epsilon_star(g, platform)[0]
        model = build_milp(gn, 1, fs, DEFAULT_POWER_MODEL, eps, gn.deadline)
        calls = []

        def recording(comp, lower, upper, basis):
            sol = solve_lp(comp, lower=lower, upper=upper, basis=basis)
            calls.append((lower.copy(), upper.copy(), sol))
            if len(calls) == 2:
                raise _Recorded
            return sol

        monkeypatch.setattr(milp, "solve_lp", recording)
        with pytest.raises(_Recorded):
            solve_branch_and_bound(model, time_limit=60.0)
        (root_lo, root_hi, root), (lo, hi, _) = calls
        score = {b: min(root.values[b], 1.0 - root.values[b]) for b in model.binaries}
        clamps = tuple(b for b in model.binaries if b.startswith("X["))
        assert clamps and model.binaries[-len(clamps):] == clamps
        others = max(score[b] for b in model.binaries if b not in clamps)
        assert 1e-6 < max(score[b] for b in clamps) < others - 0.1
        # the first child differs from the root in one bound: its branching variable
        comp = model.lp.compile()
        (changed,) = np.nonzero((lo != root_lo) | (hi != root_hi))[0]
        assert comp.var_names[changed] == max(clamps, key=lambda b: score[b])


class TestNodeLPsAgainstHighs:
    NODES = 40

    @pytest.mark.parametrize(
        "regime, n", [("man_high", 8), ("man_high", 10), ("man_low", 6), ("man_mixed", 6)]
    )
    def test_first_node_lps_match_highs(self, regime, n, monkeypatch):
        # unseeded B&B, K = 2, 0.85 eps*: each node LP under its binary bounds;
        # 125 LPs over the four instances, from slack and warm starts
        fs = FrequencySet((DEFAULT_FREQUENCY_SET.freqs[0], DEFAULT_FREQUENCY_SET.freqs[4]))
        platform = PlatformConfig(DEFAULT_POWER_MODEL, fs, 2)
        g = generate_random_graph(
            GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=31), f_max=fs.f_max
        )
        gn = normalize_source(g)
        eps = 0.85 * epsilon_star(g, platform)[0]
        model = build_milp(gn, 2, fs, DEFAULT_POWER_MODEL, eps, gn.deadline)
        calls = []

        def recording(comp, lower, upper, basis):
            sol = solve_lp(comp, lower=lower, upper=upper, basis=basis)
            calls.append((dataclasses.replace(comp, lo=lower.copy(), hi=upper.copy()), sol))
            if len(calls) == self.NODES:
                raise _Recorded
            return sol

        monkeypatch.setattr(milp, "solve_lp", recording)
        try:
            solve_branch_and_bound(model, time_limit=240.0)
        except _Recorded:
            pass
        assert {sol.start for _, sol in calls} == {"warm", "slack"}
        for node, sol in calls:
            status, ref = highs_objective(node)
            assert sol.status == status
            if status == "optimal":
                assert sol.objective == pytest.approx(ref, rel=1e-7)
