import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from impsched import milp, sweep
from impsched.energy import DEFAULT_FREQUENCY_SET, DEFAULT_POWER_MODEL, FrequencySet
from impsched.milp import build_milp, encode_solution, solve_branch_and_bound
from impsched.lp import (
    EQ,
    FEAS_TOL,
    GE,
    INF,
    LE,
    CompiledLP,
    LinearProgram,
    _scaling,
    _NumericalTrouble,
    _Simplex,
    max_violation,
    solve_lp,
    write_lp_file,
)
from impsched.taskgraph import (
    MANDATORY_REGIMES,
    GeneratorParams,
    generate_random_graph,
    normalize_source,
)
from oracles import dual_certificate_ok, scaling_dense


def random_lp(rng, feasible=True):
    """Well-scaled random LP, feasible by construction when requested."""
    nv = int(rng.integers(2, 12))
    nr = int(rng.integers(1, 14))
    A = np.where(rng.random((nr, nv)) < 0.6, rng.normal(0, 2, (nr, nv)), 0.0)
    x0 = rng.uniform(0, 5, nv)
    hi = rng.uniform(5.5, 12, nv)
    senses = [str(s) for s in rng.choice([LE, GE, EQ], nr, p=[0.5, 0.3, 0.2])]
    b = A @ x0
    for i, s in enumerate(senses):
        if s == LE:
            b[i] += abs(rng.normal(0, 1))
        elif s == GE:
            b[i] -= abs(rng.normal(0, 1))
    if not feasible:
        # a pair of contradictory rows on the first variable
        senses[0] = LE
        A[0] = 0.0
        A[0, 0] = 1.0
        b[0] = 1.0
        if nr > 1:
            senses[1] = GE
            A[1] = 0.0
            A[1, 0] = 1.0
            b[1] = 2.0
        else:
            senses[0] = GE
            b[0] = float(hi[0]) + 1.0
    c = rng.normal(0, 3, nv)
    sense = "max" if rng.random() < 0.5 else "min"
    lp = LinearProgram()
    for j in range(nv):
        lp.add_var(f"x{j}", 0.0, float(hi[j]))
    for i in range(nr):
        coeffs = {f"x{j}": float(A[i, j]) for j in range(nv) if A[i, j] != 0.0}
        if not coeffs:
            coeffs = {"x0": 1.0}
            b[i] = abs(b[i]) + 1
            senses[i] = LE
        lp.add_row(f"r{i}", coeffs, senses[i], float(b[i]))
    lp.set_objective(sense, {f"x{j}": float(c[j]) for j in range(nv)})
    return lp


def scipy_reference(lp):
    comp = lp.compile()
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(comp.senses):
        if s == LE:
            A_ub.append(comp.A[i])
            b_ub.append(comp.b[i])
        elif s == GE:
            A_ub.append(-comp.A[i])
            b_ub.append(-comp.b[i])
        else:
            A_eq.append(comp.A[i])
            b_eq.append(comp.b[i])
    res = linprog(
        -comp.c if comp.maximize else comp.c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(comp.lo, comp.hi)),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
    obj = None
    if res.status == 0:
        obj = (-res.fun if comp.maximize else res.fun) + comp.constant
    return status, obj


class TestBasics:
    def test_simple_max(self):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 10.0)
        lp.add_row("cap", {"x": 1.0}, LE, 3.0)
        lp.set_objective("max", {"x": 1.0})
        sol = solve_lp(lp)
        assert sol.optimal and sol.objective == pytest.approx(3.0)
        assert sol.values["x"] == pytest.approx(3.0)

    def test_degenerate_optimum_set(self):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 10.0)
        lp.add_var("y", 0.0, 10.0)
        lp.add_row("cap", {"x": 1.0, "y": 1.0}, LE, 1.0)
        lp.set_objective("max", {"x": 1.0, "y": 1.0})
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(1.0)

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 10.0)
        lp.add_row("a", {"x": 1.0}, GE, 2.0)
        lp.add_row("b", {"x": 1.0}, LE, 1.0)
        lp.set_objective("max", {"x": 1.0})
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        # no rows: x has no upper bound and the objective raises it
        lp = LinearProgram()
        lp.add_var("x")
        lp.set_objective("max", {"x": 1.0})
        with pytest.raises(ValueError, match="'x'"):
            solve_lp(lp)

    def test_objective_constant(self):
        lp = LinearProgram()
        lp.add_var("x", 0, 2)
        lp.set_objective("max", {"x": 0.5}, constant=0.25)
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(1.25)

    def test_bounds_override(self):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 10.0)
        lp.add_row("r", {"x": 1.0}, LE, 8.0)
        lp.set_objective("max", {"x": 1.0})
        comp = lp.compile()
        sol = solve_lp(comp, lower=np.array([0.0]), upper=np.array([4.0]))
        assert sol.objective == pytest.approx(4.0)
        sol = solve_lp(comp, lower=np.array([5.0]), upper=np.array([4.0]))
        assert sol.status == "infeasible"

    def test_duplicate_names_rejected(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(ValueError):
            lp.add_var("x")
        lp.add_row("r", {"x": 1.0}, LE, 1.0)
        with pytest.raises(ValueError):
            lp.add_row("r", {"x": 1.0}, LE, 1.0)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        lp.add_var("x")
        with pytest.raises(ValueError):
            lp.add_row("r", {"y": 1.0}, LE, 1.0)
        with pytest.raises(ValueError):
            lp.set_objective("max", {"z": 1.0})


class TestRandomized:
    def test_matches_scipy_on_200_instances(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            ref_status, ref_obj = scipy_reference(lp)
            assert sol.status == ref_status
            if sol.optimal:
                assert sol.objective == pytest.approx(ref_obj, rel=1e-6, abs=1e-6)
                checked += 1
        assert checked > 100

    def test_dual_certificates(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if not sol.optimal:
                continue
            ok, msg = dual_certificate_ok(lp, sol)
            assert ok, msg

    def test_crafted_infeasible(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            lp = random_lp(rng, feasible=False)
            assert solve_lp(lp).status == "infeasible"

    def test_primal_solution_feasible(self):
        rng = np.random.default_rng(14)
        for _ in range(80):
            lp = random_lp(rng)
            comp = lp.compile()
            sol = solve_lp(comp)
            if sol.optimal:
                x = np.array([sol.values[n] for n in comp.var_names])
                assert max_violation(comp, x) <= 1e-7


class TestScalingRobustness:
    def test_mixed_magnitude_rows(self):
        # cycles around 1e6 against per-cycle energies around 1e-10: the
        # regime the equilibration exists for
        lp = LinearProgram()
        lp.add_var("n1", 0, INF)
        lp.add_var("n2", 0, INF)
        lp.add_var("d", 0, 1.0)
        lp.add_row("wl", {"n1": 1.0, "n2": 1.0}, EQ, 2.5e6)
        lp.add_row("dur", {"n1": 1e-9, "n2": 5e-10, "d": -1.0}, EQ, 0.0)
        lp.add_row("dl", {"d": 1.0}, LE, 2e-3)
        lp.set_objective("min", {"n1": 7e-10, "n2": 9e-10})
        sol = solve_lp(lp)
        assert sol.optimal
        # cheapest: run everything at n1 unless the deadline forbids it
        # 2.5e6 cycles at 1e-9 s each = 2.5 ms > 2 ms, so a split is needed
        n1, n2 = sol.values["n1"], sol.values["n2"]
        assert n1 + n2 == pytest.approx(2.5e6, rel=1e-9)
        assert n1 * 1e-9 + n2 * 5e-10 <= 2e-3 * (1 + 1e-9)
        assert sol.objective == pytest.approx(7e-10 * n1 + 9e-10 * n2, rel=1e-9)
        # tight deadline: moving one cycle to n2 saves 5e-10 s, so
        # n2 = (2.5ms - 2ms) / 5e-10 = 1e6 and n1 carries the rest
        assert n1 == pytest.approx(1.5e6, rel=1e-6)

    def test_determinism_under_permutation(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if not sol.optimal:
                continue
            comp = lp.compile()
            perm = rng.permutation(len(comp.var_names))
            rperm = rng.permutation(len(comp.row_names))
            lp2 = LinearProgram()
            for j in perm:
                lp2.add_var(
                    comp.var_names[j], float(comp.lo[j]), float(comp.hi[j])
                )
            for i in rperm:
                coeffs = {
                    comp.var_names[j]: float(comp.A[i, j])
                    for j in range(len(comp.var_names))
                    if comp.A[i, j] != 0.0
                }
                lp2.add_row(comp.row_names[i], coeffs, comp.senses[i], float(comp.b[i]))
            lp2.set_objective(
                "max" if comp.maximize else "min",
                {
                    comp.var_names[j]: float(comp.c[j])
                    for j in range(len(comp.var_names))
                    if comp.c[j] != 0.0
                },
                comp.constant,
            )
            sol2 = solve_lp(lp2)
            assert sol2.optimal
            assert sol2.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)


class TestExport:
    def test_lp_file_shape(self):
        lp = LinearProgram()
        lp.add_var("S[a]", 0, 5)
        lp.add_var("o[a]", 0, 3)
        lp.add_row("load[a]", {"S[a]": 1.0, "o[a]": -1.0}, EQ, 1.0)
        lp.set_objective("max", {"o[a]": 0.5})
        buf = io.StringIO()
        write_lp_file(lp, buf, binaries=["o[a]"])
        text = buf.getvalue()
        assert text.startswith("\\")
        assert "Maximize" in text and "Subject To" in text
        assert "Binary" in text and "End" in text
        assert "[" not in text.replace("\\", "")  # names sanitized


def scheduling_lps(n):
    """The min-energy, QoS and baseline LPs the pipeline solves for one
    man_low graph (seed 7), compiled; the QoS LP at 0.8 eps* and the
    baseline LP at 0.9 eps*, budgets that bind at n = 10, 38 and 80.
    Compiled after the runs, so each is a fresh CompiledLP of its own."""
    return [lp.compile() for lp in scheduling_programs(n)]


def scheduling_programs(n):
    """The LinearPrograms of scheduling_lps(n), each built by the model the
    pipeline's run filled: the program that decides the run, and that the
    run solves where the closed form does not hold."""
    g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime="man_low", seed=7))
    platform = sweep.default_platform()
    star_model, qos, base = sweep.MethodModel(), sweep.MethodModel(), sweep.MethodModel()
    star, _, _ = sweep.epsilon_star(g, platform, star_model)
    assert sweep.run_proposed(g, platform, 0.8 * star, qos).feasible
    assert sweep.run_baseline(g, platform, 0.9 * star, base).feasible
    return [star_model.lp, qos.program(0.8 * star), base.program(0.9 * star)]


def equilibrated(comp):
    """(A, b, c, lo, hi) as solve_lp hands them to the core: power-of-two
    scaled, objective in min sense."""
    R, C = _scaling(comp)[:2]
    c = (-comp.c if comp.maximize else comp.c) * C
    return comp.A * R[:, None] * C[None, :], comp.b * R, c, comp.lo / C, comp.hi / C


def explicit_basis(core):
    """The basis matrix, column by column: a structural column of core.A, or
    the identity column of a slack's row."""
    B = np.zeros((core.nr, core.nr))
    for pos, j in enumerate(core.basis):
        if j < core.nv:
            B[:, pos] = core.A[:, j]
        else:
            B[j - core.nv, pos] = 1.0
    return B


def assert_inverse_matches(core):
    """FTRAN and BTRAN through the eta file agree with a fresh solve."""
    B = explicit_basis(core)
    rng = np.random.default_rng(0)
    for _ in range(3):
        a = rng.normal(size=core.nr)
        ref = np.linalg.solve(B, a)
        np.testing.assert_allclose(core._ftran(a), ref, rtol=0, atol=1e-9 * np.abs(ref).max())
        ref = np.linalg.solve(B.T, a)
        np.testing.assert_allclose(core._btran(a), ref, rtol=0, atol=1e-9 * np.abs(ref).max())


def redundant_row_lp():
    """Three '==' rows of rank two: row c repeats row a. z is fixed at 0, so
    row b pins x = 2 and the optimum is y = 0."""
    lp = LinearProgram()
    lp.add_var("x", 0, 10)
    lp.add_var("y", 0, 10)
    lp.add_var("z", 0, 0)
    lp.add_row("a", {"x": 1.0, "y": 1.0}, EQ, 2.0)
    lp.add_row("b", {"x": 1.0, "z": 1.0}, EQ, 2.0)
    lp.add_row("c", {"x": 2.0, "y": 2.0}, EQ, 4.0)
    lp.set_objective("max", {"y": 1.0})
    return lp


class TestEtaFile:
    def test_matches_solve_past_a_full_eta_file(self, monkeypatch):
        # a cold solve of this program takes 270 pivots; only the core's
        # own pivots are counted
        comp = scheduling_lps(80)[0]
        pivots = []
        pivot = _Simplex._pivot

        def counting(self, r, q, w):
            pivots.append(q)
            pivot(self, r, q, w)

        monkeypatch.setattr(_Simplex, "_pivot", counting)
        A, b, c, lo, hi = equilibrated(comp)
        core = _Simplex(A, b, comp.senses, c, lo, hi)
        # stop mid-run: the iteration limit leaves the core as it stood
        core.solve(maxiter=_Simplex.REFACTOR_EVERY + 60)
        assert len(pivots) > _Simplex.REFACTOR_EVERY
        assert core.refactors >= 1 and 0 < core.n_eta < _Simplex.REFACTOR_EVERY
        assert_inverse_matches(core)


class TestSolutionCounters:
    def test_refactors_and_violation_reported(self, monkeypatch):
        cores = []
        solve = _Simplex.solve

        def recording(self, *args):
            cores.append(self)
            return solve(self, *args)

        monkeypatch.setattr(_Simplex, "solve", recording)
        lp = random_lp(np.random.default_rng(16))
        comp = lp.compile()
        sol = solve_lp(comp)
        assert sol.optimal
        assert sol.refactors == cores[0].refactors
        # whether or not the end of the solve refactored, it ends on an
        # inverse that fits
        assert_inverse_matches(cores[0])
        x = np.array([sol.values[n] for n in comp.var_names])
        assert sol.violation == max_violation(comp, x)
        assert 0.0 <= sol.violation <= 10 * FEAS_TOL
        infeasible = solve_lp(random_lp(np.random.default_rng(16), feasible=False))
        assert infeasible.status == "infeasible" and infeasible.violation is None


def highs_objective(comp):
    """(status, objective) of HiGHS on the equilibrated program."""
    A, b, c, lo, hi = equilibrated(comp)
    senses = np.array(comp.senses)
    le, ge, eq = senses == LE, senses == GE, senses == EQ
    res = linprog(
        c,
        A_ub=np.vstack([A[le], -A[ge]]),
        b_ub=np.concatenate([b[le], -b[ge]]),
        A_eq=A[eq],
        b_eq=b[eq],
        bounds=list(zip(lo, np.where(np.isfinite(hi), hi, None))),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 2:
        return "infeasible", None
    assert res.status == 0, res.message
    return "optimal", (-res.fun if comp.maximize else res.fun) + comp.constant


class TestSchedulingLPsAgainstHighs:
    @pytest.mark.parametrize("n", [10, 38, 80])
    def test_objectives_match_highs(self, n):
        for comp in scheduling_lps(n):
            sol = solve_lp(comp)
            # every column is boxed on the side its cost points to
            assert sol.optimal and sol.start == "slack"
            status, ref = highs_objective(comp)
            assert status == "optimal"
            assert sol.objective == pytest.approx(ref, rel=1e-9)


def two_var_lp():
    """max x + y subject to x + y + z <= 4, x + y - z <= 2 (columns x and y
    are equal, so a basis holding both is singular)."""
    lp = LinearProgram()
    for v in "xyz":
        lp.add_var(v, 0.0, 10.0)
    lp.add_row("a", {"x": 1.0, "y": 1.0, "z": 1.0}, LE, 4.0)
    lp.add_row("b", {"x": 1.0, "y": 1.0, "z": -1.0}, LE, 2.0)
    lp.set_objective("max", {"x": 1.0, "y": 1.0})
    return lp.compile()


def near_singular_lp(slack_row=False):
    """Three rows, column w = u + v in decimal: np.linalg.inv factors the
    equilibrated basis {u, v, w} without error into a wrong inverse. The
    objective is zero, so that basis would pass as dual feasible. With
    slack_row, a fourth row u <= 5 puts a slack beside that kernel."""
    lp = LinearProgram()
    a, b = (0.7, 0.3, 0.1), (0.1, 0.8, 0.9)
    cols = {"u": a, "v": b, "w": tuple(x + y for x, y in zip(a, b))}
    for v in cols:
        lp.add_var(v, 0.0, 10.0)
    for i in range(3):
        lp.add_row(f"r{i}", {v: col[i] for v, col in cols.items()}, LE, 1.0 + i)
    if slack_row:
        lp.add_row("r3", {"u": 1.0}, LE, 5.0)
    lp.set_objective("max", {})
    return lp.compile()


class TestWarmStart:
    def test_budget_walk_matches_cold_and_highs(self):
        lps = scheduling_lps(38)
        qos = lps[1]
        row = qos.row_names.index("energy")
        basis = None
        proved_infeasible = 0
        for ratio in (1.0, 0.9, 0.8, 0.6, 0.5, 0.4):
            comp = dataclasses.replace(qos, b=qos.b.copy())
            comp.b[row] = qos.b[row] * ratio / 0.8
            warm = solve_lp(comp, basis=basis)
            cold = solve_lp(comp)
            status, ref = highs_objective(comp)
            assert warm.status == cold.status == status
            if status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
                assert warm.objective == pytest.approx(ref, rel=1e-9)
            elif basis is not None:
                # the dual simplex proved it, from either start, and hands
                # back a dual feasible basis
                assert warm.basis is not None and cold.basis is not None
                proved_infeasible += 1
            assert cold.start == "slack"
            if basis is not None:
                assert warm.start == "warm"
                assert warm.iterations < cold.iterations
            basis = warm.basis
        assert proved_infeasible >= 2

    def test_reduced_cost_tolerance_is_relative(self, lp_fallback):
        # the equilibrated QoS costs peak near 1.4e-6; a tolerance of 1e-9
        # in absolute terms let a reduced cost of 5.3e-10 on a column with
        # a range of 6e4 pass as optimal, 1.8e-5 short in QoS. The rows are
        # decided by the LP (lp_fallback), so the walk solves it warm.
        g = generate_random_graph(GeneratorParams(n_tasks=38, mandatory_regime="man_low", seed=7))
        platform = sweep.default_platform()
        star, _, _ = sweep.epsilon_star(g, platform)
        captured = []

        def capture(problem, *args, **kwargs):
            captured.append(problem.compile())
            return solve_lp(problem, *args, **kwargs)

        model = sweep.MethodModel()
        assert sweep.run_proposed(g, platform, 0.75 * star, model).feasible
        assert model.basis is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "solve_lp", capture)
            warm = sweep.run_proposed(g, platform, 0.7 * star, model)
        cold = sweep.run_proposed(g, platform, 0.7 * star)
        assert warm.feasible and cold.feasible
        assert warm.qos == pytest.approx(cold.qos, rel=1e-9)
        status, ref = highs_objective(captured[0])
        assert warm.qos == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize(
        "case",
        [
            "short",
            "long",
            "extra_basic",
            "singular",
            "near_singular",
            "infinite_bound",
            "dual_infeasible",
        ],
    )
    def test_bases_that_do_not_fit_start_cold(self, case):
        comp = near_singular_lp() if case == "near_singular" else two_var_lp()
        cold = solve_lp(comp)
        assert cold.optimal and cold.basis is not None
        basis = {
            "short": cold.basis[:-1],
            "long": np.append(cold.basis, 0),
            "extra_basic": np.full_like(cold.basis, 2),
            # x and y basic: equal columns
            "singular": np.array([2, 2, 0, 0, 0]),
            "near_singular": np.array([2, 2, 2, 0, 0, 0]),
            # the slack of a '<=' row has no finite upper bound
            "infinite_bound": np.array([0, 2, 2, 0, 1]),
            # primal feasible, but x and y price in at their lower bounds
            "dual_infeasible": np.array([0, 0, 2, 0, 2]),
        }[case]
        got = solve_lp(comp, basis=basis)
        # the slack start comes next, as for a solve with no basis
        assert got.start == cold.start == "slack"
        assert got.status == cold.status
        assert got.objective == cold.objective
        assert got.iterations == cold.iterations

    def test_basis_of_a_redundant_row_is_used(self, monkeypatch):
        # the dual simplex leaves a slack basic on the dependent rows, so the
        # basis handed back has one basic per row and fits a later solve
        comp = redundant_row_lp().compile()
        cold = solve_lp(comp)
        assert cold.optimal and cold.objective == pytest.approx(0.0, abs=1e-12)
        assert cold.values["x"] == pytest.approx(2.0)
        assert int((cold.basis == 2).sum()) == len(comp.row_names)
        accepted = []
        load = _Simplex._load_basis

        def recording(self, *args):
            accepted.append(load(self, *args))
            return accepted[-1]

        monkeypatch.setattr(_Simplex, "_load_basis", recording)
        again = solve_lp(comp, basis=cold.basis)
        assert accepted == [True]
        assert again.objective == cold.objective

    def test_fitting_basis_is_used(self):
        comp = two_var_lp()
        cold = solve_lp(comp)
        again = solve_lp(comp, basis=cold.basis)
        assert again.objective == pytest.approx(cold.objective, rel=1e-12)
        # an optimal basis is primal feasible: the dual simplex makes no pivot
        assert again.iterations == 0 < cold.iterations


def kernel_core():
    """A core on four rows (senses <=, >=, <=, ==) loaded with its slack
    basis. Columns 0 and 4 are equal; column 2 is zero on rows 0 and 3."""
    A = np.array(
        [
            [1.0, 2.0, 0.0, 1.0, 1.0],
            [0.0, 1.0, 3.0, 0.0, 0.0],
            [2.0, 0.0, 1.0, 1.0, 2.0],
            [1.0, 1.0, 0.0, 2.0, 1.0],
        ]
    )
    b = np.array([5.0, -1.0, 3.0, -2.0])
    core = _Simplex(A, b, (LE, GE, LE, EQ), np.ones(5), np.zeros(5), np.full(5, 10.0))
    cost = np.concatenate([core.c_min, np.zeros(4)])
    assert core._load_basis(core._slack_basis(), cost, core.hi - core.lo <= 0.0)
    return core


class TestKernelRefactor:
    NV = 5  # first slack column

    @pytest.mark.parametrize(
        "case, basis",
        [
            ("structural", [0, 1, 2, 3]),
            ("unit", [NV + 2, NV + 3, NV + 0, NV + 1]),
            # structural columns 1 and 4 on rows 1 and 2, slacks on rows 3 and 0
            ("mixed", [1, NV + 3, NV + 0, 4]),
        ],
    )
    def test_inverse_matches_explicit_basis(self, case, basis):
        core = kernel_core()
        core.basis = np.array(basis)
        core._refactor()
        B = explicit_basis(core)
        np.testing.assert_allclose(core.B0_inv, np.linalg.inv(B), rtol=0, atol=1e-12)
        # the basics solve the rows against the nonbasics where they stand
        np.testing.assert_allclose(core._times(core.x), core.b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "basis",
        [
            [0, 4, NV + 0, NV + 1],  # equal columns: the kernel is singular
            # column 2 lies in the span of the basic slacks of rows 1 and 2
            [0, 2, NV + 1, NV + 2],
        ],
    )
    def test_singular_basis_raises(self, basis):
        core = kernel_core()
        core.basis = np.array(basis)
        with pytest.raises(_NumericalTrouble):
            core._refactor()

    def test_numerically_singular_kernel_is_rejected(self):
        comp = near_singular_lp(slack_row=True)
        A, b, c, lo, hi = equilibrated(comp)
        core = _Simplex(A, b, comp.senses, c, lo, hi)
        vstat = np.array([2, 2, 2, 0, 0, 0, 2])
        cost = np.concatenate([c, np.zeros(len(b))])
        fixed = core.hi - core.lo <= 0.0
        assert not core._load_basis(vstat, cost, fixed)


def unboxed_lp(case):
    """max x + y over two rows, x boxed; y is free, or has no upper bound
    although the objective raises it, or is boxed (upper_override, where the
    solve lifts its upper bound)."""
    lp = LinearProgram()
    lp.add_var("x", 0.0, 4.0)
    lp.add_var("y", -INF if case == "free" else 0.0, 4.0 if case == "upper_override" else INF)
    lp.add_row("a", {"x": 1.0, "y": 1.0}, LE, 5.0)
    lp.add_row("b", {"x": -1.0, "y": 2.0}, GE, -1.0 if case == "free" else 1.0)
    lp.set_objective("max", {"x": 1.0, "y": 1.0 if case == "no_upper" else 0.5})
    return lp


def unboxed_columns(lp):
    """The columns of a LinearProgram with no finite bound on the side its
    cost prefers: the ones solve_lp rejects."""
    sign = -1.0 if lp.maximize else 1.0
    return [
        v
        for j, v in enumerate(lp.var_names)
        if not math.isfinite(lp._hi[j] if sign * lp._obj.get(v, 0.0) < 0 else lp._lo[j])
    ]


class TestColdStart:
    """A cold solve starts from the slack basis with the dual simplex; a
    column with no finite bound on the side its cost prefers is rejected."""

    @pytest.mark.parametrize("case", ["free", "no_upper", "upper_override"])
    def test_unboxed_column_is_rejected(self, case):
        comp = unboxed_lp(case).compile()
        upper = None
        if case == "upper_override":
            assert solve_lp(comp).optimal
            upper = np.array([4.0, INF])
        with pytest.raises(ValueError, match="column 'y' has no finite bound"):
            solve_lp(comp, upper=upper)

    @pytest.mark.parametrize("n", [10, 44])
    @pytest.mark.parametrize("regime", sorted(MANDATORY_REGIMES))
    def test_pipeline_programs_are_boxed(self, regime, n):
        # every program a CLI command solves: the three sweep.MethodModel
        # programs and the MILP, whose nodes only narrow its bounds
        g = generate_random_graph(GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=n))
        platform = sweep.default_platform()
        for method, eps in (("minimum-energy", None), ("proposed", 1.0), ("baseline", 1.0)):
            model = sweep.MethodModel()
            sweep._fill(model, method, g, platform, eps)
            assert unboxed_columns(model.lp) == [], method
        gn = normalize_source(g)
        milp = build_milp(gn, platform.procs, platform.freqs, platform.power, 1.0, gn.deadline)
        assert unboxed_columns(milp.lp) == []

    def test_boxed_random_lps_take_slack(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            assert solve_lp(random_lp(rng)).start == "slack"

    def test_infeasible_scheduling_lp_proved_by_dual(self):
        qos = scheduling_lps(38)[1]
        comp = dataclasses.replace(qos, b=qos.b.copy())
        comp.b[qos.row_names.index("energy")] *= 0.1
        assert highs_objective(comp)[0] == "infeasible"
        sol = solve_lp(comp)
        assert sol.status == "infeasible" and sol.start == "slack"
        # the dual simplex ends on a basis a later solve may start from
        assert sol.basis is not None and int((sol.basis == 2).sum()) == len(comp.row_names)

    def test_in_place_reduced_costs_match_recomputed(self):
        for comp in scheduling_lps(38):
            A, b, c, lo, hi = equilibrated(comp)
            core = _Simplex(A, b, comp.senses, c, lo, hi)
            cost = np.concatenate([c, np.zeros(len(b))])
            fixed = core.hi - core.lo <= 0.0
            assert core._load_basis(core._slack_basis(), cost, fixed)
            assert core._dual(cost, fixed, maxiter=10_000) == "optimal"
            # pivots since the last refactorization updated d in place
            assert core.n_eta > 0
            d = cost - core._prices(core._btran(cost[core.basis]))
            assert np.abs(core.d - d).max() <= 1e-9 * np.abs(cost).max()


class TestFinalCheck:
    """A warm solve refactors in _load_basis. After the dual simplex the solve
    refactors again only when the eta file fails its residual check or prices
    a column in with the wrong sign; a wrong sign on a fresh factorization is
    numerical trouble."""

    def warm_solve(self, monkeypatch, perturb=False, recheck=None):
        qos = scheduling_lps(10)[1]
        if recheck is not None:
            # after the pipeline's solves, which start from a crash, so warm too
            monkeypatch.setattr(_Simplex, "_dual_infeasible", recheck)
        row = qos.row_names.index("energy")
        start = solve_lp(qos)
        comp = dataclasses.replace(qos, b=qos.b.copy())
        comp.b[row] *= 0.7  # a budget of 0.56 eps*: 5 dual pivots
        # the cold solve runs the dual simplex too, so it is made unrecorded
        cold = solve_lp(comp)
        seen = []
        dual = _Simplex._dual

        def recording(self, *args):
            status = dual(self, *args)
            seen.append((self.refactors, self.n_eta))
            if perturb:
                # on the basic with the largest cost, so that BTRAN carries it into y
                cost = np.concatenate([self.c_min, np.zeros(self.ncols - self.nv)])
                self.eta_p[0, int(np.argmax(np.abs(cost[self.basis])))] += 1e-6
            return status

        monkeypatch.setattr(_Simplex, "_dual", recording)
        warm = solve_lp(comp, basis=start.basis)
        assert warm.start == "warm"
        assert warm.optimal and warm.objective == pytest.approx(cold.objective, rel=1e-9)
        # one load refactor, then a few dual pivots in the eta file; a failed
        # residual check refactors and re-enters the dual simplex, which
        # finds the basis primal feasible
        assert seen[0][0] == 1 and 0 < seen[0][1] < 10
        assert seen[1:] == ([(2, 0)] if perturb or recheck is not None else [])
        return warm

    def test_clean_pivots_keep_the_load_factorization(self, monkeypatch):
        assert self.warm_solve(monkeypatch).refactors == 1

    def test_failed_residual_check_refactors(self, monkeypatch):
        assert self.warm_solve(monkeypatch, perturb=True).refactors == 2

    def test_wrong_sign_on_the_eta_file_refactors_and_rechecks(self, monkeypatch):
        # the eta file's duals carry its residual times the basis's condition
        # number; a sign they get wrong is judged again on a fresh factorization
        check = _Simplex._dual_infeasible
        flagged = []

        def once(self, y, c, fixed):
            if self.n_eta and self.start == "warm" and not flagged:
                flagged.append(self.n_eta)
                return True
            return check(self, y, c, fixed)

        assert self.warm_solve(monkeypatch, recheck=once).refactors == 2
        assert flagged

    def test_wrong_reduced_cost_sign_is_numerical(self, monkeypatch):
        # primal feasible, but x and y price in at their lower bounds:
        # _load_basis rejects it, so a load that skips that test stands in
        # for reduced costs that drifted during the dual simplex
        def accept(self, vstat, c, fixed):
            self._adopt(np.asarray(vstat))
            return True

        monkeypatch.setattr(_Simplex, "_load_basis", accept)
        sol = solve_lp(two_var_lp(), basis=np.array([0, 0, 2, 0, 2]))
        assert sol.start == "warm"
        assert sol.status == "numerical" and "wrong sign" in sol.message
        # the counters of a failed solve report the core's work: the load's refactor
        assert sol.refactors == 1 and sol.iterations == 0


def max_violation_loop(comp, x):
    """max_violation row by row, as it was written before it took arrays."""
    worst = 0.0
    act = comp.A @ x
    scale = np.maximum(1.0, np.abs(comp.A).max(axis=1, initial=0.0))
    scale = np.maximum(scale, np.abs(comp.b))
    for i, sense in enumerate(comp.senses):
        if sense == LE:
            v = act[i] - comp.b[i]
        elif sense == GE:
            v = comp.b[i] - act[i]
        else:
            v = abs(act[i] - comp.b[i])
        worst = max(worst, v / scale[i])
    bscale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(comp.lo)))
    return max(worst, float(((comp.lo - x) / bscale).max()), float(((x - comp.hi) / bscale).max()))


def compile_loop(lp):
    """(A, b, c, lo, hi) of LinearProgram.compile, coefficient by
    coefficient, as it was written before it took arrays."""
    A = np.zeros((lp.n_rows, lp.n_vars))
    b = np.zeros(lp.n_rows)
    for i, (coeffs, _, rhs) in enumerate(lp._rows):
        for v, a in coeffs.items():
            A[i, lp._var_index[v]] = a
        b[i] = rhs
    c = np.zeros(lp.n_vars)
    for v, a in lp._obj.items():
        c[lp._var_index[v]] = a
    return A, b, c, np.array(lp._lo), np.array(lp._hi)


class TestCompile:
    @pytest.mark.parametrize("regime", ["man_low", "man_mixed"])
    def test_matches_coefficient_loop(self, regime):
        g = generate_random_graph(GeneratorParams(n_tasks=14, mandatory_regime=regime, seed=4))
        platform = sweep.default_platform()
        programs = []
        for method, eps in (("minimum-energy", None), ("proposed", 0.02), ("baseline", 0.02)):
            model = sweep.MethodModel()
            sweep._fill(model, method, g, platform, eps)
            programs.append(model.lp)
        gn = normalize_source(g)
        programs.append(
            build_milp(gn, platform.procs, platform.freqs, platform.power, 0.02, gn.deadline).lp
        )
        for lp in programs:
            comp = lp.compile()
            got = (comp.A, comp.b, comp.c, comp.lo, comp.hi)
            # bitwise: the same doubles, and the same signs of zero
            for a, want in zip(got, compile_loop(lp)):
                assert a.shape == want.shape and a.tobytes() == want.tobytes()
            assert comp.senses == tuple(sense for _, sense, _ in lp._rows)

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_coefficient_names_its_row(self, bad):
        lp = LinearProgram()
        lp.add_var("x")
        lp.add_var("y")
        lp.add_row("ok", {"x": 1.0, "y": 2.0}, LE, 1.0)
        lp.add_row("first", {"x": 1.0, "y": bad}, LE, 1.0)
        lp.add_row("second", {"x": bad}, LE, 1.0)
        with pytest.raises(ValueError, match="non-finite coefficient in row 'first'"):
            lp.compile()


class TestScalingCache:
    def test_solves_of_one_program_share_its_scaling(self):
        comp = scheduling_lps(10)[1]
        assert comp._scaled is None
        first = solve_lp(comp)
        scaled = comp._scaled
        again = solve_lp(comp, basis=first.basis)
        assert comp._scaled is scaled and not scaled[2].flags.writeable
        assert again.objective == pytest.approx(first.objective, rel=1e-12)
        # a program with another right-hand side starts with an empty cache
        assert dataclasses.replace(comp, b=comp.b * 0.9)._scaled is None

    def test_copy_with_one_rhs_shares_the_compiled_arrays(self):
        lp = random_lp(np.random.default_rng(5))
        comp = lp.compile()
        copy = lp.with_rhs("r0", 7.0, comp)
        shared = copy.compile()
        assert shared.A is comp.A and shared._scaled is _scaling(comp)
        assert shared.b[0] == 7.0 and np.array_equal(shared.b[1:], comp.b[1:])
        # the original keeps its right-hand side and its variables; a copy
        # changed further compiles from its own rows
        copy.add_var("extra")
        assert lp.compile().b[0] == comp.b[0] and "extra" not in lp.var_names
        assert copy.compile().A.shape == (comp.A.shape[0], comp.A.shape[1] + 1)
        with pytest.raises(ValueError):
            lp.with_rhs("r0", INF, comp)
        # without the original's CompiledLP the copy compiles from its rows
        del comp, shared
        own = lp.with_rhs("r0", 7.0, lp.compile()).compile()
        assert own._scaled is None and own.b[0] == 7.0

    def test_compiled_matrix_is_read_only(self):
        # the cache derives from A, so A cannot change under it
        comp = scheduling_lps(10)[1]
        solve_lp(comp)
        with pytest.raises(ValueError):
            comp.A[0, 0] = 1.0

    def test_max_violation_matches_row_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            comp = random_lp(rng).compile()
            x = rng.uniform(-1.0, 13.0, len(comp.var_names))
            assert max_violation(comp, x) == max_violation_loop(comp, x)


def same_solve(a, b):
    """Whether two solutions agree bit for bit, refactor counts apart."""
    return (
        a.status == b.status
        and repr(a.objective) == repr(b.objective)
        and a.iterations == b.iterations
        and a.basis.tobytes() == b.basis.tobytes()
        and [(n, repr(v)) for n, v in a.values.items()]
        == [(n, repr(v)) for n, v in b.values.items()]
    )


class TestFactorCache:
    """A CompiledLP keeps the last basis inverse a solve computed, keyed by
    the basis in position order; a refactor at that basis adopts it."""

    def test_warm_solve_at_the_factored_basis_computes_no_inverse(self):
        lp = scheduling_programs(10)[1]
        comp = lp.compile()
        first = solve_lp(comp)
        # from its own final basis: no pivot, and the cache now holds that basis
        again = solve_lp(comp, basis=first.basis)
        assert again.iterations == 0 and _scaling(comp)[4][0] is not None
        # a lower budget, on a copy that shares comp's cache
        energy = comp.b[comp.row_names.index("energy")]
        lower = lp.with_rhs("energy", 0.7 * energy, comp).compile()
        assert _scaling(lower) is _scaling(comp)
        warm = solve_lp(lower, basis=first.basis)
        empty = dataclasses.replace(lower)
        assert empty._scaled is None
        fresh = solve_lp(empty, basis=first.basis)
        assert warm.optimal and warm.iterations > 0
        assert warm.refactors == 0 and fresh.refactors == 1
        assert same_solve(warm, fresh)

    def test_same_basic_set_in_another_order_is_factored_anew(self):
        comp = scheduling_lps(10)[1]
        vstat = solve_lp(comp).basis
        A, b, c, lo, hi = equilibrated(comp)
        factor = [None]
        core = _Simplex(A, b, comp.senses, c, lo, hi, factor)
        core._adopt(vstat)
        assert core.refactors == 1 and factor[0][1] is core.B0_inv
        assert np.count_nonzero(core.basis < core.nv) > 1
        core.basis = core.basis[::-1].copy()
        core._refactor()
        assert core.refactors == 2 and factor[0][1] is core.B0_inv
        assert_inverse_matches(core)
        # that order once more adopts the inverse just computed
        core._refactor()
        assert core.refactors == 2
        assert_inverse_matches(core)

    def test_branch_and_bound_matches_a_run_without_the_cache(self, monkeypatch):
        # criterion 5's instance n = 5, K = 1, seed 510
        fs = FrequencySet((DEFAULT_FREQUENCY_SET.freqs[0], DEFAULT_FREQUENCY_SET.freqs[4]))
        platform = sweep.PlatformConfig(DEFAULT_POWER_MODEL, fs, 1)
        g = generate_random_graph(
            GeneratorParams(n_tasks=5, mandatory_regime="man_mixed", seed=510), f_max=fs.f_max
        )
        gn = normalize_source(g)
        eps = 0.85 * sweep.epsilon_star(g, platform)[0]
        prop = sweep.run_proposed(g, platform, eps)

        def run(empty_cache):
            refactors = []

            def solve(comp, **kwargs):
                sol = solve_lp(dataclasses.replace(comp) if empty_cache else comp, **kwargs)
                refactors.append(sol.refactors)
                return sol

            model = build_milp(gn, 1, fs, DEFAULT_POWER_MODEL, eps, gn.deadline)
            seed_values = encode_solution(model, prop.assignment, prop.schedule)
            with monkeypatch.context() as mp:
                mp.setattr(milp, "solve_lp", solve)
                res, _, _ = solve_branch_and_bound(model, time_limit=240.0, seed_values=seed_values)
            assert res.status == "optimal"
            return res, refactors

        cached, computed = run(False)
        empty, every = run(True)
        assert (cached.nodes, cached.lp_iterations) == (empty.nodes, empty.lp_iterations)
        assert repr(cached.objective) == repr(empty.objective)
        assert len(computed) == len(every) and sum(computed) < sum(every)


class TestEquilibrate:
    """_scaling reads only the nonzeros; the dense reference reads the whole
    matrix. Both must give the same scales, scaled matrix and row scales,
    bit for bit."""

    @staticmethod
    def assert_matches_dense(comp):
        got, want = _scaling(comp), scaling_dense(comp.A)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [10, 38])
    def test_scheduling_lps_match_dense_reference(self, n):
        for comp in scheduling_lps(n):
            self.assert_matches_dense(comp)

    def test_random_sparse_matrices_match_dense_reference(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            nr, nc = (int(k) for k in rng.integers(0, 40, 2))
            density = rng.uniform(0.005, 0.5)
            # magnitudes over many decades, both signs, empty rows and columns
            values = rng.lognormal(0.0, 8.0, (nr, nc)) * rng.choice([-1.0, 1.0], (nr, nc))
            A = np.where(rng.random((nr, nc)) < density, values, 0.0)
            self.assert_matches_dense(
                CompiledLP(
                    var_names=(), var_index={}, row_names=(), A=A, b=np.zeros(nr),
                    senses=(), c=np.zeros(nc), lo=np.zeros(nc), hi=np.zeros(nc),
                    maximize=False, constant=0.0,
                )
            )
