"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy 20-graph sweep bundle is computed once and shared by the criteria
that read different slices of it.
"""

import dataclasses
import random
import statistics
import time

import numpy as np
import pytest

from conftest import EXACT_CASES, make_graph, record_criterion
from impsched.energy import (
    cheapest_frequency,
    FrequencySet,
    DEFAULT_FREQUENCY_SET,
    DEFAULT_POWER_MODEL,
    fit_power_model,
    power_at,
)
from impsched.imprecision import forward_pass, imp_label, reduction_objective
from impsched.lp import max_violation, solve_lp
from impsched.milp import build_milp, encode_solution, solve_branch_and_bound
from impsched.sweep import (
    InfeasibleError,
    PlatformConfig,
    SweepConfig,
    epsilon_star,
    default_platform,
    run_baseline,
    run_milp,
    run_proposed,
    sweep_graph,
    sweep_ratios,
)
from impsched.taskgraph import (
    GeneratorParams,
    generate_random_graph,
    normalize_source,
)
from impsched.verify import WorkloadContract, verify_schedule
from oracles import (
    baseline_contract_reference,
    brute_force_labeling_min,
    dual_certificate_ok,
    exhaustive_best_qos,
)
from test_lp import random_lp, scipy_reference

REFERENCE_POINTS = [
    (1.01e9, 0.4309),
    (1.26e9, 0.5568),
    (1.53e9, 0.7107),
    (1.81e9, 0.8965),
    (2.1e9, 1.1182),
]
REFERENCE_DYNAMIC_MW = [430.9, 556.8, 710.7, 896.5, 1118.2]

SUITE_SIZES = [10, 14, 19, 27, 38]
SUITE_REGIMES = ["man_low", "man_med", "man_high", "man_mixed"]


@pytest.fixture(scope="module")
def suite20():
    """20 graphs spanning n in [10, 40] and all four regimes, with their
    anchor energies, ratio-1.0 outcomes (timed separately), and full
    proposed/baseline sweeps."""
    platform = default_platform()
    cfg = SweepConfig(methods=("proposed", "baseline"))
    bundle = []
    ceiling_elapsed = 0.0
    for ri, regime in enumerate(SUITE_REGIMES):
        for si, n in enumerate(SUITE_SIZES):
            seed = 100 + 10 * ri + si
            g = generate_random_graph(
                GeneratorParams(n_tasks=n, mandatory_regime=regime, seed=seed)
            )
            gid = f"{regime}_n{n}_s{seed}"
            t0 = time.monotonic()
            star, _, _ = epsilon_star(g, platform)
            top = run_proposed(g, platform, star)
            ceiling_elapsed += time.monotonic() - t0
            rows = sweep_graph(gid, g, platform, cfg, eps_star_value=star)
            bundle.append(
                {
                    "id": gid,
                    "graph": g,
                    "regime": regime,
                    "star": star,
                    "at_star": top,
                    "rows": rows,
                }
            )
    return {"platform": platform, "graphs": bundle, "ceiling_elapsed": ceiling_elapsed}


def test_criterion_1_power_model_fidelity():
    t0 = time.monotonic()
    ok = True
    detail = []
    for (f, _), expect_mw in zip(REFERENCE_POINTS, REFERENCE_DYNAMIC_MW):
        got_mw = (power_at(DEFAULT_POWER_MODEL, f) - DEFAULT_POWER_MODEL.delta) * 1e3
        if abs(got_mw - expect_mw) / expect_mw >= 0.01:
            ok = False
            detail.append(f"{f / 1e9} GHz: {got_mw:.1f} vs {expect_mw}")
    fit = fit_power_model(REFERENCE_POINTS, delta=0.276)
    alpha, beta, gamma, _ = fit.model.to_ghz_mw()
    for name, got, want in (
        ("alpha", alpha, 23.8729),
        ("beta", beta, 3.2941),
        ("gamma", gamma, 401.6654),
    ):
        if abs(got - want) / want >= 0.02:
            ok = False
            detail.append(f"{name}: {got:.4f} vs {want}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    record_criterion(
        1, "power-model fidelity", ok, f"{elapsed:.2f}s" + "; ".join(detail)
    )
    assert ok, detail


def test_criterion_2_qos_ceiling(suite20):
    failures = []
    for item in suite20["graphs"]:
        out = item["at_star"]
        if not out.feasible or out.qos < 1.0 - 1e-6:
            failures.append(f"{item['id']}: qos={out.qos}")
    elapsed = suite20["ceiling_elapsed"]
    ok = not failures and elapsed < 60.0
    record_criterion(
        2,
        "QoS ceiling at eps*",
        ok,
        f"20 graphs, {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert ok, failures


def test_criterion_3_monotone_sweep(suite20):
    violations = []
    for item in suite20["graphs"]:
        qs = [
            r.qos
            for r in item["rows"]
            if r.method == "proposed" and r.feasible
        ]
        for a, b in zip(qs, qs[1:]):
            if b > a + 1e-7:
                violations.append(f"{item['id']}: {a} -> {b}")
    ok = not violations
    record_criterion(3, "monotone proposed sweep", ok, f"{len(violations)} violations")
    assert ok, violations


@pytest.fixture(scope="module")
def small30():
    """30 instances for the heuristic-vs-optimal comparison (n <= 10, K = 2,
    2-3 frequencies, mixed mandatory shares)."""
    f = DEFAULT_FREQUENCY_SET.freqs
    sets = [FrequencySet((f[0], f[4])), FrequencySet((f[0], f[2], f[4]))]
    out = []
    for i in range(30):
        n = 6 + i % 5
        fs = sets[i % 2]
        platform = PlatformConfig(DEFAULT_POWER_MODEL, fs, 2)
        g = generate_random_graph(
            GeneratorParams(n_tasks=n, mandatory_regime="man_mixed", seed=300 + i),
            f_max=fs.f_max,
        )
        out.append((f"small_{i}", g, platform))
    return out


def test_criterion_4_heuristic_vs_optimal(small30):
    t0 = time.monotonic()
    budget = 870.0
    gaps = {}  # (graph, ratio) -> exact QoS minus the heuristic's
    failures = []
    unproven = []  # points the 2 s limit stops, re-solved once below
    points = 0

    def compare(gid, ratio, prop, milp):
        if not milp.feasible or milp.qos < prop.qos - 1e-6:
            failures.append(f"{gid}@{ratio}: milp={milp.qos} prop={prop.qos}")
        else:
            gaps[gid, ratio] = milp.qos - prop.qos
            if milp.nodes > 1 and prop.runtime >= milp.runtime:
                failures.append(f"{gid}@{ratio}: proposed not faster than milp")

    for gid, g, platform in small30:
        star, _, _ = epsilon_star(g, platform)
        for ratio in sweep_ratios(0.05):
            prop = run_proposed(g, platform, ratio * star)
            if not prop.feasible:
                break
            points += 1
            milp = run_milp(g, platform, ratio * star, time_limit=2.0)
            if milp.status == "unknown":
                failures.append(f"{gid}@{ratio}: milp ended unknown")
            elif milp.status != "optimal":
                unproven.append((gid, g, platform, ratio * star, ratio, prop))
            compare(gid, ratio, prop, milp)
    proven_fast = points - len(unproven)
    if proven_fast < points - 1:
        failures.append(f"{proven_fast}/{points} proven in 2 s")
    proven = proven_fast
    for gid, g, platform, eps, ratio, prop in unproven:
        remaining = budget - (time.monotonic() - t0)
        milp = run_milp(g, platform, eps, time_limit=min(30.0, remaining))
        if milp.status == "optimal":
            proven += 1
        else:
            failures.append(f"{gid}@{ratio}: milp {milp.status} after a re-solve")
        compare(gid, ratio, prop, milp)
    elapsed = time.monotonic() - t0
    mean_gap = statistics.mean(gaps.values()) if gaps else 0.0
    max_gap = max(gaps.values()) if gaps else 0.0
    ok = not failures and elapsed < 900.0
    record_criterion(
        4,
        "heuristic vs optimal direction",
        ok,
        f"{points} points, mean gap {mean_gap:.4%}, max gap {max_gap:.4%}, "
        f"{proven_fast}/{points} proven optimal in 2 s, {proven}/{points} after "
        f"re-solving the rest, {elapsed:.0f}s",
    )
    assert ok, failures


def test_exact_reference_proves_every_point_under_a_binding_deadline(small30):
    # criterion 4's graphs with their deadlines cut to 0.55: the full-load
    # schedule misses T_d on some of them, so the LP decides those proposed
    # points, and the exact reference must still prove each point optimal.
    # Graphs whose precise loads no longer fit (no eps*) have no point
    failures = []
    points = lp_decided = 0
    for gid, g, platform in small30:
        g = g.with_deadline(0.55 * g.deadline)
        try:
            star, _, _ = epsilon_star(g, platform)
        except InfeasibleError:
            continue
        for ratio in sweep_ratios(0.05):
            prop = run_proposed(g, platform, ratio * star)
            if not prop.feasible:
                break
            points += 1
            lp_decided += prop.decided_by == "lp"
            milp = run_milp(g, platform, ratio * star, time_limit=5.0)
            if milp.status != "optimal" or milp.qos < prop.qos - 1e-6:
                failures.append(f"{gid}@{ratio}: milp {milp.status} {milp.qos}, prop {prop.qos}")
    assert not failures, failures
    assert points > 100 and lp_decided > 0


def test_criterion_5_exact_solver_soundness():
    t0 = time.monotonic()
    f = DEFAULT_FREQUENCY_SET.freqs
    fs = FrequencySet((f[0], f[4]))
    failures = []
    for n, procs, seed, ratio in EXACT_CASES:
        platform = PlatformConfig(DEFAULT_POWER_MODEL, fs, procs)
        g = generate_random_graph(
            GeneratorParams(n_tasks=n, mandatory_regime="man_mixed", seed=500 + seed),
            f_max=fs.f_max,
        )
        gn = normalize_source(g)
        star, _, _ = epsilon_star(g, platform)
        eps = ratio * star
        ref = exhaustive_best_qos(gn, procs, DEFAULT_POWER_MODEL, fs, eps, gn.deadline)
        model = build_milp(gn, procs, fs, DEFAULT_POWER_MODEL, eps, gn.deadline)
        prop = run_proposed(g, platform, eps)
        seed_values = (
            encode_solution(model, prop.assignment, prop.schedule)
            if prop.feasible
            else None
        )
        res, sched, _ = solve_branch_and_bound(
            model, time_limit=240.0, seed_values=seed_values
        )
        tag = f"n{n}K{procs}s{seed}"
        if ref is None:
            if res.status != "infeasible":
                failures.append(f"{tag}: oracle infeasible, bnb {res.status}")
            continue
        if res.status != "optimal":
            failures.append(f"{tag}: bnb did not prove optimality ({res.status})")
        elif abs(res.objective - ref) > 1e-4 * max(1.0, abs(ref)):
            failures.append(f"{tag}: bnb {res.objective} vs oracle {ref}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    record_criterion(
        5, "exact solver matches exhaustive oracle", ok, f"15 instances, {elapsed:.0f}s"
    )
    assert ok, failures


def _random_fan_out(rng):
    b = rng.randint(1, 12)
    tasks = [("p", rng.randint(1, 100), rng.randint(2, 200), rng.randint(0, 50), 0.5)]
    edges = []
    for i in range(b):
        tasks.append((f"c{i:02d}", rng.randint(1, 100), rng.randint(2, 60),
                      rng.randint(0, 60), 0.5))
        edges.append(("p", f"c{i:02d}", 0.0))
    return make_graph(tasks, edges)


def _random_fan_in(rng):
    b = rng.randint(2, 12)
    tasks = [("z", rng.randint(1, 100), rng.randint(2, 60), rng.randint(0, 400), 0.5)]
    edges = []
    for i in range(b):
        tasks.append((f"p{i:02d}", rng.randint(1, 100), rng.randint(2, 80),
                      rng.randint(0, 40), 0.5))
        edges.append((f"p{i:02d}", "z", 0.0))
    return normalize_source(make_graph(tasks, edges))


def test_criterion_6_base_case_optimality():
    t0 = time.monotonic()
    rng = random.Random(77)
    failures = []
    for i in range(100):
        g = _random_fan_out(rng)
        lab, _ = imp_label(g)
        if reduction_objective(g, lab) != brute_force_labeling_min(g):
            failures.append(f"fan-out {i}")
    for i in range(100):
        g = _random_fan_in(rng)
        lab, _ = imp_label(g)
        if reduction_objective(g, lab) != brute_force_labeling_min(g):
            failures.append(f"fan-in {i}")
    gaps = []
    for i in range(50):
        g = normalize_source(
            generate_random_graph(
                GeneratorParams(n_tasks=rng.randint(2, 13), seed=rng.randint(0, 10_000))
            )
        )
        fwd_obj = reduction_objective(g, forward_pass(g))
        lab, _ = imp_label(g)
        obj = reduction_objective(g, lab)
        best = brute_force_labeling_min(g)
        if obj > fwd_obj or obj < best:
            failures.append(f"arbitrary {i}: {best} <= {obj} <= {fwd_obj} violated")
        gaps.append((obj - best) / best if best else 0.0)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    record_criterion(
        6,
        "labeling base-case optimality",
        ok,
        f"200 base cases exact; arbitrary mean gap {statistics.mean(gaps):.4%}, "
        f"max {max(gaps):.4%}, {elapsed:.0f}s",
    )
    assert ok, failures


def test_criterion_7_proposed_vs_baseline(suite20):
    failures = []
    for item in suite20["graphs"]:
        by = {}
        for r in item["rows"]:
            by.setdefault(r.method, {})[r.eps_ratio] = r
        prop = by.get("proposed", {})
        base = by.get("baseline", {})
        for ratio, pr in prop.items():
            br = base.get(ratio)
            if br is None or not (pr.feasible and br.feasible):
                continue
            if pr.qos < br.qos - 1e-6:
                failures.append(f"{item['id']}@{ratio}: {pr.qos} < {br.qos}")
        min_prop = min((r.eps_ratio for r in prop.values() if r.feasible), default=None)
        min_base = min((r.eps_ratio for r in base.values() if r.feasible), default=None)
        if min_prop is None or (min_base is not None and min_prop > min_base + 1e-9):
            failures.append(f"{item['id']}: cliff {min_prop} vs {min_base}")
    ok = not failures
    record_criterion(7, "proposed dominates baseline", ok, f"{len(failures)} failures")
    assert ok, failures


def test_criterion_8_deep_budget_feasible(suite20):
    # where the full loads meet the deadline, a proposed row is feasible
    # exactly when its budget covers the fixed loads at c*: the exact cliff,
    # c* x sum of fixed loads / eps*, and the lowest feasible grid ratio is
    # the first grid ratio at or above it
    _, c_star = cheapest_frequency(DEFAULT_POWER_MODEL, DEFAULT_FREQUENCY_SET)
    grid = list(sweep_ratios(SweepConfig().resolution))
    best = cliff = None
    failures = []
    for item in suite20["graphs"]:
        if item["regime"] != "man_low":
            continue
        gn = normalize_source(item["graph"])
        _, wl = imp_label(gn)
        fixed = sum(wl.fixed.values())
        exact = c_star * fixed / item["star"]
        cliff = exact if cliff is None else min(cliff, exact)
        feas = [
            r.eps_ratio
            for r in item["rows"]
            if r.method == "proposed" and r.feasible
        ]
        low = min(feas, default=None)
        if low != min((r for r in grid if r >= exact), default=None):
            failures.append(f"{item['id']}: lowest feasible {low}, exact cliff {exact:.6f}")
        if low is not None:
            best = low if best is None else min(best, low)
    ok = not failures and best is not None and best <= 0.55
    record_criterion(
        8,
        "deep-budget feasibility on man_low",
        ok,
        f"minimum feasible ratio {best}, smallest exact cliff {cliff:.4f}",
    )
    assert ok, (best, failures)


def test_criterion_9_verifier_independence(suite20):
    platform = suite20["platform"]
    verified = 0
    failures = []
    schedules = []
    for item in suite20["graphs"][:5]:
        g = item["graph"]
        gn = normalize_source(g)
        star = item["star"]
        for ratio in (1.0, 0.9, 0.8):
            for runner, make_contract in (
                (run_proposed, None),
                (run_baseline, lambda gn=gn: baseline_contract_reference(gn)),
            ):
                out = runner(g, platform, ratio * star)
                if not out.feasible:
                    continue
                if runner is run_proposed:
                    from impsched.imprecision import imp_label as _il

                    _, wl = _il(gn)
                    contract = WorkloadContract.from_labeling(gn, wl)
                else:
                    contract = make_contract()
                report = verify_schedule(
                    gn,
                    out.schedule,
                    out.assignment,
                    platform.power,
                    platform.freqs,
                    ratio * star,
                    gn.deadline,
                    contract,
                )
                verified += 1
                if not report.ok:
                    failures.append(f"{item['id']}@{ratio} {out.method}")
                if runner is run_proposed and not schedules:
                    schedules.append((gn, out, ratio * star, contract))

    # twelve injected faults, each of which must trip its intended check
    gn, out, eps_max, contract = schedules[0]
    sched = out.schedule

    def check(mutated, expect, eps=eps_max):
        report = verify_schedule(
            gn, mutated, out.assignment, platform.power, platform.freqs,
            eps, gn.deadline, contract,
        )
        return expect in {c.name for c in report.failed()}

    edge = gn.edges[0]
    u_any = next(iter(sched.start))
    exit0 = gn.exits()[0]
    faults = []
    s1 = dict(sched.start); s1[edge.dst] = max(0.0, s1[edge.dst] - 1e-3)
    faults.append((dataclasses.replace(sched, start=s1), "precedence", None))
    s2 = dict(sched.start); s2[exit0] = gn.deadline
    faults.append((dataclasses.replace(sched, start=s2), "deadline", None))
    c1 = dict(sched.cycles); c1[next(iter(c1))] = -10.0
    faults.append((dataclasses.replace(sched, cycles=c1), "cycles-nonnegative", None))
    c2 = dict(sched.cycles)
    c2[(exit0, 0)] = c2.get((exit0, 0), 0.0) + 3 * gn.task(exit0).optional
    faults.append((dataclasses.replace(sched, cycles=c2), "workload-window", None))
    c3 = dict(sched.cycles)
    some_nonexit = next(u for u in gn.tasks if u not in set(gn.exits()))
    c3[(some_nonexit, 0)] = c3.get((some_nonexit, 0), 0.0) - gn.task(some_nonexit).mandatory
    faults.append((dataclasses.replace(sched, cycles=c3), "workload-window", None))
    d1 = dict(sched.durations); d1[u_any] = d1[u_any] * 3 + 1e-3
    faults.append((dataclasses.replace(sched, durations=d1), "duration-consistency", None))
    faults.append((dataclasses.replace(sched, energy=sched.energy * 0.5),
                   "energy-accounting", None))
    faults.append((sched, "energy-budget", sched.energy * 0.99))
    faults.append((dataclasses.replace(sched, qos=max(0.0, sched.qos - 0.05)),
                   "qos-accounting", None))
    o1 = dict(sched.opt_cycles)
    o1[exit0] = 0.0 if o1[exit0] > 1 else float(gn.task(exit0).optional)
    faults.append((dataclasses.replace(sched, opt_cycles=o1), "optional-accounting", None))
    # two faults below an absolute 1e-6 on SI values: every duration 0.9 us
    # long, and a budget 0.9 uJ short of the energy used
    d2 = {u: d + 0.9e-6 for u, d in sched.durations.items()}
    faults.append((dataclasses.replace(sched, durations=d2), "duration-consistency", None))
    faults.append((sched, "energy-budget", sched.energy - 0.9e-6))

    injected_ok = 0
    for mutated, expect, eps in faults:
        if check(mutated, expect, eps if eps is not None else eps_max):
            injected_ok += 1
        else:
            failures.append(f"fault not caught: {expect}")
    ok = not failures and injected_ok == len(faults) == 12
    record_criterion(
        9,
        "verifier soundness and fault detection",
        ok,
        f"{verified} schedules verified, {injected_ok}/{len(faults)} faults caught",
    )
    assert ok, failures


def test_criterion_10_lp_solver_correctness():
    rng = np.random.default_rng(1010)
    failures = []
    optimal_count = 0
    for i in range(200):
        lp = random_lp(rng)
        comp = lp.compile()
        sol = solve_lp(comp)
        ref_status, ref_obj = scipy_reference(lp)
        if sol.status != ref_status:
            failures.append(f"lp {i}: status {sol.status} vs {ref_status}")
            continue
        if not sol.optimal:
            continue
        optimal_count += 1
        x = np.array([sol.values[n] for n in comp.var_names])
        if max_violation(comp, x) > 1e-6:
            failures.append(f"lp {i}: primal violation")
        okc, msg = dual_certificate_ok(comp, sol, tol=1e-6)
        if not okc:
            failures.append(f"lp {i}: certificate ({msg})")
        if abs(sol.objective - ref_obj) > 1e-6 * max(1.0, abs(ref_obj)):
            failures.append(f"lp {i}: objective {sol.objective} vs {ref_obj}")
    ok = not failures and optimal_count >= 100
    record_criterion(
        10,
        "LP solver certificates",
        ok,
        f"200 instances, {optimal_count} optimal, {len(failures)} failures",
    )
    assert ok, failures
