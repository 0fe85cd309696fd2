import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from impsched.schedlp import Schedule
from impsched.sweep import (
    default_platform,
    epsilon_star,
    run_baseline,
    run_milp,
    run_proposed,
)
from impsched.taskgraph import GeneratorParams, generate_random_graph, normalize_source
from impsched.verify import WorkloadContract, verify_schedule
from impsched.imprecision import imp_label, initial_workloads
from oracles import baseline_contract_reference, verify_reference


@pytest.fixture(scope="module")
def proposed_case():
    platform = default_platform()
    g = generate_random_graph(GeneratorParams(n_tasks=12, seed=31))
    star, _, _ = epsilon_star(g, platform)
    out = run_proposed(g, platform, 0.9 * star)
    assert out.feasible
    gn = normalize_source(g)
    _, wl = imp_label(gn)
    contract = WorkloadContract.from_labeling(gn, wl)
    return platform, gn, out, 0.9 * star, contract


def reverify(case, sched, eps=None):
    platform, gn, out, eps_max, contract = case
    return verify_schedule(
        gn,
        sched,
        out.assignment,
        platform.power,
        platform.freqs,
        eps if eps is not None else eps_max,
        gn.deadline,
        contract,
    )


def failing(report):
    return {c.name for c in report.failed()}


class TestSoundness:
    def test_optimal_schedule_passes(self, proposed_case):
        report = reverify(proposed_case, proposed_case[2].schedule)
        assert report.ok, report.format()
        for c in report.checks:
            assert c.margin >= -1e-6

    def test_energy_margin_is_budget_minus_use(self, proposed_case):
        platform, gn, out, eps_max, contract = proposed_case
        report = reverify(proposed_case, out.schedule)
        margin = {c.name: c.margin for c in report.checks}["energy-budget"]
        # relative to the budget, whatever unit the energy is in
        expect = (eps_max - out.schedule.energy) / eps_max
        assert margin == pytest.approx(expect, rel=1e-9)

    def test_report_format_mentions_every_check(self, proposed_case):
        report = reverify(proposed_case, proposed_case[2].schedule)
        text = report.format()
        assert "precedence" in text and "energy-budget" in text
        assert text.strip().endswith("PASS")


class TestFaultInjection:
    def test_perturbed_start_breaks_precedence(self, proposed_case):
        _, gn, out, _, _ = proposed_case
        sched = out.schedule
        edge = gn.edges[0]
        start = dict(sched.start)
        start[edge.dst] = max(0.0, start[edge.dst] - 1e-3)
        bad = dataclasses.replace(sched, start=start)
        report = reverify(proposed_case, bad)
        assert "precedence" in failing(report) or "processor-non-overlap" in failing(report)

    def test_start_past_deadline(self, proposed_case):
        _, gn, out, _, _ = proposed_case
        sched = out.schedule
        u = gn.exits()[0]
        start = dict(sched.start)
        start[u] = gn.deadline
        bad = dataclasses.replace(sched, start=start)
        assert "deadline" in failing(reverify(proposed_case, bad))

    def test_negative_cycles(self, proposed_case):
        _, gn, out, _, _ = proposed_case
        sched = out.schedule
        cycles = dict(sched.cycles)
        key = next(iter(cycles))
        cycles[key] = -5.0
        bad = dataclasses.replace(sched, cycles=cycles)
        assert "cycles-nonnegative" in failing(reverify(proposed_case, bad))

    def test_extra_cycles_break_window(self, proposed_case):
        _, gn, out, _, _ = proposed_case
        sched = out.schedule
        cycles = dict(sched.cycles)
        u = gn.exits()[0]
        cycles[(u, 0)] = cycles.get((u, 0), 0.0) + 2 * gn.task(u).optional
        bad = dataclasses.replace(sched, cycles=cycles)
        assert "workload-window" in failing(reverify(proposed_case, bad))

    def test_window_names_the_worst_task(self, proposed_case):
        # a large overrun on one task, then a small shortfall on a later one
        _, gn, out, _, contract = proposed_case
        first, later = [u for u in gn.tasks if u not in set(gn.exits())][:2]
        cycles = dict(out.schedule.cycles)
        for u, share in ((first, 0.5), (later, -1e-4)):
            key = next(k for k in cycles if k[0] == u and cycles[k] > 0)
            cycles[key] += share * contract.bounds[u][1]
        report = reverify(proposed_case, dataclasses.replace(out.schedule, cycles=cycles))
        (window,) = [c for c in report.failed() if c.name == "workload-window"]
        assert window.detail.startswith(f"{first}: ") and " > " in window.detail
        assert window.margin == pytest.approx(-0.5, rel=1e-9)

    def test_microsecond_duration_error(self, proposed_case):
        # 0.9 us on every task: below an absolute 1e-6, about 0.1% of a duration
        _, _, out, _, _ = proposed_case
        durations = {u: d + 0.9e-6 for u, d in out.schedule.durations.items()}
        bad = dataclasses.replace(out.schedule, durations=durations)
        assert "duration-consistency" in failing(reverify(proposed_case, bad))

    def test_microjoule_budget_overrun(self, proposed_case):
        _, _, out, _, _ = proposed_case
        report = reverify(proposed_case, out.schedule, eps=out.schedule.energy - 0.9e-6)
        assert failing(report) == {"energy-budget"}

    def test_wrong_energy_total(self, proposed_case):
        _, _, out, _, _ = proposed_case
        bad = dataclasses.replace(out.schedule, energy=out.schedule.energy * 0.5)
        assert "energy-accounting" in failing(reverify(proposed_case, bad))

    def test_budget_overrun(self, proposed_case):
        _, _, out, _, _ = proposed_case
        report = reverify(proposed_case, out.schedule, eps=out.schedule.energy * 0.99)
        assert "energy-budget" in failing(report)

    def test_wrong_qos(self, proposed_case):
        _, _, out, _, _ = proposed_case
        bad = dataclasses.replace(out.schedule, qos=min(1.0, out.schedule.qos * 0.9 + 1e-3))
        assert "qos-accounting" in failing(reverify(proposed_case, bad))

    def test_wrong_duration(self, proposed_case):
        _, gn, out, _, _ = proposed_case
        durations = dict(out.schedule.durations)
        u = next(iter(durations))
        durations[u] *= 2.0
        bad = dataclasses.replace(out.schedule, durations=durations)
        assert "duration-consistency" in failing(reverify(proposed_case, bad))

    def test_nan_start(self, proposed_case):
        # every ordering check compares with '<', which is False for nan
        _, gn, out, _, _ = proposed_case
        start = dict(out.schedule.start)
        start["t01"] = float("nan")
        report = reverify(proposed_case, dataclasses.replace(out.schedule, start=start))
        assert not report.ok
        assert failing(report) == {"finite-values"}

    def test_infinite_energy(self, proposed_case):
        _, _, out, _, _ = proposed_case
        report = reverify(proposed_case, dataclasses.replace(out.schedule, energy=float("inf")))
        assert not report.ok
        assert "finite-values" in failing(report)


class TestIdleAudit:
    def test_idle_energy_reported_not_enforced(self, proposed_case):
        from impsched.verify import idle_static_energy

        platform, gn, out, eps_max, contract = proposed_case
        idle = idle_static_energy(out.schedule, out.assignment, platform.power)
        assert idle >= 0.0
        busy = sum(out.schedule.durations.values())
        bound = platform.power.delta * (
            out.schedule.makespan * platform.procs - busy
        )
        assert idle == pytest.approx(bound, rel=1e-9)
        # the budget check is untouched by the idle figure
        report = reverify(proposed_case, out.schedule)
        assert report.ok


class TestContracts:
    def test_baseline_contract(self):
        platform = default_platform()
        g = generate_random_graph(GeneratorParams(n_tasks=10, seed=17))
        star, _, _ = epsilon_star(g, platform)
        out = run_baseline(g, platform, 0.95 * star)
        assert out.feasible
        gn = normalize_source(g)
        report = verify_schedule(
            gn,
            out.schedule,
            out.assignment,
            platform.power,
            platform.freqs,
            0.95 * star,
            gn.deadline,
            baseline_contract_reference(gn),
        )
        assert report.ok, report.format()

    def test_eps_star_contract_pins_every_task_to_its_initial_workload(self, chain3):
        contract = WorkloadContract.from_labeling(chain3, initial_workloads(chain3))
        assert contract == WorkloadContract(
            {"a": (150.0, 150.0), "b": (280.0, 280.0), "c": (210.0, 210.0)},
            {"a": 100.0, "b": 200.0, "c": 150.0},
        )

    def test_milp_contract_recomputes_errors(self):
        # schedule with a discarded parent: the child window must shift up
        from conftest import make_graph

        g = make_graph(
            [("a", 100, 50, 0, 0.5), ("b", 100, 40, 30, 0.5)],
            [("a", "b", 0.0)],
        )
        sched = Schedule(
            start={"a": 0.0, "b": 1.0},
            cycles={("a", 0): 100.0, ("b", 0): 130.0},
            opt_cycles={"a": 0.0, "b": 0.0},
            durations={"a": 0.0, "b": 0.0},
            energy=0.0,
            qos=0.5,
            makespan=1.0,
        )
        contract = WorkloadContract.from_milp_schedule(g, sched)
        assert contract.bounds["b"] == (130.0, 170.0)
        assert contract.bounds["a"] == (100.0, 150.0)


# --- the one-pass verifier against its per-element reference -----------------

@pytest.fixture(scope="module")
def schedules():
    """A proposed, a baseline and a MILP schedule, each with its budget and
    contract."""
    platform = default_platform()
    g = generate_random_graph(GeneratorParams(n_tasks=12, seed=31))
    gn = normalize_source(g)
    star, _, _ = epsilon_star(g, platform)
    _, wl = imp_label(gn)
    cases = [
        (gn, run_proposed(g, platform, 0.9 * star), 0.9 * star,
         WorkloadContract.from_labeling(gn, wl)),
        (gn, run_baseline(g, platform, star), star,
         baseline_contract_reference(gn)),
    ]
    g = generate_random_graph(GeneratorParams(n_tasks=5, seed=8))
    gn = normalize_source(g)
    eps = 0.9 * epsilon_star(g, platform)[0]
    out = run_milp(g, platform, eps, time_limit=20.0)
    cases.append((gn, out, eps, WorkloadContract.from_milp_schedule(gn, out.schedule)))
    assert all(out.feasible for _, out, _, _ in cases)
    return platform, cases


# relative steps on both sides of the tolerance, and large ones
STEPS = st.sampled_from(
    [0.0, 1e-12, -1e-12, 5e-9, -5e-9, 2e-8, -2e-8, 1e-6, -1e-6, 1e-3, -1e-3, 0.5, -1.5]
)
ODD = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


def same_report(fast, ref):
    assert [c.name for c in fast.checks] == [c.name for c in ref.checks]
    for a, b in zip(fast.checks, ref.checks):
        # the detail names the worst task (or edge, or processor)
        assert (a.ok, a.detail) == (b.ok, b.detail), (a, b)
        both_nan = math.isnan(a.margin) and math.isnan(b.margin)
        assert both_nan or a.margin == b.margin or math.isclose(
            a.margin, b.margin, rel_tol=1e-12
        ), (a, b)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_perturbed_schedules(self, schedules, data):
        platform, cases = schedules
        gn, out, eps, contract = data.draw(st.sampled_from(cases))
        sched = out.schedule
        scale = {
            "start": gn.deadline,
            "durations": gn.deadline,
            "cycles": max(hi for _, hi in contract.bounds.values()),
            "opt_cycles": max(hi for _, hi in contract.bounds.values()),
            "energy": eps,
            "qos": 1.0,
            "eps": eps,
        }
        parts = {k: dict(getattr(sched, k)) for k in ("start", "durations", "cycles", "opt_cycles")}
        values = {"energy": sched.energy, "qos": sched.qos, "eps": eps}

        def moved(field, v):
            if data.draw(st.integers(0, 9)) == 0:
                return data.draw(ODD)
            return v * (1.0 + data.draw(STEPS)) + data.draw(STEPS) * scale[field]

        for _ in range(data.draw(st.integers(0, 4))):
            field = data.draw(st.sampled_from(sorted(scale) + ["idle"]))
            if field == "idle":  # a task without cycles
                u = data.draw(st.sampled_from(sorted(gn.tasks)))
                parts["cycles"].update({k: 0.0 for k in parts["cycles"] if k[0] == u})
            elif field in parts:
                key = data.draw(st.sampled_from(sorted(parts[field])))
                parts[field][key] = moved(field, parts[field][key])
            else:
                values[field] = moved(field, values[field])
        eps = values.pop("eps")
        mutated = dataclasses.replace(sched, **parts, **values)
        args = (gn, mutated, out.assignment, platform.power, platform.freqs, eps,
                gn.deadline, contract)
        same_report(verify_schedule(*args), verify_reference(*args))

    def test_unperturbed_schedules_pass_both(self, schedules):
        platform, cases = schedules
        for gn, out, eps, contract in cases:
            args = (gn, out.schedule, out.assignment, platform.power, platform.freqs, eps,
                    gn.deadline, contract)
            fast = verify_schedule(*args)
            assert fast.ok, fast.format()
            same_report(fast, verify_reference(*args))


def test_margins_tool_flags_a_tolerance_without_headroom(monkeypatch, capsys):
    import importlib.util
    from pathlib import Path

    import impsched.verify as verify

    path = Path(__file__).resolve().parent.parent / "tools" / "verify_margins.py"
    spec = importlib.util.spec_from_file_location("verify_margins", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--check"]) == 0
    # correct schedules sit a few ulps below 0, the LP-decided ones down to
    # about -7e-14: a tolerance of 1e-15 leaves them no 10x headroom and fails
    # some outright, which stops their sweeps
    monkeypatch.setattr(verify, "_TOL", 1e-15)
    assert tool.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "within 10x of the tolerance" in err and "sweeps stopped" in err
