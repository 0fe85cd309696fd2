import dataclasses

import pytest

from impsched.schedlp import Schedule
from impsched.sweep import epsilon_star, default_platform, run_baseline, run_proposed
from impsched.taskgraph import GeneratorParams, generate_random_graph, normalize_source
from impsched.verify import WorkloadContract, verify_schedule
from impsched.imprecision import imp_label
from oracles import baseline_contract_reference


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
        expect = (eps_max - out.schedule.energy) / max(1.0, eps_max)
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
