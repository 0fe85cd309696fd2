import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_graph
from impsched.taskgraph import (
    CycleError,
    GeneratorParams,
    GeneratorError,
    GraphFormatError,
    MANDATORY_REGIMES,
    TaskGraph,
    compute_deadline,
    generate_random_graph,
    normalize_source,
    parse_task_graph,
    serialize_task_graph,
    topological_order,
    validate_graph,
)


class TestValidate:
    def test_empty_graph_has_no_exits(self):
        report = validate_graph(TaskGraph([], [], 1.0))
        assert "no exit tasks" in report.violations

    def test_two_task_cycle(self):
        g = make_graph(
            [("a", 1, 1, 0, 0.5), ("b", 1, 1, 0, 0.5)],
            [("a", "b", 0.0), ("b", "a", 0.0)],
        )
        assert any("cycle" in v for v in validate_graph(g).violations)

    def test_valid_chain_passes(self, chain3):
        report = validate_graph(chain3)
        assert report.ok
        assert report.stats["n_sources"] == 1
        assert report.stats["n_exits"] == 1

    def test_field_ranges_reported(self):
        g = make_graph([("a", -5, 2, -1, 1.5)])
        v = validate_graph(g).violations
        assert any("negative mandatory" in x for x in v)
        assert any("negative extension" in x for x in v)
        assert any("threshold" in x for x in v)

    def test_multiple_sources_flagged(self):
        g = make_graph(
            [("a", 1, 1, 0, 0.5), ("b", 1, 1, 0, 0.5), ("c", 1, 1, 0, 0.5)],
            [("a", "c", 0.0), ("b", "c", 0.0)],
        )
        assert any("source" in v for v in validate_graph(g).violations)


class TestTopological:
    def test_chain(self, chain3):
        assert topological_order(chain3) == ["a", "b", "c"]

    def test_diamond_tie_break(self):
        g = make_graph(
            [(x, 1, 1, 0, 0.5) for x in "abcd"],
            [("a", "b", 0.0), ("a", "c", 0.0), ("b", "d", 0.0), ("c", "d", 0.0)],
        )
        assert topological_order(g) == ["a", "b", "c", "d"]

    def test_cycle_raises(self):
        g = make_graph(
            [("a", 1, 1, 0, 0.5), ("b", 1, 1, 0, 0.5)],
            [("a", "b", 0.0), ("b", "a", 0.0)],
        )
        with pytest.raises(CycleError):
            topological_order(g)

    def test_cycle_raises_on_every_call(self):
        g = make_graph(
            [("a", 1, 1, 0, 0.5), ("b", 1, 1, 0, 0.5)],
            [("a", "b", 0.0), ("b", "a", 0.0)],
        )
        for _ in range(3):
            with pytest.raises(CycleError):
                topological_order(g)

    def test_returned_list_is_the_callers(self, chain3):
        order = topological_order(chain3)
        order.reverse()
        order.append("x")
        assert topological_order(chain3) == ["a", "b", "c"]


class TestNormalize:
    def test_single_source_unchanged(self, chain3):
        assert normalize_source(chain3) is chain3

    def test_two_sources_get_dummy(self):
        g = make_graph(
            [("s1", 5, 10, 2, 0.5), ("s2", 6, 12, 3, 0.5), ("t", 4, 8, 1, 0.5)],
            [("s1", "t", 0.001), ("s2", "t", 0.001)],
        )
        gn = normalize_source(g)
        assert len(gn.sources()) == 1
        (src,) = gn.sources()
        d = gn.task(src)
        assert (d.mandatory, d.optional, d.extension, d.threshold) == (0, 1, 0, 1.0)
        assert set(gn.children(src)) == {"s1", "s2"}
        assert all(gn.comm(src, s) == 0.0 for s in ("s1", "s2"))
        # exit set and existing workloads untouched
        assert gn.exits() == g.exits()
        assert all(gn.task(u) == g.task(u) for u in g.tasks)

    def test_idempotent(self):
        g = make_graph(
            [("s1", 5, 10, 2, 0.5), ("s2", 6, 12, 3, 0.5), ("t", 4, 8, 1, 0.5)],
            [("s1", "t", 0.001), ("s2", "t", 0.001)],
        )
        once = normalize_source(g)
        assert normalize_source(once) is once

    def test_same_object_on_every_call(self):
        g = make_graph(
            [("s1", 5, 10, 2, 0.5), ("s2", 6, 12, 3, 0.5), ("t", 4, 8, 1, 0.5)],
            [("s1", "t", 0.001), ("s2", "t", 0.001)],
        )
        assert normalize_source(g) is normalize_source(g)

    @pytest.mark.parametrize("sources", [["a"], ["a", "b"]])
    def test_graph_holds_no_reference_cycle(self, sources):
        # reference counting alone frees a graph and what it derived
        tasks = [(u, 5, 10, 2, 0.5) for u in sources + ["t"]]
        g = make_graph(tasks, [(u, "t", 0.001) for u in sources])
        normalize_source(g)
        refs = [weakref.ref(g), weakref.ref(normalize_source(g))]
        gc.disable()
        try:
            del g
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestDeadline:
    def test_single_task(self):
        g = make_graph([("a", 1_000_000, 600_000, 400_000, 0.5)])
        # full workload is 2e6 cycles at 2.1 GHz, doubled
        expect = 2 * 2_000_000 / 2.1e9
        assert math.isclose(compute_deadline(g, 2.1e9), expect, rel_tol=1e-12)
        assert math.isclose(expect, 1.905e-3, rel_tol=1e-3)

    def test_chain_with_comm(self):
        g = make_graph(
            [("a", 1_000_000, 600_000, 400_000, 0.5),
             ("b", 1_000_000, 600_000, 400_000, 0.5)],
            [("a", "b", 0.5e-3)],
        )
        dur = 2_000_000 / 2.0e9
        assert math.isclose(
            compute_deadline(g, 2.0e9), 2 * (2 * dur + 0.5e-3), rel_tol=1e-12
        )

    def test_extension_toggle(self):
        g = make_graph([("a", 100, 50, 80, 0.5)])
        with_ext = compute_deadline(g, 1e9)
        without = compute_deadline(g, 1e9, include_extension=False)
        assert math.isclose(with_ext, 2 * 230 / 1e9, rel_tol=1e-12)
        assert math.isclose(without, 2 * 150 / 1e9, rel_tol=1e-12)

    def test_dominates_single_task_duration(self):
        g = generate_random_graph(GeneratorParams(n_tasks=25, seed=9))
        worst = max(
            (t.mandatory + t.optional + t.extension) / 2.1e9
            for t in g.tasks.values()
        )
        assert g.deadline >= worst


class TestFormat:
    def test_round_trip_generated(self):
        g = generate_random_graph(GeneratorParams(n_tasks=17, seed=3))
        assert parse_task_graph(serialize_task_graph(g)) == g

    def test_unknown_edge_target(self):
        text = "taskgraph v1\ndeadline 1.0\ntask a M=1 O=2 m=0 PT=0.5\nedge a b comm=0\n"
        with pytest.raises(GraphFormatError) as exc:
            parse_task_graph(text)
        assert "unknown task" in str(exc.value)
        assert exc.value.line_no == 4

    def test_negative_mandatory(self):
        text = "taskgraph v1\ndeadline 1.0\ntask a M=-1 O=2 m=0 PT=0.5\n"
        with pytest.raises(GraphFormatError):
            parse_task_graph(text)

    def test_comments_and_blank_lines(self):
        text = (
            "# a comment\n\ntaskgraph v1\ndeadline 0.5  # trailing\n"
            "task a M=1 O=2 m=3 PT=0.25\n"
        )
        g = parse_task_graph(text)
        assert g.deadline == 0.5
        assert g.task("a").extension == 3

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_task_graph("deadline 1.0\n")

    def test_duplicate_task(self):
        text = "taskgraph v1\ndeadline 1.0\ntask a M=1 O=2 m=0 PT=0.5\ntask a M=1 O=2 m=0 PT=0.5\n"
        with pytest.raises(GraphFormatError) as exc:
            parse_task_graph(text)
        assert exc.value.line_no == 4

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 25), st.integers(0, 1000))
    def test_round_trip_property(self, n, seed):
        g = generate_random_graph(GeneratorParams(n_tasks=n, seed=seed))
        assert parse_task_graph(serialize_task_graph(g)) == g


class TestGenerator:
    def test_deterministic(self):
        p = GeneratorParams(n_tasks=30, seed=42)
        assert generate_random_graph(p) == generate_random_graph(p)

    def test_regime_bounds(self):
        for regime, (lo, hi) in MANDATORY_REGIMES.items():
            g = generate_random_graph(
                GeneratorParams(n_tasks=40, mandatory_regime=regime, seed=7)
            )
            for t in g.tasks.values():
                ratio = t.mandatory / t.initial_workload
                assert lo <= ratio <= hi, (regime, t.id, ratio)

    def test_same_seed_shares_topology_across_regimes(self):
        a = generate_random_graph(GeneratorParams(n_tasks=20, mandatory_regime="man_low", seed=5))
        b = generate_random_graph(GeneratorParams(n_tasks=20, mandatory_regime="man_high", seed=5))
        assert [(e.src, e.dst) for e in a.edges] == [(e.src, e.dst) for e in b.edges]
        assert all(
            a.task(u).initial_workload == b.task(u).initial_workload for u in a.tasks
        )
        assert all(a.task(u).threshold == b.task(u).threshold for u in a.tasks)

    def test_reference_scale_range(self):
        for n in (23, 57):
            g = generate_random_graph(GeneratorParams(n_tasks=n, seed=1))
            assert len(g.tasks) == n
            report = validate_graph(g)
            assert report.ok
            assert report.stats["max_in_degree"] <= 6
            assert report.stats["max_out_degree"] <= 6

    def test_exact_workload_split(self):
        rng = random.Random(0)
        for _ in range(5):
            g = generate_random_graph(
                GeneratorParams(n_tasks=rng.randint(2, 35), seed=rng.randint(0, 99))
            )
            for t in g.tasks.values():
                assert t.mandatory + t.optional == t.initial_workload
                assert t.mandatory >= 1 and t.optional >= 1

    def test_comm_range(self):
        g = generate_random_graph(GeneratorParams(n_tasks=25, seed=2))
        for e in g.edges:
            assert 0.4e-3 <= e.comm <= 0.6e-3

    def test_invalid_params(self):
        with pytest.raises(GeneratorError):
            generate_random_graph(GeneratorParams(n_tasks=0))
        with pytest.raises(GeneratorError):
            generate_random_graph(GeneratorParams(n_tasks=5, max_in_degree=0))
        with pytest.raises(GeneratorError):
            generate_random_graph(GeneratorParams(n_tasks=5, mandatory_regime="nope"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10_000))
    def test_generated_always_validates(self, n, seed):
        g = generate_random_graph(GeneratorParams(n_tasks=n, seed=seed))
        assert validate_graph(g).ok
