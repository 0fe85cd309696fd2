import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_graph
from impsched.imprecision import (
    Labeling,
    LabelingError,
    backward_pass,
    base_case1_decision,
    effective_workloads,
    format_labeling,
    forward_pass,
    imp_label,
    initial_workloads,
    input_error,
    mandatory_extension,
    output_error,
    precise_workloads,
    precision,
    qos,
    reduction_objective,
)
from impsched.taskgraph import (
    MANDATORY_REGIMES,
    GeneratorParams,
    generate_random_graph,
    normalize_source,
)
from oracles import backward_pass_full, brute_force_labeling_min, labeling_objective


class TestErrorAlgebra:
    def test_output_error_endpoints(self):
        assert output_error(100, 100) == 0.0
        assert output_error(100, 0) == 1.0
        assert output_error(4, 1) == pytest.approx(0.75)

    def test_output_error_range_check(self):
        with pytest.raises(ValueError):
            output_error(10, 11)
        with pytest.raises(ValueError):
            output_error(0, 0)

    def test_input_error(self):
        assert input_error([]) == 0.0
        assert input_error([0.6, 0.7]) == 1.0
        assert input_error([0.2, 0.3]) == pytest.approx(0.5)

    def test_mandatory_extension(self):
        assert mandatory_extension(500, 0.0) == 0
        assert mandatory_extension(500, 1.0) == 500
        assert mandatory_extension(500, 0.4) == pytest.approx(200)

    def test_precision(self):
        assert precision(0.4, 10, 0) == pytest.approx(0.4)
        assert precision(0.4, 10, 10) == pytest.approx(1.0)
        assert precision(0.4, 2, 1) == pytest.approx(0.7)

    def test_qos(self):
        assert qos([1.0, 1.0]) == 1.0
        assert qos([0.5, 1.0]) == pytest.approx(0.75)
        assert qos([0.3]) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            qos([])

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.integers(1, 10_000),
        st.floats(0.0, 1.0),
    )
    def test_ranges_property(self, threshold, optional, frac):
        executed = frac * optional
        p = precision(threshold, optional, executed)
        assert threshold - 1e-12 <= p <= 1.0 + 1e-12
        e = output_error(optional, executed)
        assert 0.0 <= e <= 1.0


class TestBaseCase1Decision:
    def test_discard_when_extensions_cheap(self):
        assert base_case1_decision(100, [30, 40]) is False

    def test_keep_when_extensions_expensive(self):
        assert base_case1_decision(100, [70, 60]) is True

    def test_boundary_discards(self):
        assert base_case1_decision(100, [100]) is False


def fan_out(O_p=100, child_ms=(30, 40), m_p=0, pt=0.5):
    """One parent, children are exits (base case 1 shape)."""
    tasks = [("p", 50, O_p, m_p, pt)]
    edges = []
    for i, m in enumerate(child_ms):
        tasks.append((f"c{i}", 40, 20, m, pt))
        edges.append(("p", f"c{i}", 0.0))
    return make_graph(tasks, edges)


def fan_in(parent_os=(30, 40), m_c=100, pt=0.5):
    """Several source parents, one exit child (base case 2 shape)."""
    tasks = [("z", 50, 20, m_c, pt)]
    edges = []
    for i, o in enumerate(parent_os):
        tasks.append((f"p{i}", 40, o, 5, pt))
        edges.append((f"p{i}", "z", 0.0))
    return make_graph(tasks, edges)


class TestForwardPass:
    def test_base_case1_discard(self):
        g = fan_out(O_p=100, child_ms=(30, 40))
        lab = forward_pass(g)
        assert lab.precise["p"] is False
        assert lab.extended["c0"] and lab.extended["c1"]

    def test_base_case1_keep(self):
        g = fan_out(O_p=100, child_ms=(70, 60))
        lab = forward_pass(g)
        assert lab.precise["p"] is True
        assert not lab.extended["c0"] and not lab.extended["c1"]

    def test_independent_parents_both_keep(self):
        g = make_graph(
            [
                ("r", 10, 1, 0, 1.0),  # single source, no real optional part
                ("p1", 10, 10, 0, 0.5),
                ("p2", 10, 10, 0, 0.5),
                ("a", 10, 10, 50, 0.5),
                ("b", 10, 10, 50, 0.5),
            ],
            [("r", "p1", 0.0), ("r", "p2", 0.0), ("p1", "a", 0.0), ("p2", "b", 0.0)],
        )
        lab = forward_pass(g)
        assert lab.precise["p1"] is True and lab.precise["p2"] is True
        assert not any(lab.extended.values())

    def test_shared_child_update_pass(self):
        # both parents end up imprecise: the first flip extends the shared
        # child, the update pass then frees the second parent's decision
        g = make_graph(
            [
                ("p1", 10, 10, 0, 0.5),
                ("p2", 10, 10, 0, 0.5),
                ("c", 10, 10, 8, 0.5),
            ],
            [("p1", "c", 0.0), ("p2", "c", 0.0)],
        )
        gn = normalize_source(g)
        lab = forward_pass(gn)
        assert lab.precise["p1"] is False
        assert lab.precise["p2"] is False
        assert lab.extended["c"]

    def test_update_pass_flips_earlier_parent(self):
        # p1 (evaluated first) initially keeps its optional work because m_c
        # is large; once p2 discards and extends c, the re-evaluation frees p1
        g = make_graph(
            [
                ("p1", 10, 10, 0, 0.5),
                ("p2", 10, 20, 0, 0.5),
                ("c", 10, 10, 12, 0.5),
            ],
            [("p1", "c", 0.0), ("p2", "c", 0.0)],
        )
        gn = normalize_source(g)
        lab = forward_pass(gn)
        # p1: m_c=12 > O=10 keeps; p2: 12 <= 20 discards, extends c;
        # update: p1 re-evaluated without c -> 0 <= 10 discards
        assert lab.precise["p1"] is False
        assert lab.precise["p2"] is False

    def test_requires_single_source(self):
        g = fan_in()
        with pytest.raises(LabelingError):
            forward_pass(g)


class TestBackwardPass:
    def test_no_multi_parent_unchanged(self, chain3):
        lab = forward_pass(chain3)
        lab2 = backward_pass(chain3, lab)
        assert lab2.precise == lab.precise

    def test_base_case2_flip_all(self):
        # each parent alone is not worth discarding (m_c > O_i), but the
        # shared extension makes the group flip pay off
        g = normalize_source(fan_in(parent_os=(30, 40), m_c=50))
        lab = forward_pass(g)
        assert lab.precise["p0"] is True and lab.precise["p1"] is True
        lab2 = backward_pass(g, lab)
        assert lab2.precise["p0"] is False and lab2.precise["p1"] is False
        assert lab2.extended["z"]

    def test_base_case2_keep_all(self):
        g = normalize_source(fan_in(parent_os=(30, 40), m_c=100))
        lab = forward_pass(g)
        lab2 = backward_pass(g, lab)
        assert lab2.precise["p0"] is True and lab2.precise["p1"] is True

    def test_never_worsens_objective(self):
        rng = random.Random(4)
        for _ in range(30):
            g = normalize_source(
                generate_random_graph(
                    GeneratorParams(n_tasks=rng.randint(2, 14), seed=rng.randint(0, 999))
                )
            )
            lab = forward_pass(g)
            lab2 = backward_pass(g, lab)
            assert reduction_objective(g, lab2) <= reduction_objective(g, lab)

    @pytest.mark.parametrize("regime", MANDATORY_REGIMES)
    def test_incremental_objective_matches_full_recompute(self, regime):
        rng = random.Random(11)
        flipped = 0
        for _ in range(12):
            g = normalize_source(
                generate_random_graph(
                    GeneratorParams(
                        n_tasks=rng.randint(2, 60),
                        mandatory_regime=regime,
                        seed=rng.randint(0, 9999),
                    )
                )
            )
            lab = forward_pass(g)
            got = backward_pass(g, lab)
            want = backward_pass_full(g, lab.precise)
            assert got.precise == want
            flipped += sum(lab.precise[u] and not want[u] for u in want)
        # the backward pass has something to decide on these graphs
        assert flipped > 0


class TestImpLabel:
    def test_single_task(self):
        g = make_graph([("a", 100, 50, 10, 0.5)])
        lab, wl = imp_label(g)
        assert lab.precise == {}
        assert wl.mandatory_eff["a"] == 100

    def test_chain_discard(self):
        g = make_graph(
            [("a", 100, 50, 0, 0.5), ("b", 100, 40, 30, 0.5)],
            [("a", "b", 0.0)],
        )
        lab, wl = imp_label(g)
        assert lab.precise["a"] is False
        assert wl.mandatory_eff["b"] == 130
        assert wl.fixed["a"] == 100

    def test_chain_keep(self):
        g = make_graph(
            [("a", 100, 50, 0, 0.5), ("b", 100, 40, 60, 0.5)],
            [("a", "b", 0.0)],
        )
        lab, wl = imp_label(g)
        assert lab.precise["a"] is True
        assert wl.mandatory_eff["b"] == 100
        assert wl.fixed["a"] == 150

    def test_extended_iff_parent_imprecise(self):
        rng = random.Random(11)
        for _ in range(25):
            g = normalize_source(
                generate_random_graph(
                    GeneratorParams(n_tasks=rng.randint(2, 18), seed=rng.randint(0, 999))
                )
            )
            lab, _ = imp_label(g)
            for u in g.tasks:
                want = any(not lab.precise[p] for p in g.parents(u))
                assert lab.extended[u] == want

    def test_workload_consistency(self):
        g = normalize_source(generate_random_graph(GeneratorParams(n_tasks=15, seed=2)))
        lab, wl = imp_label(g)
        for u in g.tasks:
            assert wl.fixed[u] == wl.mandatory_eff[u] + wl.optional_fixed.get(u, 0)
            t = g.task(u)
            assert wl.mandatory_eff[u] in (t.mandatory, t.mandatory + t.extension)

    def test_objective_equals_oracle_on_heuristic_labels(self):
        g = normalize_source(generate_random_graph(GeneratorParams(n_tasks=10, seed=3)))
        lab, _ = imp_label(g)
        assert reduction_objective(g, lab) == labeling_objective(g, lab.precise)


class TestReductionObjective:
    def test_all_precise_no_extensions(self, chain3):
        lab = forward_pass(chain3)
        lab2 = backward_pass(chain3, lab)
        # chain3: m_b=30 <= O_a=50 discards a; m_c=20 <= O_b=80 discards b
        assert lab2.precise == {"a": False, "b": False}
        # construct the all-precise labeling by hand for the formula check
        from impsched.imprecision import Labeling

        all_precise = Labeling({"a": True, "b": True}, {u: False for u in chain3.tasks})
        expect = (100 + 50) + (200 + 80) + 150
        assert reduction_objective(chain3, all_precise) == expect

    def test_inconsistent_labeling_rejected(self, chain3):
        from impsched.imprecision import Labeling

        bad = Labeling({"a": False, "b": True}, {u: False for u in chain3.tasks})
        with pytest.raises(LabelingError):
            reduction_objective(chain3, bad)

    def test_boundary_flip_neutral(self):
        # discarding saves O and costs exactly O of child extensions
        g = fan_out(O_p=70, child_ms=(30, 40))
        lab_imp = forward_pass(g)  # boundary: discards
        assert lab_imp.precise["p"] is False
        from impsched.imprecision import Labeling

        lab_pre = Labeling({"p": True}, {u: False for u in g.tasks})
        assert reduction_objective(g, lab_imp) == reduction_objective(g, lab_pre)


class TestBruteForceComparison:
    def test_base_case1_optimal(self):
        rng = random.Random(0)
        for _ in range(60):
            b = rng.randint(1, 12)
            g = fan_out(
                O_p=rng.randint(2, 200),
                child_ms=tuple(rng.randint(0, 60) for _ in range(b)),
                m_p=rng.randint(0, 50),
            )
            lab, _ = imp_label(g)
            assert reduction_objective(g, lab) == brute_force_labeling_min(g)

    def test_base_case2_optimal(self):
        rng = random.Random(1)
        for _ in range(60):
            b = rng.randint(2, 12)
            g = normalize_source(
                fan_in(
                    parent_os=tuple(rng.randint(2, 80) for _ in range(b)),
                    m_c=rng.randint(0, 400),
                )
            )
            lab, _ = imp_label(g)
            assert reduction_objective(g, lab) == brute_force_labeling_min(g)

    def test_arbitrary_graphs_bounded_by_forward_pass(self):
        rng = random.Random(2)
        for _ in range(25):
            g = normalize_source(
                generate_random_graph(
                    GeneratorParams(n_tasks=rng.randint(2, 13), seed=rng.randint(0, 9999))
                )
            )
            fwd = forward_pass(g)
            lab, _ = imp_label(g)
            obj = reduction_objective(g, lab)
            assert obj <= reduction_objective(g, fwd)
            assert obj >= brute_force_labeling_min(g)


class TestHelpers:
    def test_full_workloads(self):
        g = make_graph(
            [("a", 100, 50, 0, 0.5), ("b", 100, 40, 30, 0.5)],
            [("a", "b", 0.0)],
        )
        lab, wl = imp_label(g)  # a discards, b extended
        assert wl.fixed == {"a": 100, "b": 130}
        assert wl.full == {"a": 100, "b": 130 + 40}

    def test_precise_workloads(self, chain3):
        wl = precise_workloads(chain3)
        # nothing extended; every non-exit task runs its optional part in full
        assert wl.mandatory_eff == {"a": 100, "b": 200, "c": 150}
        assert wl.optional_fixed == {"a": 50, "b": 80}
        assert wl.fixed == {"a": 150, "b": 280, "c": 150}
        assert wl.full == {"a": 150, "b": 280, "c": 210}

    def test_initial_workloads(self, chain3):
        wl = initial_workloads(chain3)
        # nothing extended and nothing left free, the exit's optional part too
        assert wl.mandatory_eff == {"a": 100, "b": 200, "c": 150}
        assert wl.optional_fixed == {"a": 50, "b": 80, "c": 60}
        assert wl.fixed == wl.full == {"a": 150, "b": 280, "c": 210}

    @pytest.mark.parametrize("regime", sorted(MANDATORY_REGIMES))
    def test_precise_workloads_are_the_initial_ones(self, regime):
        params = GeneratorParams(n_tasks=20, mandatory_regime=regime, seed=5)
        g = normalize_source(generate_random_graph(params))
        exits = set(g.exits())
        all_precise = Labeling(
            {u: True for u in g.tasks if u not in exits}, {u: False for u in g.tasks}
        )
        wl = precise_workloads(g)
        assert wl == effective_workloads(g, all_precise)
        assert wl.mandatory_eff == {u: t.mandatory for u, t in g.tasks.items()}
        initial = {u: t.initial_workload for u, t in g.tasks.items()}
        assert wl.full == initial_workloads(g).full == initial

    @pytest.mark.parametrize("regime", sorted(MANDATORY_REGIMES))
    def test_windows_leave_only_the_free_exits_optional_part_open(self, regime):
        for seed in (6, 7):
            params = GeneratorParams(n_tasks=20, mandatory_regime=regime, seed=seed)
            g = normalize_source(generate_random_graph(params))
            exits = set(g.exits())
            for name, wl, free in (
                ("proposed", imp_label(g)[1], exits),
                ("baseline", precise_workloads(g), exits),
                ("initial", initial_workloads(g), set()),
            ):
                for u, t in g.tasks.items():
                    assert wl.full[u] - wl.fixed[u] == (t.optional if u in free else 0), name
                    assert (u in wl.optional_fixed) == (wl.full[u] == wl.fixed[u]), name

    def test_format_labeling(self):
        g = make_graph(
            [("a", 100, 50, 0, 0.5), ("b", 100, 40, 30, 0.5)],
            [("a", "b", 0.0)],
        )
        lab, _ = imp_label(g)
        text = format_labeling(g, lab)
        assert "label a precise=0 extended=0" in text
        assert "label b precise=- extended=1" in text
