import pytest

from impsched import sweep
from impsched.energy import DEFAULT_FREQUENCY_SET, DEFAULT_POWER_MODEL
from impsched.sweep import PlatformConfig
from impsched.taskgraph import Edge, GeneratorParams, Task, TaskGraph, generate_random_graph

# collected by acceptance tests; printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    line = f"criterion {num:2d} {name}: {state}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def decide_by_lp(mp: pytest.MonkeyPatch) -> None:
    """Through mp, make every model a runner or epsilon_star fills decide
    its rows by the LP, as a model does whose full loads miss the deadline:
    the same instances then exercise the LP path."""
    fill = sweep._fill

    def fill_without_closed_form(model, *args, **kwargs):
        fill(model, *args, **kwargs)
        model.full = None

    mp.setattr(sweep, "_fill", fill_without_closed_form)


@pytest.fixture
def lp_fallback(monkeypatch):
    decide_by_lp(monkeypatch)


@pytest.fixture(scope="session")
def reference_pm():
    return DEFAULT_POWER_MODEL


@pytest.fixture(scope="session")
def reference_fs():
    return DEFAULT_FREQUENCY_SET


@pytest.fixture(scope="session")
def platform4():
    return PlatformConfig(DEFAULT_POWER_MODEL, DEFAULT_FREQUENCY_SET, 4)


# criterion 5's branch-and-bound instances: (n, K, seed - 500, ratio to eps*)
# on man_mixed graphs and the frequencies {f0, f4}
EXACT_CASES = tuple(
    [(4, 2, s, 0.9) for s in range(5)]
    + [(5, 2, s, 0.9) for s in range(5, 8)]
    + [(5, 1, s, 0.85) for s in range(8, 11)]
    + [(6, 1, s, 0.85) for s in range(11, 15)]
)


def make_graph(tasks, edges=(), deadline=1.0):
    """tasks: (id, M, O, m, PT) tuples; edges: (src, dst, comm) tuples."""
    return TaskGraph(
        [Task(*t) for t in tasks],
        [Edge(*e) for e in edges],
        deadline,
    )


@pytest.fixture
def chain3():
    return make_graph(
        [("a", 100, 50, 10, 0.5), ("b", 200, 80, 30, 0.2), ("c", 150, 60, 20, 0.8)],
        [("a", "b", 0.001), ("b", "c", 0.002)],
        deadline=1.0,
    )


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
