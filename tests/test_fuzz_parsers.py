"""Any text handed to the two file parsers either parses or raises
GraphFormatError; nothing else may escape to the command line. Any points
file handed to `impsched fit` is fitted or ends in a one-line error.

Each document is a valid file with a few tokens or lines replaced, so most
cases get past the header and reach the semantic checks."""

import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from impsched.cli import format_schedule, main, parse_schedule
from impsched.sweep import default_platform, run_proposed
from impsched.taskgraph import (
    GeneratorParams,
    GraphFormatError,
    generate_random_graph,
    normalize_source,
    parse_task_graph,
    serialize_task_graph,
)

GRAPH = generate_random_graph(GeneratorParams(n_tasks=3, seed=1))
GRAPH_TEXT = serialize_task_graph(GRAPH)


def _schedule_text():
    g = normalize_source(GRAPH)
    out = run_proposed(g, default_platform(2), 1.0)
    return format_schedule("proposed", g, out.schedule, out.assignment, 1.0, 2, out.labeling)


VALUES = st.sampled_from(
    ["0", "1", "-1", "2", "9", "2.5", "1e-3", "nan", "inf", "-inf", "1e400", "9" * 5000,
     "0x10", "", "=", "#", "-", "t00", "t99"]
)


@st.composite
def mutated(draw, text):
    """text with one to four lines changed: a value replaced (keeping its
    'key=' prefix), a token replaced by arbitrary text, or a line dropped,
    copied or moved."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["value", "value", "token", "drop", "copy", "swap"]))
        toks = lines[i].split()
        if action in ("value", "token") and toks:
            k = draw(st.integers(0, len(toks) - 1))
            if action == "token":
                toks[k] = draw(st.text(max_size=6))
            else:
                key, eq, _ = toks[k].rpartition("=")
                toks[k] = key + eq + draw(VALUES)
            lines[i] = " ".join(toks)
        elif action == "drop":
            del lines[i]
        elif action == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


class TestParsersOnlyRaiseFormatErrors:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(mutated(GRAPH_TEXT), st.text(max_size=200)))
    def test_task_graph(self, text):
        try:
            g = parse_task_graph(text)
        except GraphFormatError:
            return
        assert math.isfinite(g.deadline) and g.deadline > 0
        assert all(math.isfinite(e.comm) and e.comm >= 0 for e in g.edges)

    @pytest.fixture(scope="class")
    def schedule_text(self):
        return _schedule_text()

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_schedule(self, schedule_text, data):
        text = data.draw(st.one_of(mutated(schedule_text), st.text(max_size=200)))
        try:
            _, eps_max, procs, _, asg, sched = parse_schedule(text)
        except GraphFormatError:
            return
        numbers = [eps_max, sched.energy, sched.qos, sched.makespan]
        for part in (sched.start, sched.durations, sched.cycles, sched.opt_cycles):
            numbers.extend(part.values())
        assert all(math.isfinite(v) for v in numbers)
        assert all(0 <= k < procs for k in asg.proc_of.values())


MAGNITUDES = st.one_of(VALUES, st.sampled_from(["1e-300", "1e-60", "1e60", "1e300"]))


class TestPointsFile:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=200),
        st.lists(st.tuples(MAGNITUDES, MAGNITUDES), max_size=6).map(
            lambda rows: "".join(f"{f} {p}\n" for f, p in rows)
        ),
    ))
    def test_fit_exits_0_or_with_one_error_line(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fit") / "points.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        # a warning would print a line of its own beside the error
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["fit", str(path)])
        if code != 0:
            assert code == 1 and err.getvalue().startswith("error: "), err.getvalue()
            assert err.getvalue().count("\n") == 1, err.getvalue()
