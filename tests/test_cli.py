import io
import shlex
from pathlib import Path

import pytest

from impsched import cli, sweep
from impsched.cli import main, parse_schedule
from impsched.lp import LinearProgram, solve_lp, write_lp_file
from impsched.taskgraph import parse_task_graph, validate_graph
from conftest import decide_by_lp
from test_sweep import same_program


def run(cmd: str) -> int:
    return main(shlex.split(cmd))


@pytest.fixture()
def graphs_dir(tmp_path):
    out = tmp_path / "graphs"
    rc = run(f"generate --n 10 --count 2 --regime man_low --seed 3 --out {out}")
    assert rc == 0
    return out


@pytest.fixture()
def graph_file(graphs_dir):
    return graphs_dir / "graph_man_low_s3.tg"


class TestGenerate:
    def test_files_created_and_valid(self, graphs_dir):
        files = sorted(graphs_dir.glob("*.tg"))
        assert len(files) == 2
        for f in files:
            g = parse_task_graph(f.read_text())
            assert validate_graph(g).ok
            assert len(g.tasks) == 10

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(f"generate --n 8 --count 1 --seed 11 --out {a}") == 0
        assert run(f"generate --n 8 --count 1 --seed 11 --out {b}") == 0
        (fa,) = a.glob("*.tg")
        (fb,) = b.glob("*.tg")
        assert fa.read_text() == fb.read_text()

    def test_regime_required_valid(self):
        assert run("generate --regime bogus") == 1


class TestLabel:
    def test_label_output(self, graph_file, capsys):
        assert run(f"label {graph_file}") == 0
        out = capsys.readouterr().out
        assert out.startswith("label ")
        assert "precise=" in out and "extended=" in out


class TestScheduleVerify:
    def test_round_trip(self, graph_file, tmp_path, capsys):
        sched_file = tmp_path / "sched.txt"
        rc = run(f"schedule {graph_file} --eps-ratio 0.8 --out {sched_file}")
        assert rc == 0
        assert sched_file.exists()
        rc = run(f"verify {graph_file} {sched_file}")
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out.splitlines()
        assert any(line.startswith("idle_static_energy_J ") for line in out.splitlines())

    def test_verify_catches_tampering(self, graph_file, tmp_path, capsys):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --out {sched_file}") == 0
        text = sched_file.read_text()
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("qos "):
                lines[i] = "qos 0.123"
                break
        sched_file.write_text("\n".join(lines) + "\n")
        rc = run(f"verify {graph_file} {sched_file}")
        out = capsys.readouterr().out
        assert rc == 3
        assert "FAIL" in out and "qos-accounting" in out

    def test_parse_schedule_round_trip(self, graph_file, tmp_path):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.85 --out {sched_file}") == 0
        mode, eps, procs, lab, asg, sched = parse_schedule(sched_file.read_text())
        assert mode == "proposed"
        assert procs == 4
        assert lab is not None
        assert set(asg.proc_of) == set(sched.start)

    def test_infeasible_exit_code(self, graph_file):
        assert run(f"schedule {graph_file} --eps-max 1e-9") == 2

    def test_missing_schedule_file(self, graph_file, tmp_path, capsys):
        assert run(f"verify {graph_file} {tmp_path / 'absent.txt'}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read schedule") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["start", "dur", "assign", "label"])
    def test_incomplete_schedule(self, graph_file, tmp_path, capsys, kind):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --out {sched_file}") == 0
        lines = sched_file.read_text().splitlines()
        dropped = next(i for i, line in enumerate(lines) if line.startswith(kind + " "))
        task = lines.pop(dropped).split()[1]
        sched_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(f"verify {graph_file} {sched_file}") == 1
        err = capsys.readouterr().err
        assert err == f"error: line 1: schedule file has no {kind!r} line for task {task}\n"

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (" t00 ", " tXX ", "schedule tasks differ from the graph's tasks"),
            ("label t00 precise=1", "label t00 precise=-", "schedule labels do not fit"),
        ],
    )
    def test_schedule_not_of_this_graph(self, graph_file, tmp_path, capsys, old, new, message):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --out {sched_file}") == 0
        text = sched_file.read_text()
        assert old in text
        sched_file.write_text(text.replace(old, new))
        capsys.readouterr()
        assert run(f"verify {graph_file} {sched_file}") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["tXX 0", "t00 9", "t00 -1"])
    def test_cycles_outside_graph_or_platform(self, graph_file, tmp_path, capsys, key):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --out {sched_file}") == 0
        text = sched_file.read_text()
        assert "\ncycles t00 0 " in text
        sched_file.write_text(text.replace("\ncycles t00 0 ", f"\ncycles {key} ", 1))
        capsys.readouterr()
        assert run(f"verify {graph_file} {sched_file}") == 1
        err = capsys.readouterr().err
        assert err == "error: schedule cycles name a task or frequency the graph or platform lacks\n"

    @pytest.mark.parametrize("proc", ["9", "4", "-1"])
    def test_processor_outside_schedule(self, graph_file, tmp_path, capsys, proc):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --out {sched_file}") == 0
        lines = sched_file.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("assign "))
        toks = lines[i].split()
        toks[2] = f"proc={proc}"
        lines[i] = " ".join(toks)
        sched_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(f"verify {graph_file} {sched_file}") == 1
        err = capsys.readouterr().err
        assert err == f"error: line {i + 1}: task {toks[1]} is assigned to processor {proc} of 4\n"

    def test_schedule_for_more_processors_than_platform(self, graph_file, tmp_path, capsys):
        sched_file = tmp_path / "sched.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --out {sched_file}") == 0
        capsys.readouterr()
        assert run(f"verify {graph_file} {sched_file} --procs 2") == 1
        err = capsys.readouterr().err
        assert err == "error: schedule uses 4 processors, the platform has 2\n"

    def test_baseline_and_milp_commands(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert run(f"generate --n 5 --count 1 --regime man_mixed --seed 7 --out {out}") == 0
        (gf,) = out.glob("*.tg")
        assert run(f"baseline {gf} --eps-ratio 0.9") == 0
        sched_file = tmp_path / "m.txt"
        rc = run(f"milp {gf} --eps-ratio 0.9 --procs 2 --time-limit 20 --out {sched_file}")
        assert rc == 0
        assert run(f"verify {gf} {sched_file}") == 0


class TestBaselineCommand:
    def test_eps_ratio_lends_eps_stars_assignment(self, graph_file, tmp_path, monkeypatch, capsys):
        calls = []
        heft = sweep.heft_assign

        def counting(*args, **kwargs):
            calls.append(args)
            return heft(*args, **kwargs)

        monkeypatch.setattr(sweep, "heft_assign", counting)
        shared = tmp_path / "shared.txt"
        assert run(f"baseline {graph_file} --eps-ratio 0.9 --out {shared}") == 0
        # eps* list-schedules the precise workloads once, for both solves
        assert len(calls) == 1
        out = capsys.readouterr().out
        # the same budget given directly: the baseline list-schedules on its own
        g = parse_task_graph(graph_file.read_text())
        star, _, _ = sweep.epsilon_star(g, sweep.default_platform())
        calls.clear()
        alone = tmp_path / "alone.txt"
        assert run(f"baseline {graph_file} --eps-max {0.9 * star!r} --out {alone}") == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == out
        assert alone.read_text() == shared.read_text()


class TestExportLp:
    @pytest.mark.parametrize("cmd", ["schedule", "baseline", "epsilon-star"])
    def test_exports_the_program_the_run_solved(self, cmd, graph_file, tmp_path, monkeypatch):
        solved = []

        def capture(problem, *args, **kwargs):
            solved.append(problem)
            return solve_lp(problem, *args, **kwargs)

        exported = []

        def export(lp, *args, **kwargs):
            exported.append(lp)
            return write_lp_file(lp, *args, **kwargs)

        monkeypatch.setattr(sweep, "solve_lp", capture)
        monkeypatch.setattr(cli, "write_lp_file", export)
        budget = "" if cmd == "epsilon-star" else "--eps-ratio 0.8"
        closed = tmp_path / "closed.lp"
        assert run(f"{cmd} {graph_file} {budget} --export-lp {closed}") == 0
        # eps* is solved by its LP; the run's rows, decided in closed form,
        # solve nothing
        assert len(solved) == 1
        # the program each run solves where its rows fall back to the LP
        solved.clear()
        decide_by_lp(monkeypatch)
        path = tmp_path / "run.lp"
        assert run(f"{cmd} {graph_file} {budget} --export-lp {path}") == 0
        # eps* is solved first, the run's own program last: eps*'s as built,
        # a row's compiled at the row's budget
        assert len(solved) == (1 if cmd == "epsilon-star" else 2)
        ran = solved[-1].compile() if isinstance(solved[-1], LinearProgram) else solved[-1]
        assert same_program(exported[-1].compile(), ran)
        want = io.StringIO()
        write_lp_file(exported[-1], want)
        assert path.read_text() == want.getvalue()
        # the closed-form run exports the same program
        assert closed.read_text() == path.read_text()


class TestSweepCommand:
    def test_csv_written(self, graph_file, tmp_path):
        csv = tmp_path / "sweep.csv"
        rc = run(f"sweep {graph_file} --methods proposed,baseline --out {csv}")
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("graph,method,eps_ratio")
        assert len(lines) > 10

    def test_unknown_method_usage_error(self, graph_file, tmp_path):
        assert run(f"sweep {graph_file} --methods wat") == 1

    @pytest.mark.parametrize("methods", ["''", ","])
    def test_no_method_is_usage_error(self, methods, graph_file, tmp_path, capsys):
        # nothing to solve: one error line and no CSV, not an infeasible-only result
        csv = tmp_path / "sweep.csv"
        assert run(f"sweep {graph_file} --methods {methods} --out {csv}") == 1
        assert capsys.readouterr().err == "error: no method to sweep\n"
        assert not csv.exists()

    @staticmethod
    def golden_rows(tmp_path):
        """The rows `impsched sweep --methods proposed,baseline` writes for
        the four graphs of perfbench's sweep workload, and the rows it wrote
        when recorded, without the wall time."""
        golden = Path(__file__).parent / "data" / "sweep_golden"
        graphs = " ".join(str(p) for p in sorted(golden.glob("*.tg")))
        csv = tmp_path / "sweep.csv"
        assert run(f"sweep {graphs} --methods proposed,baseline --out {csv}") == 0

        def without_runtime(text):
            lines = [line.split(",") for line in text.splitlines()]
            col = lines[0].index("runtime_s")
            return [fields[:col] + fields[col + 1:] for fields in lines]

        return without_runtime(csv.read_text()), without_runtime((golden / "sweep.csv").read_text())

    def test_matches_recorded_csv(self, tmp_path):
        # every column but the wall time must come out the same, byte for byte
        got, want = self.golden_rows(tmp_path)
        assert len(got) == len(want) == 57
        assert got == want

    def test_recorded_csv_does_not_depend_on_the_vertex(self, tmp_path, monkeypatch, lp_fallback):
        # the QoS programs have many optimal vertices, and from the slack
        # start their solves reach other ones than from the crash; a row
        # reports the minimum-energy schedule of the workloads its solve
        # chose, which is the same at every one of them. Every row and eps*
        # is decided by its LP here (lp_fallback): the recorded CSV, written
        # in closed form, is the LP's too
        crash = sweep.asap_basis
        starts = []

        def solve(problem, *args, **kwargs):
            sol = solve_lp(problem, *args, **kwargs)
            starts.append(sol.start)
            return sol

        monkeypatch.setattr(
            sweep, "asap_basis",
            lambda lp, *args: None if "energy" in lp.row_names else crash(lp, *args),
        )
        monkeypatch.setattr(sweep, "solve_lp", solve)
        got, want = self.golden_rows(tmp_path)
        # every row's QoS solve, and no other
        assert starts.count("slack") == len(got) - 1 == 56
        assert got == want


class TestParser:
    def test_successive_calls_parse_independently(self, graph_file, tmp_path, monkeypatch, capsys):
        # main keeps one parser per process; nothing of one call's
        # subcommand or flags may reach the next
        seen = []

        def record(graph_id, g, platform, cfg):
            seen.append((platform.procs, cfg.methods, cfg.resolution))
            return []

        monkeypatch.setattr(cli, "sweep_graph", record)
        out = tmp_path / "rows.csv"
        run(f"sweep {graph_file} --methods baseline --resolution 0.5 --procs 2 --out {out}")
        assert run(f"epsilon-star {graph_file}") == 0
        assert "epsilon_star_J" in capsys.readouterr().out
        assert out.read_text() == sweep.CSV_HEADER + "\n"
        run(f"sweep {graph_file}")
        assert seen == [(2, ("baseline",), 0.5), (4, ("proposed", "baseline"), 0.05)]
        assert capsys.readouterr().out == sweep.CSV_HEADER + "\n"


class TestHeftFlags:
    def test_no_insertion_and_lp_comm_accepted(self, graph_file, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --no-insertion --out {a}") == 0
        assert run(f"schedule {graph_file} --eps-ratio 0.9 --lp-comm --out {b}") == 0
        # both are full verified schedules
        assert run(f"verify {graph_file} {a}") == 0
        assert run(f"verify {graph_file} {b}") == 0


class TestEpsilonStar:
    def test_prints_value(self, graph_file, capsys):
        assert run(f"epsilon-star {graph_file}") == 0
        out = capsys.readouterr().out
        assert out.startswith("epsilon_star_J ")
        assert float(out.split()[1]) > 0


class TestFit:
    def test_reference_points(self, tmp_path, capsys):
        pts = tmp_path / "points.txt"
        pts.write_text(
            "1.01 430.9\n1.26 556.8\n1.53 710.7\n1.81 896.5\n2.1 1118.2\n"
        )
        assert run(f"fit {pts} --delta 276") == 0
        out = capsys.readouterr().out
        vals = dict(line.split() for line in out.strip().splitlines())
        assert abs(float(vals["alpha"]) - 23.8729) / 23.8729 < 0.02
        assert abs(float(vals["beta"]) - 3.2941) / 3.2941 < 0.02
        assert abs(float(vals["gamma"]) - 401.6654) / 401.6654 < 0.02


class TestConfig:
    def test_platform_config_respected(self, tmp_path, capsys):
        cfg = tmp_path / "conf.ini"
        cfg.write_text(
            "[platform]\nalpha = 23.8729\nbeta = 3.2941\ngamma = 401.6654\n"
            "delta = 276\nfreqs_ghz = 1.01, 2.1\nprocs = 2\n"
            "[generator]\nn_tasks = 6\nmandatory_regime = man_med\n"
        )
        out = tmp_path / "g"
        assert run(f"generate --config {cfg} --count 1 --seed 1 --out {out}") == 0
        (gf,) = out.glob("*.tg")
        g = parse_task_graph(gf.read_text())
        assert len(g.tasks) == 6
        for t in g.tasks.values():
            assert 0.4 <= t.mandatory / t.initial_workload <= 0.6

    def test_missing_config_is_usage_error(self, graph_file):
        assert run(f"label {graph_file} --config /nonexistent.ini") == 1


class TestUsage:
    def test_no_command(self):
        assert run("") == 1

    def test_bad_graph_path(self):
        assert run("label /does/not/exist.tg") == 1

    @pytest.mark.parametrize("cmd", ["fit {bad}", "label {bad}", "verify {graph} {bad}"])
    def test_undecodable_file_is_one_line_error(self, cmd, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe not text\n")
        capsys.readouterr()
        assert run(cmd.format(bad=bad, graph=graph_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "cmd, config",
        [
            ("schedule {graph} --eps-ratio nan", None),
            ("baseline {graph} --eps-ratio inf", None),
            ("schedule {graph} --eps-max nan", None),
            ("schedule {graph} --procs 0", None),
            ("schedule {graph} --procs -3", None),
            ("generate --n 0 --out {tmp}", None),
            ("generate --count -1 --out {tmp}", None),
            ("generate --comm-min-ms nan --out {tmp}", None),
            ("fit {tmp}/missing.txt", None),
            # the points file is written to {cfg}
            ("fit {cfg}", "1.01 430.9\n1.26 abc\n1.53 710.7\n"),
            ("fit {cfg}", "1.01 430.9\n1.26 nan\n1.53 710.7\n"),
            ("fit {cfg}", "1.01 430.9\n1.26 556.8\n"),
            ("fit {cfg}", "1e60 100\n2.0 200\n3.0 300\n"),
            ("fit {cfg}", ""),
            ("fit {cfg} --delta nan", "1.01 430.9\n1.26 556.8\n1.53 710.7\n"),
            ("milp {tiny} --eps-ratio 0.9 --time-limit -1", None),
            ("milp {tiny} --eps-ratio 0.9 --time-limit nan", None),
            ("schedule {graph} --config {cfg}", "[platform]\nprocs = 0\n"),
            ("schedule {graph} --config {cfg}", "[platform]\nalpha = nan\n"),
            ("schedule {graph} --config {cfg}", "[platform]\nfreqs_ghz = 1.0, inf\n"),
            ("generate --config {cfg} --out {tmp}", "[generator]\nn_tasks = 0\n"),
            ("generate --config {cfg} --out {tmp}", "[generator]\nseed = x\n"),
            ("sweep {graph} --methods proposed --config {cfg}", "[sweep]\ntime_limit = nan\n"),
        ],
    )
    def test_bad_number_is_one_line_error(self, cmd, config, graph_file, tmp_path, capsys):
        tiny = tmp_path / "tiny"
        assert run(f"generate --n 3 --count 1 --seed 5 --out {tiny}") == 0
        (tiny_graph,) = tiny.glob("*.tg")
        cfg = tmp_path / "conf.ini"
        if config is not None:
            cfg.write_text(config)
        capsys.readouterr()
        argv = cmd.format(graph=graph_file, tiny=tiny_graph, tmp=tmp_path / "out", cfg=cfg)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "cmd, target",
        [
            ("generate --n 5 --out {target}", "{file}"),
            ("label {graph} --out {target}", "{missing}"),
            ("schedule {graph} --eps-ratio 0.9 --out {target}", "{missing}"),
            ("schedule {graph} --eps-ratio 0.9 --export-lp {target}", "{missing}"),
            ("baseline {graph} --eps-ratio 0.9 --out {target}", "{missing}"),
            ("milp {tiny} --eps-ratio 0.9 --export-lp {target}", "{missing}"),
            ("epsilon-star {graph} --export-lp {target}", "{missing}"),
            ("epsilon-star {graph} --out {target}", "{missing}"),
            ("sweep {graph} --out {target}", "{missing}"),
            ("sweep {graph} --out {target}", "{directory}"),
        ],
    )
    def test_is_one_line_error(self, cmd, target, graph_file, tmp_path, capsys):
        tiny = tmp_path / "tiny"
        assert run(f"generate --n 3 --count 1 --seed 5 --out {tiny}") == 0
        (tiny_graph,) = tiny.glob("*.tg")
        existing = tmp_path / "existing.txt"
        existing.write_text("kept\n")
        target = target.format(
            file=existing, missing=tmp_path / "missing" / "x.out", directory=tmp_path
        )
        capsys.readouterr()
        assert run(cmd.format(graph=graph_file, tiny=tiny_graph, target=target)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target!r}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert existing.read_text() == "kept\n"
