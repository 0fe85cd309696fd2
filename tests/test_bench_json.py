import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def write_result(directory, seed, wall, src_lines, trace=0, iterations=None):
    env = {
        "workload": "sweep", "seed": seed, "trace": trace, "python": "3.11.0",
        "numpy": "2.0.0", "scipy": "1.13.0", "nproc": 2,
        "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}, "src_lines": src_lines,
        "loadavg_1m_start": 0.5, "loadavg_1m_end": 0.7,
    }
    result = {
        "env": env,
        "fail_rate": 0.0,
        "failures": [],
        "end_to_end": {"wall_s": wall, "peak_rss_mb": 50.0},
        "per_layer": {} if iterations is None else {"lp.iterations": iterations},
    }
    (directory / f"result-sweep-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_folds_parent_and_change(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, (p_wall, c_wall) in enumerate([(3.0, 2.0), (3.2, 1.9), (3.1, 3.3)]):
        write_result(parent, seed, p_wall, 4137)
        write_result(change, seed, c_wall, 4100)
    write_result(parent, 0, 3.0, 4137, trace=1, iterations=4138)
    write_result(change, 0, 2.0, 4100, trace=1, iterations=4086)
    subprocess.run(
        [sys.executable, str(SCRIPT), "--tag", "test", "--parent", str(parent),
         "--change", str(change)],
        check=True, capture_output=True, cwd=tmp_path,
    )
    bench = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert bench["tag"] == "test"
    assert bench["src_lines"] == {"parent": 4137, "change": 4100}
    assert bench["environment"]["numpy"] == "2.0.0"
    sweep = bench["workloads"]["sweep"]
    wall = sweep["end_to_end"]["wall_s"]
    assert wall["parent"]["median"] == 3.1 and wall["parent"]["runs"] == 3
    assert wall["change"]["median"] == 2.0
    assert wall["change_won_pairs"] == "2/3"
    ratio = wall["change_over_parent"]
    assert ratio["pairs"] == 3 and ratio["median"] == 2.0 / 3.0
    assert ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert sweep["per_layer"]["lp.iterations"]["change"]["median"] == 4086
    assert sweep["fail_rate_max"] == {"parent": 0.0, "change": 0.0}


def test_paired_ratio_sees_through_a_speed_swing(tmp_path):
    # the host alternates between a fast and a slow state, and both runs of
    # a seed share one; the change is 10% faster in every pair
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, p_wall in enumerate([2.0, 3.0, 2.0, 3.0]):
        write_result(parent, seed, p_wall, 4137)
        write_result(change, seed, 0.9 * p_wall, 4100)
    write_result(parent, 9, 3.0, 4137)  # a seed with no pair
    subprocess.run(
        [sys.executable, str(SCRIPT), "--tag", "swing", "--parent", str(parent),
         "--change", str(change)],
        check=True, capture_output=True, cwd=tmp_path,
    )
    bench = json.loads((tmp_path / "BENCH_swing.json").read_text())
    wall = bench["workloads"]["sweep"]["end_to_end"]["wall_s"]
    # unpaired, the change's median lies between the parent's quartiles
    assert wall["parent"]["q1"] < wall["change"]["median"] < wall["parent"]["q3"]
    assert wall["change_won_pairs"] == "4/4"
    ratio = wall["change_over_parent"]
    assert ratio["pairs"] == 4
    for key in ("q1", "median", "q3"):
        assert ratio[key] == pytest.approx(0.9, rel=1e-12)


def test_empty_directory_is_an_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--tag", "x", "--parent", str(tmp_path),
         "--change", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert proc.returncode != 0 and "no result-*.json" in proc.stderr
    assert not (tmp_path / "BENCH_x.json").exists()
