"""Tests of the benchmark itself: inputs, references, checks and tracing.

    python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from crystalcalc import cli, crystal, series, simplicial  # noqa: E402
from crystalcalc.series import PDSeries  # noqa: E402

SMALL_COMPARE = "compare --algebra gm --p 3 --N 2 --D 3 --E 3 --M 2".split()


def test_seed0_yields_the_documented_command_lines():
    assert workloads.argv_lists("torus-compare", 0) == [
        "compare --algebra gm --p 3 --N 3 --D 6 --E 9 --M 2".split(),
        "cris --algebra gm --p 3 --N 2 --D 4 --E 6 --M 2".split()]
    assert workloads.argv_lists("curve-compare", 0) == [
        "compare --algebra ell-3-1-2 --p 3 --N 3 --D 4 --E 4 --M 2".split()]
    assert workloads.argv_lists("line-derham", 0) == [
        "dr --algebra a1 --p 2 --N 3 --D 7 --E 9 --M 2 --poincare-m 3 "
        "--base-change".split(),
        "dr --algebra a1 --p 2 --N 2 --E 6 --cech x,x-1".split()]
    assert workloads.argv_lists("interval-fillers", 0) == [
        "verify-simplicial --p 2 --N 2 --D 5 --m-max 2".split()]


def masked(argv):
    """argv with the values of --p, --N and --seed blanked out."""
    return [a if k == 0 or argv[k - 1] not in ("--p", "--N", "--seed") else "*"
            for k, a in enumerate(argv)]


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_other_seeds_draw_p_and_N_of_light_commands(workload):
    seed0 = workloads.argv_lists(workload, 0)
    for seed in range(1, 40):
        drawn = workloads.argv_lists(workload, seed)
        assert drawn == workloads.argv_lists(workload, seed)
        assert [masked(a) for a in drawn] == \
            [masked(a + ["--seed", "0"]) for a in seed0]
        for argv, base, (_line, _pn, choices) in zip(
                drawn, seed0, workloads.COMMANDS[workload]):
            opts = workloads._options(argv)
            assert opts["seed"] == str(seed)
            pn = (int(opts["p"]), int(opts["N"]))
            if choices is None:
                assert argv[:len(base)] == base
            else:
                assert pn in choices


def test_oracle_spot_values_gm_p3_N3():
    cells = workloads.oracle_cells("gm", 3, 3, 9)
    assert cells[(0, "3")] == "3"      # Z/3
    assert cells[(0, "9")] == "9"      # Z/9
    assert cells[(0, "1")] == "0"      # trivial
    assert cells[(1, "0")] == "27"     # Z/27, the class dx/x
    assert set(cells) == {(i, str(g)) for i in (0, 1) for g in range(-8, 10)}


def test_cell_check_rejects_a_wrong_divisor():
    job = workloads._cli_job(SMALL_COMPARE)
    code, text = workloads.run_cli(SMALL_COMPARE)
    assert job.check((code, text)) == len(workloads.oracle_cells("gm", 3, 2, 3))
    bad = text.replace("H^1 g=0: 9", "H^1 g=0: 3")
    assert bad != text
    with pytest.raises(workloads.CheckFailed):
        job.check((code, bad))
    with pytest.raises(workloads.CheckFailed):
        job.check((1, text))


def test_filler_checks_reject_a_wrong_filler():
    jobs = workloads._library_jobs(random.Random(5))
    fillers = next(j for j in jobs if j.name.startswith("interval-ring"))
    output = fillers.run()
    assert fillers.check(output) == workloads.FILLER_TRIALS
    spoiled = [output[0].add(PDSeries.one(output[0].spec))] + output[1:]
    with pytest.raises(workloads.CheckFailed):
        fillers.check(spoiled)


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    original = series.pd_substitute
    with tracer.Tracer():
        assert crystal.pd_substitute is series.pd_substitute
        assert simplicial.pd_substitute is series.pd_substitute
        assert series.pd_substitute is not original
        assert cli.cris is crystal.cris
        assert cli.compare_dr_cris.__wrapped__ is not None
        assert "__wrapped__" in vars(crystal.DoubleComplex.face_matrix)
    assert series.pd_substitute is original
    assert crystal.pd_substitute is original
    assert not hasattr(crystal.DoubleComplex.face_matrix, "__wrapped__")


def traced_run(argv):
    tr = tracer.Tracer()
    with tr:
        tr.job = "job"
        out = workloads.run_cli(argv)
    return tr, out


def test_face_maps_are_traced_and_counts_repeat_exactly():
    plain = workloads.run_cli(SMALL_COMPARE)
    first, out1 = traced_run(SMALL_COMPARE)
    second, out2 = traced_run(SMALL_COMPARE)
    assert plain == out1 == out2        # tracing leaves the report unchanged
    counts = first.counts()
    assert counts["crystal.face_matrix.calls"] > 0
    assert counts["series.pd_substitute.calls"] > 0
    assert 0 < counts["crystal.face_matrix.distinct"] \
        <= counts["crystal.face_matrix.calls"]
    assert counts["crystal.DoubleComplex.calls"] == 3
    assert counts == second.counts()


def test_line_derham_makes_no_face_maps():
    tr = tracer.Tracer()
    with tr:
        for argv in workloads.argv_lists("line-derham", 0):
            code, _text = workloads.run_cli(argv)
            assert code == 0
    counts = tr.counts()
    assert counts["crystal.face_matrix.calls"] == 0
    assert counts["derham.dmat.calls"] > 0
    assert counts["localized.cech_descent_check.calls"] == 1


def test_speed_sampler_interrupts_running_work():
    assert speed.reference_kernel() == speed.reference_kernel()
    sampler = speed.SpeedSampler(period=0.01)
    with sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.samples) >= 5
    count = len(sampler.samples)
    time.sleep(0.05)
    assert len(sampler.samples) == count     # disarmed on exit


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.COMMANDS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-compare",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
