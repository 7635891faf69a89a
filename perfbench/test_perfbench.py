"""Tests of the benchmark's own code: oracles, witness replay, workloads, tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import treesub as ts  # noqa: E402

import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_chain_dp_equals_exhaustive_minimum(arity):
    cert = workloads.Certifier()
    for k in range(5):
        spec = orc.descent_instance(random.Random(f"dp{arity}:{k}"), arity)
        _, best = ts.minimize_exhaustive(cert.function(spec))
        assert orc.chain_dp_min(spec) == best
    assert not cert.failures()


def test_own_table_matches_package_evaluation():
    cert = workloads.Certifier()
    spec = orc.mixed_instance(random.Random(0), workloads.B7_2_C10)
    f = cert.function(spec)
    assert list(ts.materialize(f).values) == spec.table()


def test_witness_replay_confirms_planted_violation():
    spec = orc.planted_violator(random.Random(1), 2)
    f = workloads.Certifier().uncertified(spec)
    report = ts.check_strong(f)
    assert not report.ok
    assert orc.replay_witness(ts.meet_join, f.domain.trees, spec.value, report.witness) is None
    # the pair named in the planted construction violates too
    known = workloads._Witness((1, 1), (1, 2), spec.value((1, 1)) + spec.value((1, 2)),
                               2 * spec.value((1, 0)))
    assert orc.replay_witness(ts.meet_join, f.domain.trees, spec.value, known) is None


def test_witness_replay_rejects_bad_witnesses():
    spec = orc.planted_violator(random.Random(1), 2)
    f = workloads.Certifier().uncertified(spec)
    witness = ts.check_strong(f).witness
    wrong_rhs = replace(witness, rhs=witness.rhs + 1)
    assert "replay gives" in orc.replay_witness(ts.meet_join, f.domain.trees, spec.value, wrong_rhs)
    same = replace(witness, y=witness.x, lhs=0, rhs=0)
    assert "does not violate" in orc.replay_witness(ts.meet_join, f.domain.trees, spec.value, same)


def test_descent_check_flags_a_wrong_minimum():
    cert = workloads.Certifier()
    spec = orc.descent_instance(random.Random(2), 4)
    x, value, trace = ts.minimize(cert.function(spec), None, spec.start)
    check = workloads._descent_check(spec, orc.chain_dp_min(spec))
    assert check((x, value, trace)) is None
    assert "chain DP" in check((x, value + 1, trace))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_of_each_workload_has_no_failures(name, tmp_path):
    built = workloads.WORKLOADS[name](7, tmp_path)
    assert not built.premise
    lat, complaints = run.run_ops(built.ops, 0.0, built.cycle, run.HostSpeed())
    assert len(lat) == built.cycle
    assert complaints == []


def test_traced_ops_add_up_and_restore_the_package(tmp_path):
    from treesub import descent

    original = descent.sfm_brute
    built = workloads.WORKLOADS["cli-batch"](3, tmp_path)
    t, walls, complaints = run.run_traced(built.ops, built.cycle, run.HostSpeed())
    assert complaints == []
    assert descent.sfm_brute is original
    assert tr.self_time_gap(t) <= 1e-6
    layers = tr.layer_metrics(t, walls)
    assert layers["cli.parse_s"][0] > 0
    assert layers["weak.minimize_s"][0] > 0
    assert 0 < layers["descent.cert_evals_frac"][0] < 1


def test_host_speed_scales_by_the_windowed_median():
    speed = run.HostSpeed()
    speed.samples = [2 * speed.REF_S] * 5 + [speed.REF_S] * 20
    assert speed.scaled([1.0])[0] == pytest.approx(0.5)
    assert speed.scaled([1.0], first=24)[0] == pytest.approx(1.0)
    speed.sample()
    assert len(speed.samples) == 26 and speed.samples[-1] > 0


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent-brute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_result_line_carries_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent-minnorm", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_traced_result_line_carries_every_declared_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent-minnorm", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
