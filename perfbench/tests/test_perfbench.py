"""The benchmark's own tests: tiny runs of every workload and the gates.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Every test drives ``perfbench/run.py`` as a subprocess, exactly as the
benchmark is invoked, with ``--tiny`` inputs and a private state
directory.
"""

from __future__ import annotations

import glob
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.harness import p75  # noqa: E402

WORKLOADS = ("corpus-cold", "sweep-backbone", "serve-edit")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(state, *extra, root=ROOT):
    result = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--tiny",
         "--seed", "1", "--seconds", "0", "--state-dir", str(state), *extra],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=root,
    )
    lines = result.stdout.strip().splitlines()
    document = None
    if lines:
        try:
            document = json.loads(lines[-1])
        except ValueError:
            document = None
    return result, document


def expected_units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert expected_units("end_to_end") == workloads.END_TO_END


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(tmp_path, workload):
    result, document = run_bench(tmp_path, "--workload", workload)
    assert result.returncode == 0, result.stdout + result.stderr
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert document["attempted"] >= 1 and document["failed"] == 0
    units = {name: m["unit"] for name, m in document["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(m["value"] > 0 for m in document["metrics"].values())
    for name, unit in units.items():
        assert f"{name} = " in result.stdout and result.stdout.count(f" {unit}\n") >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(tmp_path, workload):
    result, document = run_bench(tmp_path, "--workload", workload, "--trace", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert document["correct"] is True
    units = {name: m["unit"] for name, m in document["metrics"].items()}
    assert units == expected_units("per_layer")
    for name in ("ios.parse_s", "core.pathways_s", "routing.baseline_s", "serve.generation_s"):
        assert document["metrics"][name]["value"] > 0
    records = glob.glob(os.path.join(str(tmp_path), "results", "*trace1.json"))
    with open(records[0], encoding="utf-8") as handle:
        spans = json.load(handle)["workloads"][0]["spans"]
    assert any(span["name"].startswith("replica.") for span in spans)


def test_traced_run_reuses_the_recorded_untraced_median(tmp_path):
    result, _ = run_bench(tmp_path, "--workload", "serve-edit")
    assert result.returncode == 0, result.stdout + result.stderr
    result, traced = run_bench(tmp_path, "--workload", "serve-edit", "--trace", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    (record,) = glob.glob(os.path.join(str(tmp_path), "results", "*trace1.json"))
    with open(record, encoding="utf-8") as handle:
        samples = json.load(handle)["workloads"][0]["samples"]
    assert [s["kind"] for s in samples] == ["traced"]
    assert traced["attempted"] >= 1 and traced["failed"] == 0


def test_all_runs_every_workload_by_name(tmp_path):
    result, document = run_bench(tmp_path, "--workload", "all")
    assert result.returncode == 0, result.stdout + result.stderr
    assert set(document["metrics"]) == {
        f"{w}/{m}" for w in WORKLOADS for m in workloads.END_TO_END
    }
    for workload in WORKLOADS:
        assert f"{workload}: ops=" in result.stdout


def test_gate_fails_when_a_router_file_is_removed(tmp_path):
    result, _ = run_bench(tmp_path, "--workload", "corpus-cold")
    assert result.returncode == 0, result.stdout + result.stderr
    (tree,) = glob.glob(os.path.join(str(tmp_path), "inputs", "corpus-v1-*", "tree"))
    archive = os.path.join(tree, sorted(os.listdir(tree))[-1])
    os.remove(os.path.join(archive, sorted(os.listdir(archive))[0]))
    result, document = run_bench(tmp_path, "--workload", "corpus-cold")
    assert result.returncode != 0
    assert document["correct"] is False and document["failed"] >= 1
    assert "generator built" in result.stdout


def test_gate_fails_on_a_wrong_recorded_digest(tmp_path):
    with open(os.path.join(PERFBENCH, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    for slots in expected.values():
        for slot in slots:
            slots[slot] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    result, document = run_bench(
        tmp_path, "--workload", "sweep-backbone", "--expected", str(wrong)
    )
    assert result.returncode != 0
    assert document["correct"] is False
    assert document["failed"] == document["attempted"]
    assert "result digest" in result.stdout


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    result, document = run_bench(tmp_path / "state", "--workload", "corpus-cold", root=str(tmp_path))
    assert result.returncode != 0
    assert document is None
    assert "cannot benchmark" in result.stderr


def test_edits_are_seeded_and_change_the_file():
    text = "hostname r1\n!\ninterface Serial0/0\n ip address 10.0.0.1 255.255.255.252\n!\nend\n"
    first = workloads.apply_edit(text, random.Random(3), 0)
    assert first == workloads.apply_edit(text, random.Random(3), 0)
    assert first != text and first.rstrip().endswith("end")


def test_upper_quartile_of_one_sample_is_the_sample():
    assert p75([2.0]) == 2.0
    assert p75([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
