"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench -q

Each test runs `perfbench/run.py` from the root of a checkout: the
repository itself, or a copy under a temporary directory in which one
file was changed on purpose.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline-cold", "pipeline-warm", "lift-verify-char", "hecke-identity")


def bench(root, workload, trace=0, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(tmp_path, with_src=True):
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(ROOT, "perfbench"), root / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=ignore)
    return root


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload):
    result = result_of(bench(ROOT, workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_trace_reports_every_layer_metric():
    warm = result_of(bench(ROOT, "pipeline-warm", trace=1))["metrics"]
    cold = result_of(bench(ROOT, "pipeline-cold", trace=1))["metrics"]
    char = result_of(bench(ROOT, "lift-verify-char", trace=1))["metrics"]
    hecke = result_of(bench(ROOT, "hecke-identity", trace=1))["metrics"]
    for metrics in (warm, cold, char, hecke):
        assert set(metrics) == declared("per_layer")
    assert warm["numtheory.h_cache.hit_ratio"]["value"] == 1.0
    assert 0 < cold["numtheory.h_cache.hit_ratio"]["value"] < 1.0
    assert cold["numtheory.cohen_h.calls"] == warm["numtheory.cohen_h.calls"]
    assert cold["jacobi.mul_elliptic.pair_ops"]["value"] > 0
    for metrics in (char, hecke):
        assert metrics["numtheory.cohen_h.calls"]["value"] == 0
        assert metrics["jacobi.mul_elliptic.calls"]["value"] == 0
    assert char["siegel.check_classical.violations"]["value"] > 0  # the perturbed lifts
    assert hecke["hecke.canonicalize_coset.calls"]["value"] > 0


def test_tampered_reference_digest_is_a_failure(tmp_path):
    root = copy_checkout(tmp_path)
    reference = root / "perfbench" / "reference.txt"
    lines = reference.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("tiny/pipeline/phi10_1.sksf "))
    key, digest = lines[at].split()
    lines[at] = f"{key} {'0' if digest[0] != '0' else '1'}{digest[1:]}"
    reference.write_text("\n".join(lines) + "\n")
    result = result_of(bench(root, "pipeline-warm"))
    assert not result["correct"]
    assert result["failed"] == 1


def test_blind_verifier_is_a_failure(tmp_path):
    # a verifier that never compares the two sides passes everything,
    # including the perturbed lifts, which must then count as failures
    root = copy_checkout(tmp_path)
    siegel = root / "src" / "sklift" / "siegel.py"
    text = siegel.read_text()
    assert text.count("if left != right:") == 3
    siegel.write_text(text.replace("if left != right:", "if False:"))
    result = result_of(bench(root, "lift-verify-char", seed=7))
    assert not result["correct"]
    assert result["failed"] == 2  # one perturbed lift per input


def test_fails_without_the_sources(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = bench(root, "hecke-identity")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
