"""The benchmark's own test: smoke runs of every workload, both modes.

Run from the root of a checkout with ``python3 -m pytest bench``.  It is
kept out of the package's test suite (``testpaths`` is ``tests``) because
every case starts fresh interpreters.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last


def smoke(workload, trace, seed=3):
    return result(run("--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace), "--smoke"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    out = smoke(workload, 0)
    assert out["correct"] and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_counts_repeat(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counts = [name for name, unit in expected.items() if unit in ("count", "bits", "bytes")]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["probnum.series_calls"]["value"] > 0


def test_identity_points_follow_the_seed():
    import workloads

    assert workloads.identity_points(5) == workloads.identity_points(5)
    points = workloads.identity_points(5)
    assert len(set(points)) == 5 and all(abs(x) <= 1 for x in points)


def test_euler_oracle():
    import workloads
    from fractions import Fraction as F

    assert workloads.euler_coefficients(2) == (F(0), F(-1), F(1))
    assert workloads.euler_coefficients(3) == (F(1, 4), F(0), F(-3, 2), F(1))


def test_importtime_parsing():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |     fractions",
        "import time:        40 |        390 |   chebprob.stochastic",
        "import time:        10 |        400 | chebprob",
    ])
    figures = tracer.parse_importtime(stderr)
    assert figures["import.numpy_scipy_s"] == pytest.approx(300e-6)
    assert figures["import.chebprob_s"] == pytest.approx(50e-6)
    assert figures["cli.import_s"] == pytest.approx(400e-6)


def test_benchmark_json_lists_the_tracer_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.PER_LAYER]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "law", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
