"""Smoke tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench

Each workload runs with ``--smoke`` (a few points, pairs or intervals), so
the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import import_sdstab  # noqa: E402
from tracing import COUNTERS  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, seed=0):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def units_of(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_the_spec(workload):
    out = result_of(run_bench(workload, 0, seed=3))
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert units_of(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_match_the_spec_and_counters_repeat(workload):
    first = result_of(run_bench(workload, 1))
    second = result_of(run_bench(workload, 1))
    assert first["correct"] and second["correct"]
    assert units_of(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counters = [{k: out["metrics"][k]["value"] for k in COUNTERS} for out in (first, second)]
    assert counters[0] == counters[1]
    assert any(counters[0].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("lie-grid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_synthesis_gate_rejects_a_wrong_gain(tmp_path):
    import_sdstab()
    import workloads

    wl = workloads.SynthBatch(0, True, str(tmp_path))
    result = wl.inspect(wl.run())
    assert wl.check([result]) == []
    i = next(k for k, res in enumerate(wl.reference) if not isinstance(res, Exception))
    res = wl.reference[i]
    wl.reference[i] = type(res)(
        gain=res.gain * 1.01, lyapunov=res.lyapunov, decay=res.decay, abscissa=res.abscissa, riccati=res.riccati
    )
    assert wl.check([result]) != []


def test_lie_grid_gate_rejects_a_wrong_label(tmp_path):
    import_sdstab()
    import workloads

    wl = workloads.LieGrid(0, True, str(tmp_path))
    result = wl.inspect(wl.run())
    assert wl.check([result]) == []
    k = next(k for k, p in enumerate(wl.points) if np.all(p != 0.0))
    wl.reference[k] = ("FAIL",) + wl.reference[k][1:]
    assert wl.check([result]) != []
