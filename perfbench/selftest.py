"""Self-tests for the benchmark, at a tiny input size.

Run from the repository root:
  python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS, build_plan  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import layer_units, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def known_defect_share(workload: str, root: Path) -> float:
    plan = build_plan(workload, 1, "tiny", root)
    return sum(r["known_defect"] is not None for r in plan) / len(plan)


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, _ = tiny(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_inputs_and_fails_only_known_defects(workload, tmp_path):
    digests = []
    for seed in (1, 2):
        root = tmp_path / str(seed)
        build_plan(workload, seed, "tiny", root)
        digests.append(hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(root.iterdir()))).hexdigest())
    assert digests[0] != digests[1]

    result, stdout = tiny(workload, 2, 0)
    assert result["correct"] is True
    assert result["failed"] == round(
        result["attempted"] * known_defect_share(workload, tmp_path / "plan"))
    assert "UNEXPECTED" not in stdout


def test_known_defects_are_counted_on_cli_small(tmp_path):
    result, stdout = tiny("cli-small", 1, 0)
    assert result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(
        1 - known_defect_share("cli-small", tmp_path))
    assert "betti:rp2" in stdout and "decompose:nan" in stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "homology", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_times_add_up_and_nesting_is_checked():
    spans = [
        (0, 0, None, "cli.overhead", 0.0, 10.0, None),
        (0, 1, 0, "io.parse", 1.0, 3.0, None),
        (0, 2, 1, "complex.build", 1.5, 2.5, None),
        (0, 3, 0, "homology.rank_real", 4.0, 9.0, None),
    ]
    selfs, problems = self_times(spans)
    assert problems == []
    assert selfs == {0: 3.0, 1: 1.0, 2: 1.0, 3: 5.0}
    bad = spans + [(0, 4, 3, "chains.toarray", 8.5, 9.5, None)]
    assert self_times(bad)[1]
