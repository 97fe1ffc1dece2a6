"""Tests for the benchmark itself: the generator's determinism and tiny runs
of every workload.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_same_seed_gives_identical_files_other_seed_differs(tmp_path):
    gen.generate(tmp_path / "a", 3, gen.SIZES["tiny"])
    gen.generate(tmp_path / "b", 3, gen.SIZES["tiny"])
    gen.generate(tmp_path / "c", 4, gen.SIZES["tiny"])
    first, again, other = (_files(tmp_path / x) for x in "abc")
    assert set(first) == {"corpus.json", "docs.json", "db.json", "ontology.json", "predictions.json", "meta.json"}
    assert first == again
    for name in ("corpus.json", "docs.json", "db.json", "predictions.json"):
        assert first[name] != other[name], name


def test_generator_db_rows_use_the_loader_schema(tmp_path):
    gen.generate(tmp_path, 5, gen.SIZES["tiny"])
    db = json.loads((tmp_path / "db.json").read_text(encoding="utf-8"))
    rows = [row for table in db.values() for row in table]
    assert rows and all(set(row) == {"slots", "bookable"} for row in rows)


def test_every_pass_of_every_run_gets_a_dataset_of_its_own():
    seeds = {run.pass_seed(seed, k) for seed in (1, 2, 7919) for k in range(1000)}
    assert len(seeds) == 3000
    assert [run.pass_seed(seed, 0) for seed in (1, 2, 7919)] == [1, 2, 7919]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit_and_no_failure(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert details["failed_ratio"] == 0.0
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert set(details["as_measured"]) < set(result["metrics"])
        assert all(v > 0 for v in details["as_measured"].values())


def test_reference_speed_scales_each_time_by_its_own_reading():
    assert run.at_reference_speed([0.2, 0.3], [run.REFERENCE_READING_S * 2, run.REFERENCE_READING_S / 2]) == pytest.approx([0.1, 0.6])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
