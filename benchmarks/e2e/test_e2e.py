"""Self-test of the end-to-end benchmark.

Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  It runs every
workload once untraced and once traced with ``--reps 1``, and checks
what later changes rely on: every metric ``BENCHMARK.json`` names is
printed with its unit, the traced layers account for the traced time, a
wrong pinned digest fails the run, a checkout without the library or a
run length other than the benchmark's fails without a result, and
``compare`` pairs runs and reaches the expected verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "-m", "benchmarks.e2e", "run", "--reps", "1",
        "--out", str(tmp_path / "out"),
        "--history", str(tmp_path / "history.jsonl"), *args,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def printed(stdout: str) -> dict[tuple[str, str], tuple[float, str]]:
    """``workload metric value unit n=N`` lines → {(workload, metric): (value, unit)}."""
    found = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[4].startswith("n="):
            found[(fields[0], fields[1])] = (float(fields[2]), fields[3])
    return found


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return bench(tmp, "--trace", "1"), tmp


def test_every_workload_prints_every_end_to_end_metric(untraced):
    assert untraced.returncode == 0, untraced.stderr[-3000:]
    lines = printed(untraced.stdout)
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            value, unit = lines[(workload, metric["name"])]
            assert unit == metric["unit"]
            assert value > 0, (workload, metric["name"])
        assert lines[(workload, "failed_frac")][0] == 0
    summary = json.loads(untraced.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1


def test_traced_layers_cover_the_traced_time(traced):
    done, tmp = traced
    assert done.returncode == 0, done.stderr[-3000:]
    lines = printed(done.stdout)
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            assert lines[(workload, metric["name"])][1] == metric["unit"]
        coverage = lines[(workload, "trace.coverage")][0]
        assert 0.95 <= coverage <= 1.05, (workload, coverage)
    spans = (tmp / "out" / "trace.jsonl").read_text().splitlines()
    assert {json.loads(line)["workload"] for line in spans} == set(WORKLOADS)


@pytest.mark.parametrize(
    "workload, key, wrong",
    [("campaign-cold", "campaign", "0" * 64), ("stream", "stream", ["0" * 64, 0.5])],
)
def test_a_tampered_digest_fails_the_run(tmp_path, workload, key, wrong):
    pinned = json.loads((ROOT / "benchmarks" / "e2e" / "pinned.json").read_text())
    pinned[key] = wrong
    tampered = tmp_path / "pinned.json"
    tampered.write_text(json.dumps(pinned))
    done = bench(
        tmp_path, "--workload", workload, "--seed", str(pinned["seed"]),
        "--pinned", str(tampered),
    )
    assert done.returncode != 0
    summary = json.loads(done.stdout.splitlines()[-1])
    assert not summary["correct"] and summary["failed"] > 0
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert printed(done.stdout)[(workload, "failed_frac")][0] > 0


def test_without_the_library_it_fails_and_prints_no_result(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench(tmp_path / "out", "--workload", "stream", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_another_run_length_is_refused(tmp_path):
    seconds = str(SPEC["run_seconds"] + 1)
    done = bench(tmp_path, "--workload", "stream", "--seconds", seconds)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 0.8 for v in base]
    tied = [v * 1.01 for v in reversed(base)]
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]
    slower = [v * 1.3 for v in base]
    assert compare.verdict(base, faster, 0.1, "lower")[0] == "improved"
    assert compare.verdict(base, tied, 0.1, "lower")[0] == "unchanged"
    assert compare.verdict(wide, list(reversed(wide)), 0.1, "lower")[0] == "unresolved"
    assert compare.verdict(base, slower, 0.1, "lower")[0] == "worse"
    assert compare.verdict(base, faster, 0.1, "higher")[0] == "worse"


def records(values: list[float], seeds=None, seconds: float = 10.0) -> list[dict]:
    """Run records holding one stream latency each, in run order."""
    seeds = seeds or range(1, len(values) + 1)
    return [
        {"seed": seed, "seconds": seconds, "trace": False,
         "workloads": {"stream": {
             "attempted": 10, "failed": 0,
             "metrics": {"latency_ms": {"value": value, "unit": "ms"}},
         }}}
        for seed, value in zip(seeds, values)
    ]


def test_compare_pairs_runs_from_run_records():
    base = [10.0 + seed % 3 for seed in range(1, 11)]
    rows = compare.compare(records(base), records([v * 0.5 for v in base]), SPEC)
    assert [(r.workload, r.metric, r.verdict) for r in rows] == [
        ("stream", "latency_ms", "improved")
    ]
    assert compare.failed_fractions(records(base)) == {"stream": 0.0}


def test_compare_pairs_runs_of_one_seed_in_run_order():
    # Every run used the same seed.  In run order the change wins four
    # pairs and ties one; pairing by rank of value would make it lose
    # all, and read "worse" by twice the bound.
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "latency_ms")
    parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]
    change = [v * (1 + 2 * bound) for v in reversed(parent)]
    [row] = compare.compare(
        records(parent, seeds=[7] * 10), records(change, seeds=[7] * 10), SPEC
    )
    assert row.win_fraction == 0.4
    assert row.verdict == "unresolved"


def test_compare_refuses_runs_it_cannot_pair():
    with pytest.raises(ValueError, match="9 change run"):
        compare.compare(records([10.0] * 10), records([10.0] * 9), SPEC)
    with pytest.raises(ValueError, match="different lengths"):
        compare.compare(records([10.0] * 10), records([10.0] * 10, seconds=5.0), SPEC)
