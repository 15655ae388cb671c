"""Parent-versus-change verdicts over paired benchmark runs.

Each side is a set of untraced ``run`` records (a ``runs.jsonl`` in a
``--out`` directory, or a history file), all measured for the same
``seconds``.  Both sides must hold the same number of runs of each
workload.  Runs are paired by seed when both sides used the same seeds,
runs sharing a seed in the order they were made, and otherwise in the
order they were made.  For every workload × end-to-end metric the
verdict is:

* **improved** — the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's quartiles;
* **worse** — the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``, and either the
  run-to-run spread is within the bound or the change loses 9 of every
  10 pairs;
* **unresolved** — the spread (the larger side's quartile distance over
  its median) is wider than the bound, unless every run of the change
  reads better than every run of the parent;
* **unchanged** — otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Row:
    """One workload × metric comparison."""

    workload: str
    metric: str
    unit: str
    parent_median: float
    parent_q1: float
    parent_q3: float
    change_median: float
    change_q1: float
    change_q3: float
    pairs: int
    win_fraction: float
    worse_by: float
    spread: float
    bound: float
    verdict: str


def load_runs(path: Path) -> list[dict]:
    """Untraced run records from a ``--out`` directory or a JSONL file."""
    path = Path(path)
    if path.is_dir():
        path = path / "runs.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [r for r in records if not r.get("trace")]


def _series(records: list[dict], workload: str, metric: str) -> list[tuple[int, float]]:
    out = []
    for record in records:
        entry = record["workloads"].get(workload)
        if entry is not None and metric in entry["metrics"]:
            out.append((record["seed"], entry["metrics"][metric]["value"]))
    return out


def _pairs(parent: list[tuple[int, float]], change: list[tuple[int, float]]):
    """(parent, change) value pairs; see the module docstring."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent run(s) against {len(change)} change run(s)")
    if sorted(s for s, _ in parent) == sorted(s for s, _ in change):
        # A stable sort on the seed alone keeps run order within a seed.
        parent = sorted(parent, key=lambda run: run[0])
        change = sorted(change, key=lambda run: run[0])
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], bound: float, better: str
) -> tuple[str, dict]:
    """Classify one metric; *parent* and *change* are paired run values."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    n = len(pairs)
    if n and wins >= 0.9 * n and worse_by < 0 and abs(cm - pm) > p3 - p1:
        label = "improved"
    elif worse_by > bound and (spread <= bound or (n and losses >= 0.9 * n)):
        label = "worse"
    elif spread > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    stats = {
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "pairs": n, "win_fraction": wins / n if n else 0.0,
        "worse_by": worse_by, "spread": spread,
    }
    return label, stats


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[Row]:
    """One :class:`Row` per workload × end-to-end metric present on both sides.

    Raises ValueError when the runs differ in length or, for a workload
    and metric, in number.
    """
    lengths = {float(r["seconds"]) for r in parent + change}
    if len(lengths) > 1:
        raise ValueError(f"runs of different lengths: {sorted(lengths)} s")
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            try:
                pairs = _pairs(
                    _series(parent, workload, metric["name"]),
                    _series(change, workload, metric["name"]),
                )
            except ValueError as exc:
                raise ValueError(f"{workload} {metric['name']}: {exc}") from None
            if not pairs:
                continue
            label, stats = verdict(
                [p for p, _ in pairs], [c for _, c in pairs], metric["bound"], metric["better"]
            )
            rows.append(
                Row(workload=workload, metric=metric["name"], unit=metric["unit"],
                    bound=metric["bound"], verdict=label, **stats)
            )
    return rows


def failed_fractions(records: list[dict]) -> dict[str, float]:
    """Per workload: failed operations over attempted ones, across runs."""
    totals: dict[str, list[int]] = {}
    for record in records:
        for workload, entry in record["workloads"].items():
            slot = totals.setdefault(workload, [0, 0])
            slot[0] += entry["failed"]
            slot[1] += entry["attempted"]
    return {w: failed / max(attempted, 1) for w, (failed, attempted) in totals.items()}


def render(rows: list[Row]) -> str:
    """One line per row: both medians with quartiles, wins, change, verdict."""
    lines = [
        f"{'workload':<16} {'metric':<12} {'parent median [q1 q3]':>30} "
        f"{'change median [q1 q3]':>30} {'wins':>5} {'worse':>7} {'bound':>6}  verdict"
    ]
    for r in rows:
        parent = f"{r.parent_median:.5g} [{r.parent_q1:.4g} {r.parent_q3:.4g}]"
        change = f"{r.change_median:.5g} [{r.change_q1:.4g} {r.change_q3:.4g}]"
        lines.append(
            f"{r.workload:<16} {r.metric:<12} {parent:>30} {change:>30} "
            f"{r.win_fraction:>5.0%} {r.worse_by:>+7.1%} {r.bound:>6.0%}  {r.verdict}"
        )
    return "\n".join(lines)


def main(parent_path: Path, change_path: Path, spec_path: Path, json_out: Path | None) -> int:
    """Print the comparison; non-zero on any "worse" or more failures.

    Runs that cannot be paired are refused with exit status 2.
    """
    spec = json.loads(Path(spec_path).read_text())
    parent, change = load_runs(parent_path), load_runs(change_path)
    try:
        rows = compare(parent, change, spec)
    except ValueError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    parent_failed, change_failed = failed_fractions(parent), failed_fractions(change)
    more_failures = [
        w for w, frac in change_failed.items() if frac > parent_failed.get(w, 0.0)
    ]
    for workload in more_failures:
        print(
            f"{workload}: failed fraction rose from {parent_failed.get(workload, 0.0):.3g} "
            f"to {change_failed[workload]:.3g}"
        )
    if json_out is not None:
        Path(json_out).write_text(
            json.dumps(
                {"rows": [asdict(r) for r in rows],
                 "failed_fraction": {"parent": parent_failed, "change": change_failed}},
                indent=1,
            ) + "\n"
        )
    worse = [r for r in rows if r.verdict == "worse"]
    return 1 if worse or more_failures else 0
