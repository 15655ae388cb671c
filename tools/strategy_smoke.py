"""End-to-end smoke of the adaptive strategy arms — the CI adaptive job.

Drives the real ``repro fig2 --quick --strategy adaptive`` CLI as a
subprocess and checks the adaptive arm column lands in the emitted
table, so the operator-facing flag path stays wired.  Backend
byte-identity for the strategy arms is covered by
``tests/strategies/test_backends.py``.

Exits non-zero on any failed check.  Runs in well under a minute::

    PYTHONPATH=src python tools/strategy_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli_flag_path() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="repro-strategy-smoke-") as tmp:
        out = Path(tmp) / "fig2.json"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "fig2", "--quick",
                "--strategy", "adaptive", "--json", str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        blob = out.read_text()
    assert "Algo_NGST adaptive L=50" in blob, (
        "adaptive arm missing from the CLI fig2 output"
    )
    print("strategy smoke: `repro fig2 --quick --strategy adaptive` OK")


def main() -> int:
    _cli_flag_path()
    return 0


if __name__ == "__main__":
    sys.exit(main())
