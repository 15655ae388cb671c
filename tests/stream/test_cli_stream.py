"""The ``repro stream`` subcommand, including mid-campaign kill/resume."""

import json

import numpy as np
import pytest

from repro.cli import main as repro_main
from repro.stream.cli import (
    EXIT_FINGERPRINT_MISMATCH,
    EXIT_INCOMPLETE,
    main as stream_main,
)


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    rc = stream_main(args + ["--json", str(out)])
    return rc, json.loads(out.read_text())


class TestBasicRuns:
    def test_delegated_through_repro_main(self, capsys):
        rc = repro_main(["stream", "--frames", "64", "--chunk-frames", "32"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "frames in/out      64/64" in captured.out
        assert "psi algorithm" in captured.out

    def test_json_output_schema(self, tmp_path):
        rc, data = run_json(
            tmp_path, ["--frames", "96", "--chunk-frames", "32", "--shape", "8"]
        )
        assert rc == 0
        assert data["n_frames_in"] == data["n_frames_out"] == 96
        assert data["completed"] is True
        assert data["psi_no_preprocessing"] > data["psi_algorithm"] > 0
        assert data["improvement"] > 1
        assert [s["name"] for s in data["stages"]] == [
            "inject[UncorrelatedFaultModel]",
            "algo_ngst[N=64]",
        ]

    def test_smoother_and_no_inject(self, tmp_path):
        rc, data = run_json(
            tmp_path,
            [
                "--frames", "80", "--shape", "4", "--gamma", "0",
                "--upsilon", "0", "--smoother", "median", "--window", "3",
            ],
        )
        assert rc == 0
        assert data["psi_no_preprocessing"] is None
        assert data["psi_algorithm"] >= 0
        assert [s["name"] for s in data["stages"]] == ["median3"]

    def test_upsilon_zero_builds_no_voter(self, tmp_path):
        rc, data = run_json(
            tmp_path, ["--frames", "32", "--shape", "4", "--upsilon", "0"]
        )
        assert rc == 0
        assert [s["name"] for s in data["stages"]] == [
            "inject[UncorrelatedFaultModel]"
        ]

    def test_gamma_zero_builds_no_injector(self, tmp_path):
        # No inject stage, so there is no Ψ_NoPreprocessing to report
        # (not a meaningless 0.0) and no improvement ratio.
        rc, data = run_json(
            tmp_path, ["--frames", "32", "--shape", "4", "--gamma", "0"]
        )
        assert rc == 0
        assert [s["name"] for s in data["stages"]] == ["algo_ngst[N=64]"]
        assert data["psi_no_preprocessing"] is None
        assert data["improvement"] is None

    def test_replay_an_npy_file(self, tmp_path):
        frames = np.arange(600, dtype=np.uint16).reshape(100, 6)
        path = tmp_path / "frames.npy"
        np.save(path, frames)
        rc, data = run_json(
            tmp_path,
            ["--input", str(path), "--stack-frames", "16", "--gamma", "0.005"],
        )
        assert rc == 0 and data["n_frames_in"] == 100

    def test_progress_goes_to_stderr(self, capsys):
        rc = stream_main(
            ["--frames", "64", "--chunk-frames", "16", "--progress",
             "--progress-every", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "[stream] start:" in captured.err
        assert "[stream] done:" in captured.err


class TestKillResumeViaCli:
    def test_interrupted_run_resumes_to_identical_psi(self, tmp_path):
        base = [
            "--frames", "200", "--shape", "8", "--chunk-frames", "16",
            "--stack-frames", "24", "--seed", "3", "--inject-seed", "5",
        ]
        rc, uninterrupted = run_json(tmp_path, list(base), name="full.json")
        assert rc == 0

        ckdir = str(tmp_path / "ck")
        resume = base + ["--resume", "--checkpoint-dir", ckdir]
        rc, killed = run_json(
            tmp_path, resume + ["--limit-chunks", "4"], name="killed.json"
        )
        assert rc == EXIT_INCOMPLETE
        assert killed["completed"] is False and killed["n_frames_in"] == 64

        rc, resumed = run_json(tmp_path, list(resume), name="resumed.json")
        assert rc == 0
        assert resumed["completed"] is True
        assert resumed["n_frames_in"] == 200
        assert resumed["psi_algorithm"] == uninterrupted["psi_algorithm"]
        assert (
            resumed["psi_no_preprocessing"]
            == uninterrupted["psi_no_preprocessing"]
        )

    def test_resume_with_different_chunk_size(self, tmp_path):
        base = [
            "--frames", "120", "--shape", "4", "--stack-frames", "16",
            "--seed", "8", "--inject-seed", "9",
        ]
        rc, uninterrupted = run_json(tmp_path, list(base), name="full.json")
        ckdir = str(tmp_path / "ck")
        rc, _ = run_json(
            tmp_path,
            base + ["--resume", "--checkpoint-dir", ckdir, "--chunk-frames",
                    "8", "--limit-chunks", "3"],
            name="killed.json",
        )
        assert rc == EXIT_INCOMPLETE
        rc, resumed = run_json(
            tmp_path,
            base + ["--resume", "--checkpoint-dir", ckdir, "--chunk-frames", "40"],
            name="resumed.json",
        )
        assert rc == 0
        assert resumed["psi_algorithm"] == uninterrupted["psi_algorithm"]


class TestErrorPaths:
    def test_unknown_experiment_is_one_line(self, capsys):
        rc = repro_main(["definitely-not-an-experiment"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "unknown experiment" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_checkpoint_dir_stream_cli(self, capsys):
        rc = stream_main(
            ["--frames", "10", "--resume", "--checkpoint-dir", "/proc/nope"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "--checkpoint-dir /proc/nope is not writable" in captured.err

    def test_missing_input_file_is_one_line(self, capsys, tmp_path):
        rc = stream_main(["--input", str(tmp_path / "absent.npy")])
        assert rc == 2
        assert "stream failed:" in capsys.readouterr().err

    def test_bad_flag_values(self, capsys):
        assert stream_main(["--frames", "0"]) == 2
        assert stream_main(["--frames", "10", "--limit-chunks", "0"]) == 2
        # configuration errors surface as one-line failures, not tracebacks
        rc = stream_main(["--frames", "10", "--window", "4", "--smoother", "mean"])
        assert rc == 2
        assert "stream failed:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name",
        [
            (["--seed", "-1"], "seed"),
            (["--inject-seed", "-3"], "inject_seed"),
            (["--autotune", "--autotune-seed", "-2"], "autotune_seed"),
        ],
    )
    def test_negative_seed_is_one_line(self, capsys, flag, name):
        assert stream_main(["--frames", "10"] + flag) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"stream failed: {name} must be a non-negative integer, got {flag[-1]}"
        ]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--shape", "-3"], "shape dimensions must be >= 1, got [-3]"),
            (["--shape", "4", "0"], "shape dimensions must be >= 1, got [4, 0]"),
        ],
    )
    def test_bad_shape_is_one_line(self, capsys, flags, message):
        assert stream_main(["--frames", "8"] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"stream failed: {message}"
        ]

    def test_zero_progress_every_is_refused(self, capsys):
        assert stream_main(["--frames", "8", "--progress-every", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["--progress-every must be >= 1, got 0"]
        assert captured.out == ""

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            stream_main(["--policy", "drop-newest"])

    @pytest.mark.parametrize(
        "flag", [["--science-fast"], ["--margin", "1"], ["--header-rows", "2"]]
    )
    def test_selective_only_flag_without_selective_is_refused(
        self, capsys, flag
    ):
        # Under the fixed strategy the region map would be silently
        # ignored, so the flag is refused before anything runs.
        rc = stream_main(["--frames", "32", "--shape", "4"] + flag)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "selective" in captured.err
        assert "Traceback" not in captured.err


class TestFingerprintMismatchExitCode:
    def test_mismatched_resume_exits_4(self, tmp_path, capsys):
        ckdir = str(tmp_path / "ck")
        base = [
            "--frames", "120", "--shape", "4", "--chunk-frames", "16",
            "--stack-frames", "16", "--resume", "--checkpoint-dir", ckdir,
        ]
        rc, _ = run_json(tmp_path, base + ["--limit-chunks", "3"])
        assert rc == EXIT_INCOMPLETE

        # Same checkpoint, different pipeline (gamma changes the inject
        # stage's fingerprint): refuse loudly instead of starting over.
        rc = stream_main(base + ["--gamma", "0.05"])
        assert rc == EXIT_FINGERPRINT_MISMATCH
        captured = capsys.readouterr()
        assert "stream resume refused" in captured.err
        assert "Traceback" not in captured.err

    def test_matching_resume_still_exits_0(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        base = [
            "--frames", "120", "--shape", "4", "--chunk-frames", "16",
            "--stack-frames", "16", "--resume", "--checkpoint-dir", ckdir,
        ]
        rc, _ = run_json(tmp_path, base + ["--limit-chunks", "3"])
        assert rc == EXIT_INCOMPLETE
        rc, resumed = run_json(tmp_path, list(base), name="resumed.json")
        assert rc == 0 and resumed["completed"] is True

    @pytest.mark.parametrize(
        "changed",
        [
            ["--strategy", "selective"],
            ["--strategy", "selective", "--margin", "1"],
            ["--strategy", "selective", "--science-fast"],
            ["--autotune"],
            ["--profile", "step:elevated=0.05"],
        ],
        ids=["selective", "margin", "science-fast", "autotune", "profile"],
    )
    def test_new_strategy_fields_invalidate_the_checkpoint(
        self, tmp_path, capsys, changed
    ):
        # Every strategy/autotuner/profile knob is stream semantics, so
        # flipping any of them mid-campaign must exit 4 — including a
        # selective run with the all-sensitive default map, which is
        # byte-identical in OUTPUT but still a different declared
        # configuration.
        ckdir = str(tmp_path / "ck")
        base = [
            "--frames", "120", "--shape", "4", "--chunk-frames", "16",
            "--stack-frames", "16", "--resume", "--checkpoint-dir", ckdir,
        ]
        rc, _ = run_json(tmp_path, base + ["--limit-chunks", "3"])
        assert rc == EXIT_INCOMPLETE

        rc = stream_main(base + changed)
        assert rc == EXIT_FINGERPRINT_MISMATCH
        captured = capsys.readouterr()
        assert "stream resume refused" in captured.err
        assert "Traceback" not in captured.err

    def test_strategy_run_resumes_against_its_own_checkpoint(self, tmp_path):
        # The inverse guarantee: a checkpoint written WITH the strategy
        # flags resumes cleanly under the same flags...
        ckdir = str(tmp_path / "ck")
        base = [
            "--frames", "120", "--shape", "4", "--chunk-frames", "16",
            "--stack-frames", "16", "--strategy", "selective",
            "--margin", "1",
            "--resume", "--checkpoint-dir", ckdir,
        ]
        rc, _ = run_json(tmp_path, base + ["--limit-chunks", "3"])
        assert rc == EXIT_INCOMPLETE
        rc, resumed = run_json(tmp_path, list(base), name="resumed.json")
        assert rc == 0 and resumed["completed"] is True

    def test_autotune_run_resumes_against_its_own_checkpoint(self, tmp_path):
        # ...and so does the online autotuner, whose checkpoint state
        # additionally carries the tuner window and Λ trajectory.
        flags = [
            "--frames", "200", "--shape", "8", "--chunk-frames", "16",
            "--stack-frames", "24", "--autotune", "--autotune-min-delta",
            "10", "--profile", "step:elevated=0.08,period=100,duty=0.5",
        ]
        base = flags + ["--resume", "--checkpoint-dir", str(tmp_path / "ck")]
        rc, uninterrupted = run_json(tmp_path, list(flags), name="full.json")
        assert rc == 0
        rc, _ = run_json(tmp_path, base + ["--limit-chunks", "4"])
        assert rc == EXIT_INCOMPLETE
        rc, resumed = run_json(tmp_path, list(base), name="resumed.json")
        assert rc == 0 and resumed["completed"] is True
        assert resumed["psi_algorithm"] == uninterrupted["psi_algorithm"]


class TestBoundedUnboundedRuns:
    def test_max_chunks_ends_an_unbounded_stream_cleanly(self, tmp_path):
        rc, data = run_json(
            tmp_path,
            ["--frames", "0", "--shape", "4", "--chunk-frames", "16",
             "--stack-frames", "16", "--max-chunks", "5"],
        )
        assert rc == 0
        assert data["completed"] is True
        assert data["n_frames_in"] == 5 * 16

    def test_max_chunks_prefix_matches_bounded_run(self, tmp_path):
        base = ["--shape", "4", "--chunk-frames", "16", "--stack-frames",
                "16", "--seed", "6"]
        rc, bounded = run_json(
            tmp_path, ["--frames", "80"] + base, name="bounded.json"
        )
        rc2, capped = run_json(
            tmp_path, ["--frames", "0", "--max-chunks", "5"] + base,
            name="capped.json",
        )
        assert rc == rc2 == 0
        assert capped["psi_algorithm"] == bounded["psi_algorithm"]

    def test_max_seconds_ends_cleanly(self, tmp_path):
        rc, data = run_json(
            tmp_path,
            ["--frames", "0", "--shape", "4", "--chunk-frames", "16",
             "--stack-frames", "16", "--max-seconds", "0.2"],
        )
        assert rc == 0
        assert data["completed"] is True
        assert data["n_frames_in"] >= 16  # at least one chunk landed

    def test_unbounded_without_a_bound_is_refused(self, capsys):
        assert stream_main(["--frames", "0"]) == 2
        assert "--max-chunks" in capsys.readouterr().err

    def test_bad_max_chunks_refused(self):
        assert stream_main(["--frames", "0", "--max-chunks", "0"]) == 2
