"""The ``repro stream`` subcommand: drive a streaming preprocessing run.

Usage (via the main entry point)::

    repro stream --frames 4096 --chunk-frames 128 --progress
    repro stream --frames 100000 --gamma 0.01 --smoother median --window 5
    repro stream --input frames.npy --gamma 0 --upsilon 0 --smoother majority
    repro stream --frames 8192 --resume --checkpoint-dir .repro-checkpoints
    repro stream --frames 8192 --resume --limit-chunks 10   # stop early (rc 3)

The pipeline is source → [inject] → [Algo_NGST voter] → [smoother] → Ψ.
The stage flags parse into one :class:`~repro.stream.spec.StreamSpec`,
field for flag, which builds the stages exactly as it does for a
``repro serve`` tenant: ``--gamma 0`` (with no ``--profile``) drops the
injector and ``--upsilon 0`` the voter.  ``--chunk-frames`` is a
transport knob only — results are bit-identical for every setting (see
docs/STREAMING.md).  ``--limit-chunks`` stops after N chunks with exit
code 3 and, with ``--resume``, leaves a checkpoint a later invocation
picks up — the mid-campaign kill/resume tests drive exactly this path.
``--max-chunks`` / ``--max-seconds`` instead end the stream *cleanly*
(stages flush, exit code 0), so unbounded demos terminate without a
kill.  A ``--resume`` whose checkpoint holds records only for a
different stream configuration exits with code 4
(:data:`EXIT_FINGERPRINT_MISMATCH`) instead of silently starting over.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.config import NGSTDatasetConfig, STRATEGY_CHOICES
from repro.exceptions import CheckpointMismatchError, ReproError
from repro.stream.checkpoint import StreamCheckpoint
from repro.stream.pipeline import StreamPipeline, StreamResult
from repro.stream.smoothers import SMOOTHERS
from repro.stream.source import (
    ArraySource,
    DownlinkSource,
    FrameSource,
    LimitedSource,
    SyntheticWalkSource,
)
from repro.stream.spec import StreamSpec
from repro.stream.telemetry import StreamProgressPrinter, Telemetry

#: Exit code when --limit-chunks stopped the run before exhaustion.
EXIT_INCOMPLETE = 3

#: Exit code when --resume found checkpoint records, none matching this
#: stream's configuration (see CheckpointMismatchError) — distinct from
#: the generic failure code so schedulers can tell "operator changed the
#: config" from "the stream broke".
EXIT_FINGERPRINT_MISMATCH = 4


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro stream``."""
    parser = argparse.ArgumentParser(
        prog="repro stream",
        description="Run the streaming preprocessing pipeline "
        "(bounded memory, bit-identical to the batch pipeline).",
    )
    src = parser.add_argument_group("source")
    src.add_argument(
        "--frames",
        type=int,
        default=1024,
        metavar="N",
        help="synthetic-walk frames to stream (default %(default)s; 0 "
        "streams unbounded and requires --max-chunks or --max-seconds)",
    )
    src.add_argument(
        "--shape",
        type=int,
        nargs="*",
        default=[64],
        metavar="DIM",
        help="coordinate shape of each frame (default: 64; pass two "
        "values for a 2-D frame, none for a scalar pixel)",
    )
    src.add_argument(
        "--seed", type=int, default=0, help="walk RNG seed (default %(default)s)"
    )
    src.add_argument(
        "--sigma",
        type=float,
        default=None,
        metavar="S",
        help="walk step σ (default: the NGST dataset default)",
    )
    src.add_argument(
        "--input",
        metavar="PATH",
        help="replay frames from an .npy (memory-mapped) or .npz file "
        "instead of the synthetic walk",
    )
    src.add_argument(
        "--key",
        default="frames",
        help="array name inside an .npz --input (default %(default)s)",
    )
    src.add_argument(
        "--downlink",
        action="store_true",
        help="pass every frame through the packetised CRC/ARQ downlink "
        "channel before the pipeline sees it",
    )
    stages = parser.add_argument_group("stages")
    stages.add_argument(
        "--gamma",
        type=float,
        default=0.01,
        metavar="G",
        help="uncorrelated bit-flip probability Γ for the inline "
        "injector (default %(default)s; 0 without --profile skips "
        "injection)",
    )
    stages.add_argument(
        "--inject-seed",
        type=int,
        default=1,
        metavar="S",
        help="fault-injection seed (default %(default)s)",
    )
    stages.add_argument(
        "--profile",
        metavar="SPEC",
        default=None,
        help="time-varying injection profile, e.g. "
        "'step:base=0.001,elevated=0.05,period=256,duty=0.25' or "
        "'sine:base=0.01,amplitude=0.009,period=256'; overrides --gamma "
        "per frame index (see repro.faults.profile)",
    )
    stages.add_argument(
        "--stack-frames",
        type=int,
        default=64,
        metavar="N",
        help="temporal variants per Algo_NGST voter stack, > Υ/2 "
        "(default %(default)s)",
    )
    stages.add_argument(
        "--upsilon",
        type=int,
        default=4,
        help="voter Υ (default %(default)s; 0 skips the voter stage)",
    )
    stages.add_argument(
        "--sensitivity",
        type=float,
        default=50.0,
        metavar="L",
        help="voter sensitivity Λ in [0, 100] (default %(default)s)",
    )
    stages.add_argument(
        "--strategy",
        choices=list(STRATEGY_CHOICES),
        default="fixed",
        help="voter preprocessing strategy (default %(default)s; see "
        "docs/ADAPTIVE.md)",
    )
    stages.add_argument(
        "--margin",
        type=int,
        default=0,
        metavar="W",
        help="selective strategy: low-sensitivity border width "
        "(default %(default)s)",
    )
    stages.add_argument(
        "--header-rows",
        type=int,
        default=0,
        metavar="R",
        help="selective strategy: always-protected leading rows "
        "(default %(default)s)",
    )
    stages.add_argument(
        "--science-fast",
        action="store_true",
        help="selective strategy: run the whole science field on the "
        "cheap unanimous-vote path (headers stay fully protected)",
    )
    tuner = parser.add_argument_group("online autotuner")
    tuner.add_argument(
        "--autotune",
        action="store_true",
        help="run the voter as an online Lambda autotuner: re-estimate "
        "Lambda over a sliding window of recent stacks and adjust with "
        "hysteresis (--sensitivity is the starting Lambda)",
    )
    tuner.add_argument(
        "--autotune-window",
        type=int,
        default=2,
        metavar="N",
        help="sliding-window size in stacks (default %(default)s)",
    )
    tuner.add_argument(
        "--autotune-interval",
        type=int,
        default=1,
        metavar="N",
        help="re-estimate every N stacks (default %(default)s)",
    )
    tuner.add_argument(
        "--autotune-min-delta",
        type=float,
        default=15.0,
        metavar="D",
        help="hysteresis dead band on |candidate - operating Lambda| "
        "(default %(default)s)",
    )
    tuner.add_argument(
        "--autotune-confirm",
        type=int,
        default=2,
        metavar="K",
        help="consecutive agreeing estimates required to commit "
        "(default %(default)s)",
    )
    tuner.add_argument(
        "--autotune-seed",
        type=int,
        default=0,
        metavar="S",
        help="calibration seed of the tuner's synthetic sweep "
        "(default %(default)s)",
    )
    stages.add_argument(
        "--smoother",
        choices=sorted(SMOOTHERS),
        default=None,
        help="append a centred-window smoother stage after the voter",
    )
    stages.add_argument(
        "--window",
        type=int,
        default=5,
        metavar="W",
        help="smoother window width, odd (default %(default)s)",
    )
    transport = parser.add_argument_group("transport")
    transport.add_argument(
        "--chunk-frames",
        type=int,
        default=64,
        metavar="K",
        help="frames per transport chunk (default %(default)s; results "
        "are bit-identical for every value)",
    )
    run = parser.add_argument_group("run control")
    run.add_argument(
        "--limit-chunks",
        type=int,
        default=None,
        metavar="N",
        help="stop after N chunks (exit code 3 if the stream was not "
        "exhausted); with --resume the run can be continued later",
    )
    run.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="end the stream cleanly after N full chunks: stages flush, "
        "the result reports completed, and the exit code is 0 — unlike "
        "--limit-chunks this is a stop condition of the stream itself, "
        "so unbounded demos and load tests terminate deterministically",
    )
    run.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="end the stream cleanly once S wall-clock seconds have "
        "elapsed (checked at chunk boundaries); like --max-chunks this "
        "is a clean end of stream, not an interruption",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint every chunk boundary to a JSONL file and resume "
        "from the latest record of a previous (interrupted) run",
    )
    run.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=".repro-checkpoints",
        help="where --resume stores the stream checkpoint "
        "(default: %(default)s)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="print per-chunk telemetry (throughput) to stderr",
    )
    run.add_argument(
        "--progress-every",
        type=int,
        default=10,
        metavar="N",
        help="with --progress, print every N-th chunk (default %(default)s)",
    )
    run.add_argument(
        "--json", metavar="PATH", help="also dump the result as JSON to PATH"
    )
    return parser


def _build_source(args: argparse.Namespace) -> FrameSource:
    if args.input:
        source: FrameSource = ArraySource.from_file(args.input, key=args.key)
    else:
        dataset = NGSTDatasetConfig()
        if args.sigma is not None:
            dataset = NGSTDatasetConfig(sigma=args.sigma)
        source = SyntheticWalkSource(
            shape=tuple(args.shape),
            config=dataset,
            seed=args.seed,
            n_frames=args.frames if args.frames else None,
        )
    if args.downlink:
        source = DownlinkSource(source, seed=args.seed + 1)
    if args.max_chunks is not None or args.max_seconds is not None:
        max_frames = (
            args.max_chunks * args.chunk_frames
            if args.max_chunks is not None
            else None
        )
        source = LimitedSource(
            source, max_frames=max_frames, max_seconds=args.max_seconds
        )
    return source


def stream_spec(args: argparse.Namespace) -> StreamSpec:
    """The :class:`StreamSpec` the parsed flags name, field for flag."""
    return StreamSpec(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(StreamSpec)}
    )


def _result_lines(result: StreamResult) -> list[str]:
    lines = [
        f"frames in/out      {result.n_frames_in}/{result.n_frames_out}",
        f"chunks             {result.n_chunks}",
        f"throughput         {result.frames_per_sec:.1f} frames/s",
    ]
    if result.psi_no_preprocessing is not None:
        lines.append(f"psi no-preproc     {result.psi_no_preprocessing:.6g}")
    lines.append(f"psi algorithm      {result.psi_algorithm:.6g}")
    improvement = result.improvement
    if improvement is not None:
        lines.append(f"improvement        {improvement:.3g}x")
    for stage in result.stages:
        lines.append(
            f"stage {stage.name:<24} {stage.frames_per_sec:>10.1f} frames/s"
            f"  (carry<={stage.max_buffered})"
        )
    if not result.completed:
        lines.append("stopped at --limit-chunks before exhausting the stream")
    return lines


def _result_json(result: StreamResult) -> dict:
    return {
        "n_frames_in": result.n_frames_in,
        "n_frames_out": result.n_frames_out,
        "n_chunks": result.n_chunks,
        "psi_no_preprocessing": result.psi_no_preprocessing,
        "psi_algorithm": result.psi_algorithm,
        "improvement": result.improvement,
        "elapsed_s": result.elapsed_s,
        "frames_per_sec": result.frames_per_sec,
        "completed": result.completed,
        "stages": [
            {
                "name": s.name,
                "frames_in": s.frames_in,
                "frames_out": s.frames_out,
                "elapsed_s": s.elapsed_s,
                "frames_per_sec": s.frames_per_sec,
                "max_buffered": s.max_buffered,
            }
            for s in result.stages
        ],
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro stream``; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.frames < 0:
        print(f"--frames must be >= 0, got {args.frames}", file=sys.stderr)
        return 2
    if args.frames == 0 and not args.input:
        if args.max_chunks is None and args.max_seconds is None:
            print(
                "--frames 0 (unbounded) requires --max-chunks or "
                "--max-seconds to terminate",
                file=sys.stderr,
            )
            return 2
    for flag, value in (
        ("--limit-chunks", args.limit_chunks),
        ("--max-chunks", args.max_chunks),
        ("--progress-every", args.progress_every),
    ):
        if value is not None and value < 1:
            print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
            return 2

    from repro.cli import probe_output, probe_writable

    if args.json:
        problem = probe_output(args.json, "--json")
        if problem:
            print(problem, file=sys.stderr)
            return 2
    checkpoint = None
    if args.resume:
        problem = probe_writable(Path(args.checkpoint_dir), "--checkpoint-dir")
        if problem:
            print(problem, file=sys.stderr)
            return 2
        checkpoint = StreamCheckpoint(Path(args.checkpoint_dir) / "stream.jsonl")

    telemetry = None
    if args.progress:
        telemetry = Telemetry()
        telemetry.subscribe(StreamProgressPrinter(every=args.progress_every))

    try:
        spec = stream_spec(args)
        pipeline = StreamPipeline(
            _build_source(args),
            spec.build_stages(telemetry),
            chunk_frames=spec.chunk_frames,
            telemetry=telemetry,
            checkpoint=checkpoint,
        )
        result = pipeline.run(limit_chunks=args.limit_chunks)
    except CheckpointMismatchError as exc:
        print(f"stream resume refused: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT_MISMATCH
    except (ReproError, OSError) as exc:
        print(f"stream failed: {exc}", file=sys.stderr)
        return 2

    for line in _result_lines(result):
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(_result_json(result), fh, indent=2)
        print(f"wrote stream result to {args.json}")
    return 0 if result.completed else EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
