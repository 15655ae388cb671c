"""Parallel campaign execution runtime: sharded trials, pluggable
serial/process-pool backends, JSONL checkpointing, and telemetry.

The paper's evaluation averages every data point over many
independently seeded trials (Figure 5 uses 100 datasets per point).
This subsystem makes that loop a scheduling problem: a
:class:`TrialPlan` derives per-trial seeds via
``SeedSequence.spawn`` and splits them into shards, an
:class:`Executor` backend runs the shards (in-process or across a
process pool), a :class:`CheckpointStore` records completions so an
interrupted campaign resumes where it stopped, and a
:class:`Telemetry` hub reports per-shard timing and throughput.
Results are bit-identical across backends, shard sizes, and
interrupt/resume cycles.

Multi-arm sweeps are described with the specs in
:mod:`repro.runtime.specs` (:class:`Arm`, :class:`DatasetSpec`,
:class:`FaultSpec`) and run as task graphs
(:func:`repro.dag.add_arm_sweep`) that produce each trial's artifacts
once — still bit-identical to the per-arm plans.
"""

from repro.runtime.backend import (
    BACKEND_CHOICES,
    Executor,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    ShardResult,
    default_start_method,
    resolve_backend,
)
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.executor import TrialRuntime
from repro.runtime.plan import Shard, TrialPlan, default_shard_size
from repro.runtime.specs import Arm, DatasetSpec, FaultSpec
from repro.runtime.telemetry import (
    DagCompleted,
    DagStarted,
    NodeCompleted,
    ProgressPrinter,
    RunCompleted,
    RunStarted,
    ShardCompleted,
    Telemetry,
)

__all__ = [
    "Arm",
    "BACKEND_CHOICES",
    "CheckpointStore",
    "DagCompleted",
    "DagStarted",
    "DatasetSpec",
    "Executor",
    "FaultSpec",
    "NodeCompleted",
    "ProcessPoolBackend",
    "ProgressPrinter",
    "RunCompleted",
    "RunStarted",
    "SerialBackend",
    "ThreadPoolBackend",
    "Shard",
    "ShardCompleted",
    "ShardResult",
    "Telemetry",
    "TrialPlan",
    "TrialRuntime",
    "default_shard_size",
    "default_start_method",
    "resolve_backend",
]
