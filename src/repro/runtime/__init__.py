"""Execution seams for the batch runner: backends, sweep specs, telemetry.

The paper's evaluation averages every data point over many
independently seeded trials (Figure 5 uses 100 datasets per point).
Batch runs are task graphs (:mod:`repro.dag`): the
:class:`~repro.dag.DagScheduler` dispatches every ready node as one
``int``-indexed shard to an :class:`Executor` backend, in-process
(:class:`SerialBackend`) or across a fork-context process pool
(:class:`ProcessPoolBackend`), and reports per-node progress on a
:class:`Telemetry` hub.  Results are bit-identical across backends.
A run that stops (a failed node, a lost pool worker, a kill) resumes
from the artifact store with ``repro report --resume``.

Multi-arm sweeps are described with the specs in
:mod:`repro.runtime.specs` (:class:`Arm`, :class:`DatasetSpec`,
:class:`FaultSpec`) and run as task graphs
(:func:`repro.dag.add_arm_sweep`) that produce each trial's artifacts
once, bit-identical to running each arm as its own seeded trial loop.
"""

from repro.runtime.backend import (
    Executor,
    ProcessPoolBackend,
    SerialBackend,
    ShardResult,
    resolve_backend,
)
from repro.runtime.specs import Arm, DatasetSpec, FaultSpec
from repro.runtime.telemetry import (
    DagCompleted,
    DagStarted,
    NodeCompleted,
    ProgressPrinter,
    Telemetry,
)

__all__ = [
    "Arm",
    "DagCompleted",
    "DagStarted",
    "DatasetSpec",
    "Executor",
    "FaultSpec",
    "NodeCompleted",
    "ProcessPoolBackend",
    "ProgressPrinter",
    "SerialBackend",
    "ShardResult",
    "Telemetry",
    "resolve_backend",
]
