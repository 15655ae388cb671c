"""The Figure 1 master/worker CR-rejection pipeline on the DES substrate.

One master node fragments each baseline's readout stack into 128×128
segments and distributes them to the slave nodes over the network.
Each slave optionally *preprocesses* its fragment (the paper's scheme —
run in the slaves' slack CPU time), rejects cosmic rays by ramp
fitting, and returns the integrated segment.  The master reassembles
the frame and Rice-compresses it for downlink.

The pipeline has two halves.  :meth:`CRRejectionPipeline.schedule` is
the discrete-event simulation alone: fragment dispatch, static or
dynamic scheduling, node speeds, slave failures, timeouts and retries.
Its service times follow calibrated per-byte models, and the
preprocessing pass adds a sensitivity-dependent work factor,
reproducing the Figure 3 overhead behaviour at cluster scale.  No
simulated time depends on a pixel value, so the schedule reads only
the stack's shape and dtype.  :meth:`CRRejectionPipeline.run` adds the
data reduction, so output quality can be measured: it takes the
schedule's timings, then preprocesses and CR-rejects each fragment
once, reassembles the frame and Rice-codes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.preprocessor import NGSTPreprocessor
from repro.exceptions import ConfigurationError, SimulationError
from repro.ngst.cosmic_rays import reject_cosmic_rays, reject_cosmic_rays_segmented
from repro.ngst.fragment import Fragment, fragment_stack, reassemble, tile_grid
from repro.ngst.ramp import RampModel
from repro.ngst.rice import rice_encode
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.node import Node, ProcessingModel


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology and service-time calibration.

    Attributes:
        n_slaves: worker count (the STSci estimate is a 16-processor
            system: one master + 15 slaves by default).
        tile: fragment side length.
        cr_model: service-time model of the CR-rejection work per byte.
        preprocess_base_overhead: service-time multiplier contribution of
            a Λ→0⁺ preprocessing pass (header sanity is nearly free).
        preprocess_slope: additional multiplier per unit of sensitivity;
            total work factor = 1 + base + slope·Λ, the calibrated shape
            of Figure 3.
        rejection: the CR-rejection strategy slaves run — "clip"
            (sigma-clipped differences) or "segmented" (single-jump ramp
            segmentation), the two styles of the cited schemes [10–12].
        scheduling: how the master assigns fragments — "static"
            round-robin (the simple Figure 1 reading) or "dynamic"
            earliest-completion-first, which matters on heterogeneous
            COTS nodes.
        node_speed_spread: lognormal σ of the per-node speed factors
            (0 = identical nodes); COTS clusters are rarely uniform.
        slave_failure_probability: per-job probability that a slave dies
            mid-fragment (its result never returns); the master detects
            the loss by timeout and resubmits elsewhere.
        retry_timeout_s: how long the master waits for a fragment result
            before resubmitting.
        max_retries: resubmissions allowed per fragment.
        failure_seed: seed of the failure-drawing generator.
    """

    n_slaves: int = 15
    tile: int = 128
    cr_model: ProcessingModel = field(
        default_factory=lambda: ProcessingModel(fixed_s=2e-4, per_byte_s=4e-9)
    )
    preprocess_base_overhead: float = 0.02
    preprocess_slope: float = 0.012
    rejection: str = "clip"
    scheduling: str = "static"
    node_speed_spread: float = 0.0
    slave_failure_probability: float = 0.0
    retry_timeout_s: float = 0.25
    max_retries: int = 3
    failure_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_slaves < 1:
            raise ConfigurationError(f"need >= 1 slave, got {self.n_slaves}")
        if self.preprocess_base_overhead < 0 or self.preprocess_slope < 0:
            raise ConfigurationError("overhead parameters must be >= 0")
        if self.rejection not in ("clip", "segmented"):
            raise ConfigurationError(
                f"rejection must be 'clip' or 'segmented', got {self.rejection!r}"
            )
        if self.scheduling not in ("static", "dynamic"):
            raise ConfigurationError(
                f"scheduling must be 'static' or 'dynamic', got {self.scheduling!r}"
            )
        if self.node_speed_spread < 0:
            raise ConfigurationError(
                f"node_speed_spread must be >= 0, got {self.node_speed_spread}"
            )
        if not 0.0 <= self.slave_failure_probability < 1.0:
            raise ConfigurationError(
                "slave_failure_probability must be within [0, 1), got "
                f"{self.slave_failure_probability}"
            )
        if self.retry_timeout_s <= 0:
            raise ConfigurationError(
                f"retry_timeout_s must be > 0, got {self.retry_timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def work_factor(self, sensitivity: float | None) -> float:
        """Slave work multiplier for preprocessing at sensitivity Λ."""
        if sensitivity is None:
            return 1.0
        return 1.0 + self.preprocess_base_overhead + self.preprocess_slope * sensitivity


@dataclass(frozen=True)
class ScheduleReport:
    """The simulated timing of one baseline through the cluster.

    Attributes:
        makespan_s: simulated wall-clock from ingest to the last
            fragment's return to the master.
        bytes_moved: total bytes carried by the network.
        slave_utilisation: mean busy fraction of the slaves.
        n_fragments: fragments processed.
        preprocessed: whether input preprocessing ran on the slaves.
        n_slave_failures: jobs lost to slave crashes.
        n_retries: fragment resubmissions the master issued.
    """

    makespan_s: float
    bytes_moved: int
    slave_utilisation: float
    n_fragments: int
    preprocessed: bool
    n_slave_failures: int
    n_retries: int


@dataclass(frozen=True)
class PipelineReport(ScheduleReport):
    """What one baseline's pipeline run produced: its timing plus data.

    Attributes:
        image: the reassembled CR-rejected flux image (counts/second).
        compressed: the Rice-compressed downlink payload.
    """

    image: np.ndarray
    compressed: bytes


class CRRejectionPipeline:
    """End-to-end simulated run of the Figure 1 architecture."""

    def __init__(
        self,
        ramp_model: RampModel,
        cluster: ClusterConfig | None = None,
        preprocessor: NGSTPreprocessor | None = None,
    ) -> None:
        self.ramp_model = ramp_model
        self.cluster = cluster or ClusterConfig()
        self.preprocessor = preprocessor

    def schedule(self, stack: np.ndarray) -> ScheduleReport:
        """Simulate one baseline's readout stack ``(N, H, W)`` on the cluster.

        Only the stack's shape and dtype are read.  Every slave returns
        a float64 flux tile, so the return leg carries ``tile²·8`` bytes.

        Raises:
            SimulationError: if *stack* is not 3-D, or fragments are
                still lost once every retry is spent.
            ConfigurationError, DataFormatError: if the frame cannot be
                cut into tiles (see :func:`~repro.ngst.fragment.tile_grid`).
        """
        if stack.ndim != 3:
            raise SimulationError(f"expected (N, H, W) stack, got {stack.ndim}-D")
        cfg = self.cluster
        rows, cols = tile_grid(stack.shape, cfg.tile)
        n_fragments = rows * cols
        n_bytes = stack.shape[0] * cfg.tile * cfg.tile * stack.itemsize
        return_bytes = cfg.tile * cfg.tile * np.dtype(np.float64).itemsize
        sim = Simulator()
        network = Network(sim)
        speed_rng = np.random.default_rng(cfg.failure_seed + 1)
        speeds = (
            np.exp(speed_rng.normal(0.0, cfg.node_speed_spread, cfg.n_slaves))
            if cfg.node_speed_spread > 0
            else np.ones(cfg.n_slaves)
        )
        slaves = [
            Node(sim, f"slave{i}", cfg.cr_model, speed=float(speeds[i]))
            for i in range(cfg.n_slaves)
        ]
        sensitivity = (
            self.preprocessor.config.sensitivity if self.preprocessor else None
        )
        work_factor = cfg.work_factor(sensitivity)
        failure_rng = np.random.default_rng(cfg.failure_seed)

        completed: set[int] = set()
        done_at = 0.0
        failures = retries = 0
        next_slave = 0
        planned_load = [0.0] * len(slaves)

        def choose_slave(exclude: int | None = None) -> int:
            nonlocal next_slave
            if cfg.scheduling == "static":
                index = next_slave % len(slaves)
                next_slave += 1
                if exclude is not None and index == exclude and len(slaves) > 1:
                    index = next_slave % len(slaves)
                    next_slave += 1
                return index
            # Dynamic: earliest estimated completion, by the master's
            # bookkeeping of the load it has already assigned.
            best, best_eta = 0, None
            for i, slave in enumerate(slaves):
                if exclude is not None and i == exclude and len(slaves) > 1:
                    continue
                eta = planned_load[i] + cfg.cr_model.service_time(n_bytes) / slave.speed
                if best_eta is None or eta < best_eta:
                    best, best_eta = i, eta
            planned_load[best] = best_eta
            return best

        def dispatch(fragment: int, slave_index: int, retries_left: int) -> None:
            slave = slaves[slave_index]
            job_fails = (
                cfg.slave_failure_probability > 0.0
                and failure_rng.random() < cfg.slave_failure_probability
            )

            def on_arrived() -> None:
                def on_processed() -> None:
                    nonlocal failures
                    if job_fails:
                        # The slave died mid-job: its result never comes
                        # back; the master's timeout will resubmit.
                        failures += 1
                        return
                    if fragment in completed:
                        return  # a retried duplicate finished elsewhere

                    def on_returned() -> None:
                        nonlocal done_at
                        if fragment in completed:
                            return
                        completed.add(fragment)
                        done_at = sim.now

                    network.send(slave.name, "master", return_bytes, on_returned)

                slave.submit(n_bytes, on_processed, work_factor=work_factor)

            network.send("master", slave.name, n_bytes, on_arrived)

            if cfg.slave_failure_probability > 0.0 and retries_left > 0:

                def on_timeout() -> None:
                    nonlocal retries
                    if fragment not in completed:
                        retries += 1
                        replacement = choose_slave(exclude=slave_index)
                        dispatch(fragment, replacement, retries_left - 1)

                sim.schedule(cfg.retry_timeout_s, on_timeout)

        for fragment in range(n_fragments):
            dispatch(fragment, choose_slave(), cfg.max_retries)

        sim.run()
        if len(completed) != n_fragments:
            raise SimulationError(
                f"pipeline lost fragments: {len(completed)}/{n_fragments} "
                f"({failures} slave failures, {retries} retries)"
            )
        horizon = max(done_at, 1e-12)
        utilisation = float(
            np.mean([s.busy_seconds / horizon for s in slaves])
        )
        return ScheduleReport(
            makespan_s=done_at,
            bytes_moved=network.total_bytes,
            slave_utilisation=utilisation,
            n_fragments=n_fragments,
            preprocessed=self.preprocessor is not None,
            n_slave_failures=failures,
            n_retries=retries,
        )

    def run(self, stack: np.ndarray) -> PipelineReport:
        """Process one baseline's readout stack ``(N, H, W)``.

        The stack is typically already fault-corrupted by the caller.
        :meth:`schedule` gives the timings; then each fragment, in grid
        order, is preprocessed (when configured) and CR-rejected once,
        however many times the schedule dispatched it.
        """
        timing = self.schedule(stack)
        cfg = self.cluster
        reject = (
            reject_cosmic_rays
            if cfg.rejection == "clip"
            else reject_cosmic_rays_segmented
        )
        reduced = []
        for fragment in fragment_stack(stack, cfg.tile):
            data = fragment.data
            if self.preprocessor is not None:
                data = self.preprocessor.process_stack(data).data
            flux, _ = reject(data, self.ramp_model)
            reduced.append(Fragment(fragment.row, fragment.col, flux))
        image = reassemble(reduced, cfg.tile)
        # Quantise the flux image for downlink compression, preserving
        # two decimal places of counts/second.
        quantised = np.clip(np.rint(image * 100.0), 0, 2**31 - 1).astype(np.uint32)
        return PipelineReport(
            **vars(timing), image=image, compressed=rice_encode(quantised)
        )
