"""Online Λ autotuning for streams: re-estimate, confirm, adjust.

:class:`AutotuneVoterStage` extends the stream's
:class:`~repro.stream.pipeline.VoterStage` with the self-calibration of
:mod:`repro.core.autotune` run *online*: a sliding window of the most
recent input stacks is re-estimated at stack boundaries, and the
resulting Λ candidate replaces the operating sensitivity once a
hysteresis rule accepts it.  Flying instruments need this because Γ is
not static — a South Atlantic Anomaly crossing (see
:mod:`repro.faults.profile`) moves the optimum Λ mid-stream, and a fixed
setting is wrong on one side of the crossing or the other.

Determinism contract (the strategy-equivalence harness gates all of it):

* Estimation happens only at stack boundaries, over window content that
  is a pure function of the frame sequence, with a fixed calibration
  seed — so the Λ trajectory, and hence every output byte, is chunk-
  invariant and identical across serial/thread/process drives.
* ``state_dict``/``load_state`` carry the full tuner state (window
  frames, operating Λ, confirmation streak, trajectory), so kill/resume
  replays the exact same trajectory.
* ``frozen=True`` never re-estimates: the stage is then byte-identical
  to a plain ``VoterStage`` at the configured Λ (the static-Λ
  degeneracy).

Hysteresis: a candidate must differ from the operating Λ by at least
``min_delta`` and be produced by ``confirm`` *consecutive* estimates
before it is committed — one noisy window cannot flap the sensitivity.
Each commit emits a :class:`~repro.stream.telemetry.LambdaAdjusted`
event and appends to :attr:`lambda_trajectory` (surfaced per tenant by
``repro.serve``'s metrics endpoint).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import NGSTConfig
from repro.core.algo_ngst import AlgoNGST
from repro.core.autotune import DEFAULT_LAMBDA_GRID, autotune_sensitivity
from repro.exceptions import ConfigurationError
from repro.stream.checkpoint import decode_array, encode_array
from repro.stream.pipeline import VoterStage
from repro.stream.source import check_seed
from repro.stream.telemetry import LambdaAdjusted, Telemetry


class AutotuneVoterStage(VoterStage):
    """``Algo_NGST`` stacks with an online Λ autotuner (see module doc).

    Args:
        config: base ``Algo_NGST`` parameters; ``config.sensitivity`` is
            the starting Λ (the first stacks always run at it).
        stack_frames: N, temporal variants per stack (> Υ/2).
        window_stacks: input stacks retained for re-estimation (the
            sliding window; bounds the extra memory to
            ``window_stacks × stack_frames`` frames).
        interval_stacks: re-estimate every this many stacks.
        min_delta: minimum |candidate − operating Λ| to even consider a
            change (the hysteresis dead band).
        confirm: consecutive agreeing estimates required to commit.
        lambda_grid: candidate sensitivities for the calibration sweep.
        autotune_seed: calibration seed (fixed ⇒ deterministic sweep).
        frozen: never re-estimate; byte-identical to a plain VoterStage.
        telemetry: optional hub for :class:`LambdaAdjusted` events.
        label: owner label stamped on emitted events (tenant name under
            ``repro serve``; '' for CLI streams).
    """

    def __init__(
        self,
        config: NGSTConfig | None = None,
        stack_frames: int = 64,
        *,
        window_stacks: int = 2,
        interval_stacks: int = 1,
        min_delta: float = 15.0,
        confirm: int = 2,
        lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID,
        autotune_seed: int = 0,
        frozen: bool = False,
        telemetry: Telemetry | None = None,
        label: str = "",
    ) -> None:
        super().__init__(config=config, stack_frames=stack_frames)
        if window_stacks < 1:
            raise ConfigurationError(
                f"window_stacks must be >= 1, got {window_stacks}"
            )
        if interval_stacks < 1:
            raise ConfigurationError(
                f"interval_stacks must be >= 1, got {interval_stacks}"
            )
        if min_delta < 0:
            raise ConfigurationError(f"min_delta must be >= 0, got {min_delta}")
        if confirm < 1:
            raise ConfigurationError(f"confirm must be >= 1, got {confirm}")
        if not lambda_grid:
            raise ConfigurationError("lambda_grid must not be empty")
        self.window_stacks = int(window_stacks)
        self.interval_stacks = int(interval_stacks)
        self.min_delta = float(min_delta)
        self.confirm = int(confirm)
        self.lambda_grid = tuple(float(v) for v in lambda_grid)
        self.autotune_seed = check_seed(autotune_seed, "autotune_seed")
        self.frozen = bool(frozen)
        self.telemetry = telemetry
        self.label = str(label)
        self.name = f"autotune_ngst[N={self.stack_frames}]"
        self._current = float(self.config.sensitivity)
        self._candidate: float | None = None
        self._streak = 0
        self._frames_seen = 0
        self._window: list[np.ndarray] = []
        self._trajectory: list[dict] = []

    # -- tuner --------------------------------------------------------------

    @property
    def current_sensitivity(self) -> float:
        """The Λ the next stack will run at."""
        return self._current

    @property
    def lambda_trajectory(self) -> tuple[dict, ...]:
        """Committed adjustments, in order (JSON-safe dicts)."""
        return tuple(self._trajectory)

    def _set_lambda(self, value: float) -> None:
        self._current = float(value)
        self._algo = AlgoNGST(
            dataclasses.replace(self.config, sensitivity=self._current)
        )

    def _observe(self, stack: np.ndarray) -> None:
        """Feed the tuner one processed input stack; maybe retune."""
        self._frames_seen += stack.shape[0]
        if self.frozen:
            return
        self._window.append(np.array(stack, copy=True))
        if len(self._window) > self.window_stacks:
            del self._window[: len(self._window) - self.window_stacks]
        if self.n_stacks % self.interval_stacks != 0:
            return
        window = (
            self._window[0]
            if len(self._window) == 1
            else np.concatenate(self._window, axis=0)
        )
        if window.shape[0] < 2:
            return
        result = autotune_sensitivity(
            window,
            upsilon=self.config.upsilon,
            lambda_grid=self.lambda_grid,
            seed=self.autotune_seed,
        )
        candidate = float(result.sensitivity)
        if abs(candidate - self._current) < self.min_delta:
            self._candidate, self._streak = None, 0
            return
        if self._candidate is not None and candidate == self._candidate:
            self._streak += 1
        else:
            self._candidate, self._streak = candidate, 1
        if self._streak < self.confirm:
            return
        old = self._current
        self._set_lambda(candidate)
        self._candidate, self._streak = None, 0
        record = {
            "stack_index": int(self.n_stacks),
            "frame_index": int(self._frames_seen),
            "old_sensitivity": float(old),
            "new_sensitivity": float(candidate),
            "estimated_sigma": float(result.estimated_sigma),
            "estimated_gamma": float(result.estimated_gamma),
        }
        self._trajectory.append(record)
        if self.telemetry is not None:
            self.telemetry.emit(LambdaAdjusted(label=self.label, **record))

    def _run_stack(self, stack: np.ndarray) -> np.ndarray:
        corrected = super()._run_stack(stack)
        # Tune strictly *after* correcting, so the decision for stack k
        # can never depend on how stack k was going to be processed and
        # the first stacks always run at the configured Λ.
        self._observe(stack)
        return corrected

    # -- batch equivalence --------------------------------------------------

    def _clone(self) -> "AutotuneVoterStage":
        return AutotuneVoterStage(
            config=self.config,
            stack_frames=self.stack_frames,
            window_stacks=self.window_stacks,
            interval_stacks=self.interval_stacks,
            min_delta=self.min_delta,
            confirm=self.confirm,
            lambda_grid=self.lambda_grid,
            autotune_seed=self.autotune_seed,
            frozen=self.frozen,
            label=self.label,
        )

    def batch(self, stack: np.ndarray) -> np.ndarray:
        # A fresh clone replays the whole trajectory from stack zero —
        # batch() must be pure and must match the streamed output.
        clone = self._clone()
        out = np.empty_like(stack)
        t = 0
        while t + self.stack_frames <= stack.shape[0]:
            out[t : t + self.stack_frames] = clone._run_stack(
                stack[t : t + self.stack_frames]
            )
            t += self.stack_frames
        remainder = stack[t:]
        if remainder.shape[0] > self.config.upsilon // 2:
            out[t:] = clone._run_stack(remainder)
        else:
            out[t:] = remainder
        return out

    # -- checkpoint state ---------------------------------------------------

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["autotune"] = {
            "current": self._current,
            "candidate": self._candidate,
            "streak": self._streak,
            "frames_seen": self._frames_seen,
            "window": [encode_array(s) for s in self._window],
            "trajectory": list(self._trajectory),
        }
        return state

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        sub = state["autotune"]
        self._set_lambda(float(sub["current"]))
        self._candidate = (
            None if sub["candidate"] is None else float(sub["candidate"])
        )
        self._streak = int(sub["streak"])
        self._frames_seen = int(sub["frames_seen"])
        self._window = [decode_array(s) for s in sub["window"]]
        self._trajectory = [dict(r) for r in sub["trajectory"]]

    def describe(self) -> str:
        base = super().describe()
        grid = ",".join(f"{v:g}" for v in self.lambda_grid)
        return base + (
            f"+autotune(window={self.window_stacks}, "
            f"interval={self.interval_stacks}, min_delta={self.min_delta}, "
            f"confirm={self.confirm}, grid=[{grid}], "
            f"seed={self.autotune_seed}, frozen={self.frozen})"
        )
