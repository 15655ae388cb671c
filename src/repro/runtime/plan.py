"""Trial planning: deterministic sharding of a campaign's N trials.

A :class:`TrialPlan` splits ``n_trials`` independently seeded trials
into contiguous :class:`Shard` chunks.  Per-trial seeds come from
``numpy.random.SeedSequence(seed).spawn(n_trials)`` — the same spawn
tree regardless of how the trials are sharded or which backend runs
them — so a parallel run is bit-identical to a serial one, and a
resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError

#: Target shard count for :func:`default_shard_size`.  Chosen purely as
#: a function of ``n_trials`` (never of the backend's worker count) so
#: that plans — and therefore checkpoint files — are interchangeable
#: between serial and parallel runs of the same campaign.
_TARGET_SHARDS = 16


def default_shard_size(n_trials: int) -> int:
    """Shard size aiming for ~:data:`_TARGET_SHARDS` shards.

    Small campaigns get one trial per shard (finest checkpoint
    granularity); large ones amortise dispatch overhead over bigger
    chunks.
    """
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    return max(1, math.ceil(n_trials / _TARGET_SHARDS))


@dataclass(frozen=True)
class Shard:
    """One contiguous chunk of a campaign's trials.

    Attributes:
        index: position of this shard within the plan.
        start: index of the shard's first trial in the campaign.
        stop: one past the shard's last trial.
        seeds: the ``SeedSequence`` children for trials
            ``start..stop-1``, in trial order.
    """

    index: int
    start: int
    stop: int
    seeds: tuple[np.random.SeedSequence, ...]

    @property
    def n_trials(self) -> int:
        return self.stop - self.start


class TrialPlan:
    """Deterministic split of ``n_trials`` seeded trials into shards.

    Args:
        n_trials: total number of trials (>= 1).
        seed: root seed; children are spawned from
            ``SeedSequence(seed)`` exactly as a serial loop would.
        shard_size: trials per shard; defaults to
            :func:`default_shard_size`.
    """

    def __init__(
        self,
        n_trials: int,
        seed: int = 0,
        shard_size: int | None = None,
    ) -> None:
        if n_trials < 1:
            raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
        if shard_size is None:
            shard_size = default_shard_size(n_trials)
        if shard_size < 1:
            raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
        self.n_trials = n_trials
        self.seed = seed
        self.shard_size = shard_size
        children = np.random.SeedSequence(seed).spawn(n_trials)
        self.shards: tuple[Shard, ...] = tuple(
            Shard(
                index=index,
                start=start,
                stop=min(start + shard_size, n_trials),
                seeds=tuple(children[start : min(start + shard_size, n_trials)]),
            )
            for index, start in enumerate(range(0, n_trials, shard_size))
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def fingerprint(self) -> str:
        """Identity of this plan for checkpoint compatibility checks.

        Two runs may share checkpointed shards only when their
        fingerprints match — same trial count, same root seed and same
        shard boundaries.
        """
        return f"n={self.n_trials};seed={self.seed};shard={self.shard_size};v1"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrialPlan(n_trials={self.n_trials}, seed={self.seed}, "
            f"shard_size={self.shard_size}, n_shards={self.n_shards})"
        )
