"""Transit fault model: burst errors on the serial downlink/uplink.

§2.2.2 lists three places the uncorrelated model's flips can strike:
"either at source, during transit from source to the system, or while
residing in memory".  In-transit corruption is *bursty* — a noisy
channel stays noisy for a stretch of symbols — which the classic
Gilbert–Elliott two-state channel captures: a GOOD state with a
negligible flip rate and a BAD state with a high flip rate, with
geometric sojourn times in each.

The data words are serialised in logical order (optionally through a
:class:`~repro.faults.layout.MemoryLayout`-style interleaver) so a
burst damages a contiguous run of bits of consecutive words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import bitops
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class GilbertElliottConfig:
    """Parameters of the two-state burst channel.

    Attributes:
        p_good_to_bad: per-bit probability of entering a burst.
        p_bad_to_good: per-bit probability of the burst ending (the mean
            burst length is its reciprocal).
        flip_prob_bad: bit-flip probability inside a burst.
        flip_prob_good: residual flip probability outside bursts.
    """

    p_good_to_bad: float = 1e-4
    p_bad_to_good: float = 0.05
    flip_prob_bad: float = 0.3
    flip_prob_good: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "flip_prob_bad", "flip_prob_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1], got {value}")
        if self.p_bad_to_good == 0.0 and self.p_good_to_bad > 0.0:
            raise ConfigurationError("bursts must be able to end (p_bad_to_good > 0)")

    @property
    def steady_state_bad(self) -> float:
        """Long-run fraction of bits spent inside bursts."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        return self.p_good_to_bad / denom if denom else 0.0

    @property
    def expected_flip_rate(self) -> float:
        """Long-run marginal bit-flip probability of the channel."""
        bad = self.steady_state_bad
        return bad * self.flip_prob_bad + (1.0 - bad) * self.flip_prob_good


def burst_flip_stream(
    n_bits: int, config: GilbertElliottConfig, rng: np.random.Generator
) -> np.ndarray:
    """Boolean flip stream of length *n_bits* from the two-state channel.

    Simulated by sampling geometric sojourn lengths, so the cost is
    proportional to the number of state changes, not to ``n_bits``.
    """
    if n_bits < 0:
        raise ConfigurationError(f"n_bits must be >= 0, got {n_bits}")
    flips = np.zeros(n_bits, dtype=bool)
    if n_bits == 0 or config.p_good_to_bad == 0.0:
        if config.flip_prob_good > 0.0:
            flips |= rng.random(n_bits) < config.flip_prob_good
        return flips
    position = 0
    in_bad = rng.random() < config.steady_state_bad
    while position < n_bits:
        leave = config.p_bad_to_good if in_bad else config.p_good_to_bad
        if leave <= 0.0:
            span = n_bits - position
        else:
            span = int(min(rng.geometric(leave), n_bits - position))
        rate = config.flip_prob_bad if in_bad else config.flip_prob_good
        if rate > 0.0:
            flips[position : position + span] = rng.random(span) < rate
        position += span
        in_bad = not in_bad
    return flips


class TransitFaultModel:
    """Applies Gilbert–Elliott burst errors to a serialised dataset.

    Words are serialised MSB-first; the *serialisation order* is
    pluggable through a :class:`~repro.faults.layout.MemoryLayout`-style
    word permutation.  This is where the §8 interleaving recommendation
    earns its keep: a long burst damages a contiguous run of the
    *serialised* stream, so scattering logically neighbouring words
    across the stream confines the damage to at most one word of each
    redundancy group.
    """

    def __init__(
        self,
        config: GilbertElliottConfig | None = None,
        layout=None,
    ) -> None:
        self.config = config or GilbertElliottConfig()
        if layout is not None and not hasattr(layout, "word_permutation"):
            raise ConfigurationError(
                "layout must expose word_permutation(n_words)"
            )
        self.layout = layout

    def corrupt(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(corrupted_copy, flip_mask)`` for *data*."""
        if data.dtype == np.float32:
            bits = bitops.float32_to_bits(np.ascontiguousarray(data))
            corrupted_bits, mask = self.corrupt(bits, rng)
            return bitops.bits_to_float32(corrupted_bits), mask
        bitops.require_unsigned(data, "data")
        nbits = bitops.bit_width(data.dtype)
        stream = burst_flip_stream(data.size * nbits, self.config, rng)
        word_masks = bitops.pack_words(stream, nbits)
        if self.layout is not None:
            # slot s of the stream carries logical word w where
            # permutation[w] == s.
            permutation = np.asarray(self.layout.word_permutation(data.size))
            word_masks = word_masks[permutation]
        mask = word_masks.reshape(data.shape)
        return np.bitwise_xor(data, mask), mask
