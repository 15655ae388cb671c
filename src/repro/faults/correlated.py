"""The correlated fault model of §2.2.3, Eq. (2).

Memory upsets caused by alpha particles, polarisation, or power glitches
concentrate around a worst-hit centre: the probability of a bit flipping
grows with the length of the run of flipped bits immediately preceding
it, in both the horizontal and vertical dimensions of the memory grid —
the direction with the longer run dominates.

With a preceding run of length R the flip probability is

    Γcorr = Σ_{j=1..R+1} Γini^j          (Eq. 2, with Γ(0) = Γini)

which converges to Γini / (1 − Γini) < 1 for Γini < 0.5.
"""

from __future__ import annotations

import numpy as np

from repro.config import CorrelatedFaultConfig
from repro.core import bitops
from repro.exceptions import ConfigurationError
from repro.faults.layout import MemoryLayout, RowMajorLayout
from repro.native import dispatch as _dispatch
from repro.native import kernels as _native_kernels


def run_probability_table(gamma_ini: float, max_terms: int) -> np.ndarray:
    """Γcorr(R) for R = 0 … max_terms−1 (cumulative geometric series).

    ``table[R]`` is the flip probability given a preceding run of R
    flipped bits.  Beyond ``max_terms`` the series has converged to its
    limit Γini/(1−Γini) to double precision, so callers clamp R.
    """
    if not 0.0 <= gamma_ini < 0.5:
        raise ConfigurationError(f"gamma_ini must be in [0, 0.5), got {gamma_ini}")
    if max_terms < 1:
        raise ConfigurationError(f"max_terms must be >= 1, got {max_terms}")
    powers = gamma_ini ** np.arange(1, max_terms + 1, dtype=np.float64)
    return np.cumsum(powers)


def _required_runs(draws: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-cell minimum preceding run length that would flip the cell.

    ``req[cell]`` is the smallest R with ``draw < table[R]`` — the number
    of table entries at or below the draw — computed by one thresholded
    byte accumulation per table level (cells whose draw is at or beyond
    the last entry can never flip and get the sentinel 255).  The level
    loop stops as soon as only never-flip cells remain above the current
    entry, so it runs to the largest finite requirement, not to
    ``max_terms``.

    Returns ``(req, req_max)`` where ``req_max`` bounds every finite
    requirement; run lengths can be clamped there during propagation.
    """
    never = draws >= table[-1]
    n_never = int(np.count_nonzero(never))
    req = np.zeros(draws.shape, dtype=np.uint8)
    at_or_above = draws >= table[0]
    level = 0
    dense_levels = min(len(table), 3)
    while True:
        req += at_or_above
        level += 1
        if level == dense_levels or np.count_nonzero(at_or_above) == n_never:
            break
        np.greater_equal(draws, table[level], out=at_or_above)
    req_max = min(level, len(table) - 1)
    if level < len(table) and np.count_nonzero(at_or_above) > n_never:
        # The geometric tail: cells needing runs past the dense levels
        # are exponentially rare, so their exact requirement is found by
        # a binary search over the gathered few rather than more
        # whole-grid compares.
        tail = np.flatnonzero(at_or_above & ~never)
        tail_req = np.searchsorted(table, draws.ravel()[tail], side="right")
        req.ravel()[tail] = tail_req
        req_max = min(int(tail_req.max()), len(table) - 1)
    if n_never:
        req[never] = 255
    return req, req_max


#: Run lengths are counted densely (whole-grid shifted ANDs) up to this
#: length; cells requiring longer runs are exponentially rare under the
#: Eq. 2 geometric table and are evaluated by sparse gathers instead.
_DENSE_RUN_CAP = 3


def _extend_runs(
    flips: np.ndarray,
    req: np.ndarray,
    req_max: int,
    axis: int,
    tail: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """One directional relaxation: flip every cell whose preceding run
    along *axis* satisfies its requirement (in place, monotone).

    Clamped run lengths are accumulated as byte sums of nested
    "run >= k" masks: ``R_k = R_{k-1} AND (cell k before is flipped)``,
    each a shifted slice AND, so a full sweep costs O(run cap) whole-grid
    boolean operations instead of a per-cell scan.  When *tail* (the
    ``(rows, cols, req)`` of the cells requiring runs longer than
    :data:`_DENSE_RUN_CAP`) is given, dense counting stops at the cap and
    the tail cells' runs are walked by per-cell gathers — a handful of
    small fancy-indexing ops instead of ``req_max`` whole-grid passes.
    Without *tail* the dense count runs to ``req_max`` and the step is
    complete on its own.
    """
    dense_max = req_max if tail is None else min(req_max, _DENSE_RUN_CAP)
    runs = np.zeros(flips.shape, dtype=np.uint8)
    reach = np.zeros(flips.shape, dtype=bool)
    if axis == 1:
        reach[:, 1:] = flips[:, :-1]
    else:
        reach[1:, :] = flips[:-1, :]
    runs += reach
    for k in range(2, min(dense_max, flips.shape[axis] - 1) + 1):
        if axis == 1:
            reach[:, k - 1] = False
            reach[:, k:] &= flips[:, :-k]
        else:
            reach[k - 1, :] = False
            reach[k:, :] &= flips[:-k, :]
        if not reach.any():
            break
        runs += reach
    flips |= runs >= req
    if tail is None:
        return
    t_rows, t_cols, t_req = tail
    if t_rows.size == 0:
        return
    # Tail cells flip over the iteration but are never removed from the
    # set, so drop the already-flipped ones before walking runs.
    pending = ~flips[t_rows, t_cols]
    if not pending.any():
        return
    if not pending.all():
        t_rows = t_rows[pending]
        t_cols = t_cols[pending]
        t_req = t_req[pending]
    alive = np.ones(t_rows.size, dtype=bool)
    newly = np.zeros(t_rows.size, dtype=bool)
    for k in range(1, min(int(t_req.max()), flips.shape[axis] - 1) + 1):
        if axis == 1:
            src = t_cols - k
            valid = src >= 0
            alive &= flips[t_rows, np.maximum(src, 0)] & valid
        else:
            src = t_rows - k
            valid = src >= 0
            alive &= flips[np.maximum(src, 0), t_cols] & valid
        if not alive.any():
            break
        newly |= alive & (t_req == k)
    flips[t_rows[newly], t_cols[newly]] = True


def _closure(flips: np.ndarray, req: np.ndarray, req_max: int, axis: int) -> None:
    """Relax along *axis* until the grid is a fixpoint of that direction.

    Each :func:`_extend_runs` step extends every chain by at least one
    cell, so the loop terminates within the longest enabling chain; it is
    only called on small frontier sub-grids, where the repeated steps are
    cheap.
    """
    total = np.count_nonzero(flips)
    while True:
        _extend_runs(flips, req, req_max, axis)
        new_total = np.count_nonzero(flips)
        if new_total == total:
            return
        total = new_total


def correlated_flip_grid(
    shape: tuple[int, int],
    gamma_ini: float,
    rng: np.random.Generator,
    max_terms: int = 64,
) -> np.ndarray:
    """Generate a boolean flip grid under the §2.2.3 run-length model.

    Each bit's flip probability is ``table[max(horizontal_run,
    vertical_run)]`` where the runs count the flipped bits immediately to
    the left and immediately above — the "higher of the two directions"
    rule of the paper.  Defined by a raster-order scan (see
    :func:`_reference_scan`); the uniform draws are taken from *rng*
    exactly once (one ``rng.random(shape)``, identical across tiers) and
    the scan itself runs on the selected kernel tier: the C raster scan,
    the NumPy frontier fixpoint (:func:`_numpy_scan`), or the in-tree
    raster oracle.
    """
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"grid shape must be positive, got {shape}")
    table = run_probability_table(gamma_ini, max_terms)
    if gamma_ini == 0.0:
        return np.zeros(shape, dtype=bool)
    draws = rng.random(shape)
    return _dispatch.call("correlated_flip_grid", draws, table)


def _numpy_scan(draws: np.ndarray, table: np.ndarray) -> np.ndarray:
    """NumPy tier: iterative frontier fixpoint over pre-drawn uniforms.

    Seed with the run-0 flips (``draw < Γcorr(0)``), then alternate
    horizontal and vertical relaxation sweeps (:func:`_extend_runs`)
    until no new flips appear.

    This is bit-identical to the raster scan: the raster result is the
    unique fixpoint of the flip condition (each cell's runs depend only
    on strictly earlier raster cells, so membership is determined by
    induction along the scan order), the condition is monotone (more
    flips ⇒ longer runs ⇒ higher Γcorr ⇒ more flips, since the Eq. 2
    table is increasing), and the seed set never shrinks under a sweep —
    so the iteration climbs exactly to that unique fixpoint.
    """
    req, req_max = _required_runs(draws, table)
    flips = req == 0
    if req_max == 0 or not flips.any():
        return flips
    # Horizontal runs live entirely within a row (and vertical within a
    # column), so a sweep only needs the lines whose flip set changed
    # since that direction last certified them — the shrinking frontier
    # of the fixpoint.  Certification: a single relaxation step that
    # leaves a line unchanged proves it direction-fixed (the step *is*
    # the direction's operator applied to the line); a changed line is
    # not yet proven and keeps the sentinel count −1 (counts only grow,
    # so an unchanged line is recognisable by its count alone).  Dense
    # frontiers take one whole-grid step; sparse frontiers are gathered
    # into a sub-grid and relaxed to closure, certifying them at once.
    tail = None
    if req_max > _DENSE_RUN_CAP:
        t_rows, t_cols = np.nonzero((req > _DENSE_RUN_CAP) & (req < 255))
        tail = (t_rows, t_cols, req[t_rows, t_cols])
    # Dense phase: while sweeps still change many cells, per-line frontier
    # tracking is pure overhead (every line is active anyway), so alternate
    # whole-grid sweeps with only a scalar population count in between.
    total = int(np.count_nonzero(flips))
    switch = max(1, min(flips.shape) // 2)
    h_changed = True
    while True:
        round_start = total
        _extend_runs(flips, req, req_max, axis=1, tail=tail)
        new_total = int(np.count_nonzero(flips))
        h_changed = new_total > total
        total = new_total
        _extend_runs(flips, req, req_max, axis=0, tail=tail)
        new_total = int(np.count_nonzero(flips))
        v_changed = new_total > total
        total = new_total
        if not h_changed and not v_changed:
            return flips
        if total - round_start < switch:
            break
    row_counts = np.full(flips.shape[0], -1, dtype=np.int64)
    col_counts = np.full(flips.shape[1], -1, dtype=np.int64)
    while True:
        current = flips.sum(axis=1, dtype=np.int64)
        active = np.flatnonzero(current != row_counts)
        if active.size == 0:
            return flips
        if active.size * 3 < flips.shape[0]:
            sub = flips[active]
            _closure(sub, req[active], req_max, axis=1)
            flips[active] = sub
            row_counts = current
            row_counts[active] = sub.sum(axis=1, dtype=np.int64)
        else:
            _extend_runs(flips, req, req_max, axis=1, tail=tail)
            after = flips.sum(axis=1, dtype=np.int64)
            row_counts = np.where(after != current, np.int64(-1), after)

        current = flips.sum(axis=0, dtype=np.int64)
        active = np.flatnonzero(current != col_counts)
        if active.size == 0:
            return flips
        if active.size * 3 < flips.shape[1]:
            sub = np.ascontiguousarray(flips[:, active])
            _closure(sub, np.ascontiguousarray(req[:, active]), req_max, axis=0)
            flips[:, active] = sub
            col_counts = current
            col_counts[active] = sub.sum(axis=0, dtype=np.int64)
        else:
            _extend_runs(flips, req, req_max, axis=0, tail=tail)
            after = flips.sum(axis=0, dtype=np.int64)
            col_counts = np.where(after != current, np.int64(-1), after)


def _reference_correlated_flip_grid(
    shape: tuple[int, int],
    gamma_ini: float,
    rng: np.random.Generator,
    max_terms: int = 64,
) -> np.ndarray:
    """Raster-order scan oracle for :func:`correlated_flip_grid`."""
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"grid shape must be positive, got {shape}")
    table = run_probability_table(gamma_ini, max_terms)
    if gamma_ini == 0.0:
        return np.zeros(shape, dtype=bool)
    return _reference_scan(rng.random(shape), table)


def _reference_scan(draws: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Reference tier: raster-order scan over pre-drawn uniforms."""
    max_run = len(table) - 1
    thresholds = draws
    flips = np.zeros(draws.shape, dtype=bool)
    # Γcorr(R) caps out at the last table entry, so a cell whose uniform
    # draw is at or above it can never flip regardless of run history.
    # Visiting only the cells below that cap, in raster order, is exactly
    # equivalent to the dense scan and typically much faster.
    candidate_rows, candidate_cols = np.nonzero(thresholds < table[-1])
    table_list = table.tolist()  # plain-float access is faster in the loop
    gamma0 = table_list[0]
    for r, c in zip(candidate_rows.tolist(), candidate_cols.tolist()):
        draw = thresholds[r, c]
        if draw >= gamma0:
            # Count the run of flipped bits immediately to the left and
            # immediately above; the longer run sets the probability.
            run = 0
            cc = c - 1
            while cc >= 0 and flips[r, cc] and run < max_run:
                run += 1
                cc -= 1
            rr = r - 1
            vertical = 0
            while rr >= 0 and flips[rr, c] and vertical < max_run:
                vertical += 1
                rr -= 1
            if vertical > run:
                run = vertical
            if run > max_run:
                run = max_run
            if draw >= table_list[run]:
                continue
        flips[r, c] = True
    return flips


_dispatch.register(
    "correlated_flip_grid",
    numpy_impl=_numpy_scan,
    reference_impl=_reference_scan,
    native_impl=_native_kernels.correlated_scan,
)


class CorrelatedFaultModel:
    """Injects run-correlated bit-flips through a memory layout.

    The logical data words are placed into the physical bit grid by the
    given :class:`MemoryLayout` (naive row-major by default), the flip
    grid is generated per Eq. (2), and the flipped bits are mapped back
    into per-word XOR masks.
    """

    def __init__(
        self,
        config: CorrelatedFaultConfig | float = CorrelatedFaultConfig(),
        layout: MemoryLayout | None = None,
    ) -> None:
        if isinstance(config, (int, float)):
            config = CorrelatedFaultConfig(gamma_ini=float(config))
        self.config = config
        self.layout = layout or RowMajorLayout()

    def cache_key_parts(self) -> tuple:
        """Canonical identity of this model (config + layout) for cache keys."""
        return (type(self).__name__, self.config, self.layout.cache_key_parts())

    def corrupt(
        self, data: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(corrupted_copy, flip_mask)`` for *data*.

        The array is flattened into its logical word order for placement;
        the returned mask matches the input shape.
        """
        if data.dtype == np.float32:
            bits = bitops.float32_to_bits(np.ascontiguousarray(data))
            corrupted_bits, mask = self.corrupt(bits, rng)
            return bitops.bits_to_float32(corrupted_bits), mask
        bitops.require_unsigned(data, "data")
        nbits = bitops.bit_width(data.dtype)
        n_words = data.size
        grid = correlated_flip_grid(
            self.layout.grid_shape(n_words, nbits),
            self.config.gamma_ini,
            rng,
            self.config.max_run_terms,
        )
        mask_flat = self.layout.flip_mask_from_grid(grid, n_words, nbits)
        mask = mask_flat.astype(data.dtype).reshape(data.shape)
        return np.bitwise_xor(data, mask), mask
