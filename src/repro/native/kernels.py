"""NumPy ⇄ C marshalling for the native kernel tier.

The one wrapper here is the ``native_impl`` of the
``correlated_flip_grid`` kernel: it normalises the arrays the Python
call site hands over (contiguity, float64) exactly the way the NumPy
tier does, calls the ``repro_correlated_scan`` C function, and returns
the flip grid.  Validation of user input stays in
:mod:`repro.faults.correlated`, so every tier shares one error surface.
"""

from __future__ import annotations

import numpy as np

from repro.native import loader


def correlated_scan(draws: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Raster-scan the Eq. (2) flip grid from pre-drawn uniforms."""
    loaded = loader.load()
    assert loaded is not None, "native kernel called while extension missing"
    ffi, lib = loaded
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = draws.shape
    flips = np.empty((rows, cols), dtype=np.bool_)
    lib.repro_correlated_scan(
        ffi.cast("double *", ffi.from_buffer(draws)),
        rows,
        cols,
        ffi.cast("double *", ffi.from_buffer(table)),
        table.size,
        ffi.cast("uint8_t *", ffi.from_buffer(flips, require_writable=True)),
    )
    return flips
