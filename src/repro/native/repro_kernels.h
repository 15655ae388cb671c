/* Native kernel tier for the repro preprocessing library.
 *
 * One kernel: the Eq. (2) raster scan of the correlated fault model,
 * the one hot-path loop NumPy cannot vectorise (each cell depends on
 * the cells flipped before it).  It is bound by the same contract as
 * the NumPy tier: byte-for-byte identity with the in-tree `_reference_*`
 * oracle on every input the Python wrapper admits.  The wrapper in
 * `repro/native/kernels.py` owns validation, dtype normalisation and
 * memory layout; this function assumes contiguous buffers and
 * pre-checked shapes.
 *
 * Pure C99 with no Python dependency, so the cffi API-mode build can
 * compile it with any hosted toolchain.
 */

#ifndef REPRO_KERNELS_H
#define REPRO_KERNELS_H

#include <stdint.h>

/* Eq. (2) run-correlated flip grid: raster scan over pre-drawn uniforms.
 *
 * `draws` is the rows*cols row-major array of uniform [0, 1) draws,
 * `table` the cumulative Eq. (2) probability table (n_terms >= 1
 * entries, strictly increasing), `flips` the rows*cols output written
 * as 0/1 bytes.  Semantics match `_reference_scan`: a cell flips when
 * its draw is below table[min(run, n_terms - 1)] where run is the
 * longer of the horizontal/vertical runs of already-flipped immediate
 * predecessors.
 */
void repro_correlated_scan(const double *draws, int64_t rows, int64_t cols,
                           const double *table, int64_t n_terms,
                           uint8_t *flips);

#endif /* REPRO_KERNELS_H */
