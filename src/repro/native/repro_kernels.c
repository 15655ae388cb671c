/* Native kernel tier — see repro_kernels.h for the contract. */

#include "repro_kernels.h"

#include <stdlib.h>

void repro_correlated_scan(const double *draws, int64_t rows, int64_t cols,
                           const double *table, int64_t n_terms,
                           uint8_t *flips)
{
    const int64_t max_run = n_terms - 1;
    const double gamma0 = table[0];
    const double limit = table[n_terms - 1];
    /* Run lengths are maintained incrementally: `hrun` is the count of
     * flipped cells immediately left of the cursor, `vrun[c]` the count
     * immediately above in column c.  One raster pass is exact because
     * each cell's runs depend only on strictly earlier raster cells. */
    int64_t *vrun = (int64_t *)calloc((size_t)cols, sizeof(int64_t));
    if (vrun == NULL) {
        /* Out of memory on a bookkeeping array: leave the grid in the
         * draw<gamma0 seed state is NOT acceptable (silent corruption),
         * so fall back to a zero-extra-memory variant that re-walks the
         * vertical run per cell.  Exponentially rare in practice. */
        for (int64_t r = 0; r < rows; r++) {
            int64_t hrun = 0;
            for (int64_t c = 0; c < cols; c++) {
                const double d = draws[r * cols + c];
                int flip;
                if (d < gamma0) {
                    flip = 1;
                } else if (d >= limit) {
                    flip = 0;
                } else {
                    int64_t vr = 0;
                    while (vr < max_run && r - 1 - vr >= 0 &&
                           flips[(r - 1 - vr) * cols + c])
                        vr++;
                    int64_t run = hrun > vr ? hrun : vr;
                    if (run > max_run)
                        run = max_run;
                    flip = d < table[run];
                }
                flips[r * cols + c] = (uint8_t)flip;
                hrun = flip ? hrun + 1 : 0;
            }
        }
        return;
    }
    for (int64_t r = 0; r < rows; r++) {
        const double *drow = draws + r * cols;
        uint8_t *frow = flips + r * cols;
        int64_t hrun = 0;
        for (int64_t c = 0; c < cols; c++) {
            const double d = drow[c];
            int flip;
            if (d < gamma0) {
                flip = 1;
            } else if (d >= limit) {
                flip = 0;
            } else {
                int64_t run = hrun > vrun[c] ? hrun : vrun[c];
                if (run > max_run)
                    run = max_run;
                flip = d < table[run];
            }
            frow[c] = (uint8_t)flip;
            if (flip) {
                hrun += 1;
                vrun[c] += 1;
            } else {
                hrun = 0;
                vrun[c] = 0;
            }
        }
    }
    free(vrun);
}
