"""cffi API-mode build recipe for the native kernel extension.

Two consumers share this module:

* ``setup.py`` points ``cffi_modules`` here so ``pip install .`` builds
  ``repro.native._repro_native`` in place when cffi and a C compiler are
  available (and cleanly skips the extension otherwise — see setup.py).
* :mod:`repro.native.loader` imports :data:`ffibuilder` to compile the
  extension on first use into a content-addressed cache directory when
  no prebuilt module is importable.

Keeping the C in standalone ``repro_kernels.c``/``.h`` files (rather
than an inline source string) keeps the hot loop readable and lets the
loader fingerprint exactly what it compiles.
"""

from __future__ import annotations

import os

from cffi import FFI

HERE = os.path.dirname(os.path.abspath(__file__))

#: Declarations mirrored from repro_kernels.h — cffi parses these, so
#: they must stay a plain-C subset (no preprocessor, no comments needed).
CDEF = """
void repro_correlated_scan(const double *draws, int64_t rows, int64_t cols,
                           const double *table, int64_t n_terms,
                           uint8_t *flips);
"""


def _compile_args() -> list[str]:
    if os.name == "nt":
        return ["/O2"]
    return ["-O3", "-std=c99"]


ffibuilder = FFI()
ffibuilder.cdef(CDEF)
ffibuilder.set_source(
    "repro.native._repro_native",
    '#include "repro_kernels.h"',
    sources=[os.path.join(HERE, "repro_kernels.c")],
    include_dirs=[HERE],
    extra_compile_args=_compile_args(),
)


if __name__ == "__main__":
    # `make native`: compile in a scratch directory and publish only the
    # finished extension next to this file, leaving no .o/.c litter.
    import shutil
    import tempfile

    staging = tempfile.mkdtemp(prefix="repro-native-build-")
    try:
        built = ffibuilder.compile(tmpdir=staging, verbose=True)
        target = os.path.join(HERE, os.path.basename(built))
        shutil.copyfile(built, target + ".tmp")
        os.replace(target + ".tmp", target)
        print(f"built {target}")
    finally:
        shutil.rmtree(staging, ignore_errors=True)
