"""repro — reproduction of *Pre-Processing Input Data to Augment Fault
Tolerance in Space Applications* (Nair, Koren, Koren & Krishna, DSN 2003).

The library preprocesses fault-exposed input datasets — identifying and
reverting memory/transit bit-flips before the science application sees
them — using the paper's dynamic bit-window voter algorithm, alongside
the standard smoothing baselines it compares against, the two fault
models of §2.2, and full NGST/OTIS application substrates.

Quickstart::

    import numpy as np
    from repro import (AlgoNGST, NGSTConfig, NGSTDatasetConfig,
                       FaultInjector, UncorrelatedFaultModel,
                       generate_walk, psi)

    rng = np.random.default_rng(7)
    pristine = generate_walk(NGSTDatasetConfig(), rng, shape=(32, 32))
    corrupted, _ = FaultInjector(UncorrelatedFaultModel(0.01), seed=1).inject(pristine)
    repaired = AlgoNGST(NGSTConfig(sensitivity=80))(corrupted).corrected
    print(psi(corrupted, pristine), "->", psi(repaired, pristine))
"""

from repro.config import (
    CorrelatedFaultConfig,
    NGSTConfig,
    NGSTDatasetConfig,
    OTISBounds,
    OTISConfig,
    UncorrelatedFaultConfig,
)
from repro.core import (
    AlgoNGST,
    AlgoOTIS,
    NGSTPreprocessor,
    NGSTResult,
    OTISPreprocessor,
    OTISResult,
)
from repro.data import generate_image_stack, generate_walk, make_dataset
from repro.exceptions import ReproError
from repro.faults import (
    CorrelatedFaultModel,
    FaultInjector,
    InjectionReport,
    InterleavedLayout,
    RowMajorLayout,
    UncorrelatedFaultModel,
)
from repro.metrics import bit_confusion, improvement_factor, psi
from repro.runtime import ProcessPoolBackend, SerialBackend
from repro.stream import (
    InjectStage,
    StreamPipeline,
    StreamResult,
    SyntheticWalkSource,
    VoterStage,
    WindowedStage,
    run_batch,
)

__version__ = "1.0.0"

__all__ = [
    "AlgoNGST",
    "AlgoOTIS",
    "CorrelatedFaultConfig",
    "CorrelatedFaultModel",
    "FaultInjector",
    "InjectionReport",
    "InjectStage",
    "InterleavedLayout",
    "NGSTConfig",
    "NGSTDatasetConfig",
    "NGSTPreprocessor",
    "NGSTResult",
    "OTISBounds",
    "OTISConfig",
    "OTISPreprocessor",
    "OTISResult",
    "ProcessPoolBackend",
    "ReproError",
    "RowMajorLayout",
    "SerialBackend",
    "StreamPipeline",
    "StreamResult",
    "SyntheticWalkSource",
    "UncorrelatedFaultConfig",
    "UncorrelatedFaultModel",
    "VoterStage",
    "WindowedStage",
    "bit_confusion",
    "generate_image_stack",
    "generate_walk",
    "improvement_factor",
    "make_dataset",
    "psi",
    "run_batch",
    "__version__",
]
