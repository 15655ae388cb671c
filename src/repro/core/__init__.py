"""Core contribution of the paper: dynamic bit-window preprocessing.

This subpackage implements Algorithm 1 (``Algo_NGST``), its OTIS-tuned
variant (``Algo_OTIS``), and the supporting machinery: bit manipulation
primitives, the Υ-way XOR voter matrix, the sensitivity (Λ) mapping, and
the A/B/C bit-window masks.
"""

from repro.core.algo_ngst import AlgoNGST, NGSTResult
from repro.core.algo_otis import AlgoOTIS, OTISResult
from repro.core.autotune import AutotuneResult, autotune_sensitivity
from repro.core.preprocessor import NGSTPreprocessor, OTISPreprocessor
from repro.core.sensitivity import phi_rank
from repro.core.strategies import region_mask, run_selective, strategy_arm_config
from repro.core.voter import VoterMatrix
from repro.core.windows import BitWindows

__all__ = [
    "AlgoNGST",
    "AlgoOTIS",
    "AutotuneResult",
    "BitWindows",
    "NGSTPreprocessor",
    "NGSTResult",
    "OTISPreprocessor",
    "OTISResult",
    "VoterMatrix",
    "autotune_sensitivity",
    "phi_rank",
    "region_mask",
    "run_selective",
    "strategy_arm_config",
]
