"""The coarse experiments score every arm of a point from one seeded
draw, and sweep Algo_OTIS's Λ grid in one pass.  Both are pure
refactors: each quick panel must stay byte-identical to the per-arm
loop that redrew the dataset and the faults for every arm, and ran
Algo_OTIS once per Λ.  The digests below were taken from that loop.
"""

import hashlib
import json

import pytest

from repro.dag.report import quick_overrides
from repro.experiments.registry import run_experiment

#: SHA-256 of each experiment's quick panels as canonical JSON (sorted
#: keys), computed with the per-arm loop.
PINNED = {
    "fig5": "dbdfbaf9035a07378edbaf391ca016979f645200d1f60961f57d07d883e32a27",
    "fig6": "00a46717a014948ea5bffc07416d87d4c611e95315735ce8438f66cb74cd60e3",
    "fig7": "cad2f0bcfb64cd9102a78b4b264e5baf7756f792138bb1b4879baeb5eec0b18e",
    "fig9": "fa9d9954aecc9c5a43c82d3842bb1a06b434cdf891c9d9a28c36a1d9c2178173",
    "ablate-layout": "26186de9c3b4c9dd38378d596a5b4a5f152ccaf0226b5001a22e94a28633aec6",
    "ablate-locality": "cb82243e100ce64d83b9a2abe2236d65a608e1c80b5702bd8ecfb688191f8a72",
    "ablate-storage": "e7a5ca990f60a0adcefdd7dd701e8c141b20329bb859f853a9c3ef71b73f9fb9",
    "ablate-windows": "c87ca6ee9ec39aa968478ea90cbf1c0b98e31070cbc73d3c215d3cc5524b53ae",
    "compression": "a63219f4355e2c325ba366c25cb2cfdc94a7e7b38a3c88e5f3391a2532c4c8d5",
}


@pytest.mark.parametrize("experiment_id", sorted(PINNED))
def test_quick_panels_match_the_per_arm_loop(experiment_id):
    results = run_experiment(experiment_id, **quick_overrides(experiment_id))
    panels = json.dumps([result.to_dict() for result in results], sort_keys=True)
    assert hashlib.sha256(panels.encode()).hexdigest() == PINNED[experiment_id]
