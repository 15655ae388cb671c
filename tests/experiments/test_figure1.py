"""Figure 1 runs only the cluster's schedule.  No simulated time depends
on a pixel value, so its panels must stay byte-identical to the loop
that preprocessed, CR-rejected and Rice-coded every fragment inside the
simulation; the digests below were taken from that loop.
"""

import hashlib
import json

import pytest

import repro.ngst.cluster as cluster_module
from repro.core.preprocessor import NGSTPreprocessor
from repro.dag.report import quick_overrides
from repro.experiments.registry import run_experiment

#: SHA-256 of fig1's panels as canonical JSON (sorted keys), computed
#: with every fragment reduced inside the simulation.
PINNED = {
    "quick": "bfd1faa2c874b7a90bc4866f72be6c8e0888b2e0534318e99324c7150420229f",
    "full": "04aaebc656ef001ae57423ee076a79306aa2b49ce9dc3353f7a80e6b865a04da",
}


def _panels_sha256(**overrides):
    results = run_experiment("fig1", **overrides)
    panels = json.dumps([result.to_dict() for result in results], sort_keys=True)
    return hashlib.sha256(panels.encode()).hexdigest()


@pytest.mark.parametrize("size", sorted(PINNED))
def test_panels_match_the_reducing_pipeline(size):
    overrides = quick_overrides("fig1") if size == "quick" else {}
    assert _panels_sha256(**overrides) == PINNED[size]


def test_computes_no_image(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fig1 computed pixel data")

    monkeypatch.setattr(cluster_module, "reject_cosmic_rays", refuse)
    monkeypatch.setattr(cluster_module, "reject_cosmic_rays_segmented", refuse)
    monkeypatch.setattr(cluster_module, "rice_encode", refuse)
    monkeypatch.setattr(NGSTPreprocessor, "process_stack", refuse)
    assert _panels_sha256(**quick_overrides("fig1")) == PINNED["quick"]
