"""Dispatch semantics of the native kernel tier.

The byte-identity of the tiers is covered by
``tests/core/test_kernel_equivalence.py``; these tests pin down the
selection machinery itself — env-var parsing, the ``kernel_tier``
override, routing by tier — plus the ``repro kernels`` CLI and the
loader's failure surface.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.native import (
    ENV_VAR,
    TIERS,
    dispatch,
    get_kernel_tier,
    kernel_tier,
    loader,
    native_available,
)
from repro.native.cli import main as kernels_main


@pytest.fixture(autouse=True)
def _clean_tier_state(monkeypatch):
    """Every test starts from env/auto selection."""
    monkeypatch.delenv(ENV_VAR, raising=False)


@pytest.fixture
def dummy_kernel():
    """A registry entry whose three tiers are distinguishable."""
    name = "test_dummy_kernel"
    calls = []
    dispatch.register(
        name,
        numpy_impl=lambda x: calls.append("numpy") or "numpy",
        reference_impl=lambda x: calls.append("reference") or "reference",
        native_impl=lambda x: calls.append("native") or "native",
    )
    yield name, calls
    dispatch._REGISTRY.pop(name, None)


def test_tier_constants():
    assert TIERS == ("numpy", "reference")
    assert ENV_VAR == "REPRO_KERNEL_TIER"


def test_default_tier_is_auto():
    assert dispatch.configured_tier() == "auto"
    assert get_kernel_tier() == "auto"


def test_env_var_is_parsed_case_and_space_insensitively(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "  NumPy ")
    assert get_kernel_tier() == "numpy"
    monkeypatch.setenv(ENV_VAR, "")
    assert get_kernel_tier() == "auto"


def test_unknown_env_tier_raises(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "fortran")
    with pytest.raises(ConfigurationError, match="unknown kernel tier"):
        get_kernel_tier()


def test_native_tier_value_is_rejected(monkeypatch):
    # auto already runs the C kernel when the extension loads; there is
    # no separate value to request it.
    monkeypatch.setenv(ENV_VAR, "native")
    with pytest.raises(ConfigurationError) as excinfo:
        get_kernel_tier()
    assert str(excinfo.value) == (
        "unknown kernel tier 'native'; expected one of "
        "('auto', 'numpy', 'reference')"
    )


def test_kernel_tier_validates_and_overrides_env(monkeypatch):
    with pytest.raises(ConfigurationError, match="unknown kernel tier"):
        with kernel_tier("assembler"):
            pass
    monkeypatch.setenv(ENV_VAR, "numpy")
    with kernel_tier("reference"):
        assert get_kernel_tier() == "reference"
    assert get_kernel_tier() == "numpy"


def test_kernel_tier_context_restores_previous():
    with kernel_tier("numpy"):
        with kernel_tier("reference"):
            assert get_kernel_tier() == "reference"
            with kernel_tier(None):
                assert get_kernel_tier() == "auto"
            assert get_kernel_tier() == "reference"
        assert get_kernel_tier() == "numpy"
    assert get_kernel_tier() == "auto"


def test_call_routes_by_tier(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    with kernel_tier("numpy"):
        assert dispatch.call(name, 1) == "numpy"
    with kernel_tier("reference"):
        assert dispatch.call(name, 1) == "reference"
    monkeypatch.setattr(loader, "available", lambda: True)
    with kernel_tier("auto"):
        assert dispatch.call(name, 1) == "native"


def test_auto_without_extension_is_silent(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    monkeypatch.setattr(loader, "available", lambda: False)
    import warnings

    with kernel_tier("auto"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch.call(name, 1) == "numpy"


def test_resolve_reports_argument_independent_tier(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    with kernel_tier("reference"):
        assert dispatch.resolve(name) == "reference"
    with kernel_tier("numpy"):
        assert dispatch.resolve(name) == "numpy"
    monkeypatch.setattr(loader, "available", lambda: True)
    with kernel_tier("auto"):
        assert dispatch.resolve(name) == "native"
    monkeypatch.setattr(loader, "available", lambda: False)
    with kernel_tier("auto"):
        assert dispatch.resolve(name) == "numpy"


def test_dispatched_results_identical_across_requested_tiers():
    # End-to-end sanity on real kernels, whatever tiers this host has.
    from repro.core import bitops
    from repro.faults.correlated import correlated_flip_grid

    arr = np.arange(96, dtype=np.uint16).reshape(8, 12) * 571
    for run in (
        lambda: bitops.to_bit_planes(arr),
        lambda: correlated_flip_grid((24, 40), 0.3, np.random.default_rng(5)),
    ):
        outputs = []
        for tier in ("auto",) + TIERS:
            with kernel_tier(tier):
                outputs.append(run())
        for other in outputs[1:]:
            assert np.array_equal(outputs[0], other)


# ---------------------------------------------------------------------------
# loader surface
# ---------------------------------------------------------------------------


def test_loader_reports_origin_or_reason():
    if native_available():
        assert loader.origin()
        assert loader.unavailable_reason() is None
    else:
        assert loader.origin() is None
        assert loader.unavailable_reason()


def test_cache_root_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "knl"))
    assert loader.cache_root() == tmp_path / "knl"


# ---------------------------------------------------------------------------
# repro kernels CLI
# ---------------------------------------------------------------------------


def test_kernels_cli_human_report(capsys):
    assert kernels_main([]) == 0
    out = capsys.readouterr().out
    assert "requested tier" in out
    assert "correlated_flip_grid" in out
    assert "majority_vote_window" in out


def test_kernels_cli_json(capsys):
    assert kernels_main(["--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["requested_tier"] == "auto"
    assert isinstance(info["native_available"], bool)
    assert isinstance(info["compiler_available"], bool)
    expected = {
        "correlated_flip_grid",
        "grt",
        "unanimous",
        "to_bit_planes",
        "from_bit_planes",
        "majority_vote_window",
        "weighted_window_smooth",
        "rice_encode",
        "otis_sweep",
    }
    assert expected <= set(info["kernels"])
    with_native = {
        name for name, entry in info["kernels"].items() if entry["has_native_impl"]
    }
    assert with_native == {"correlated_flip_grid"}
    for entry in info["kernels"].values():
        assert set(entry) == {"tier", "has_native_impl"}
        assert entry["tier"] in ("native",) + TIERS


def test_kernels_cli_require_gate(capsys, monkeypatch):
    monkeypatch.setenv(ENV_VAR, "numpy")
    assert kernels_main(["--require", "numpy"]) == 0
    assert kernels_main(["--require", "native"]) == 1
    assert "--require native failed" in capsys.readouterr().err


def test_kernels_cli_require_native_passes_over_numpy_only_kernels(capsys, monkeypatch):
    # Only the correlated scan has a native tier; the other kernels
    # resolve to numpy even when the extension loads, and that is not a
    # fallback the gate should flag.
    monkeypatch.setattr(loader, "available", lambda: True)
    assert kernels_main(["--require", "native"]) == 0
    out = capsys.readouterr().out
    [line] = [line for line in out.splitlines() if "correlated_flip_grid" in line]
    assert line.endswith("->  native")
    for name in ("grt", "to_bit_planes", "rice_encode", "otis_sweep"):
        [line] = [line for line in out.splitlines() if name in line]
        assert line.endswith("->  numpy  (no native impl)")
    assert kernels_main(["--require", "numpy"]) == 1


def test_kernels_cli_routed_from_main(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["kernels", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert "kernels" in info
