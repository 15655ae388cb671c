"""Dispatch semantics of the native kernel tier.

The byte-identity of the tiers is covered by
``tests/core/test_kernel_equivalence.py``; these tests pin down the
selection machinery itself — env-var parsing, the programmatic knob,
the accepts-predicate demotion, the explicit-native fallback warning —
plus the ``repro kernels`` CLI and the loader's failure surface.
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
    set_kernel_tier,
)
from repro.native.cli import main as kernels_main


@pytest.fixture(autouse=True)
def _clean_tier_state(monkeypatch):
    """Every test starts from env/auto selection and leaves no override."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_kernel_tier(None)
    yield
    set_kernel_tier(None)


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
        accepts=lambda x: x >= 0,
    )
    yield name, calls
    dispatch._REGISTRY.pop(name, None)


def test_tier_constants():
    assert TIERS == ("native", "numpy", "reference")
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


def test_set_kernel_tier_validates_and_overrides_env(monkeypatch):
    with pytest.raises(ConfigurationError, match="unknown kernel tier"):
        set_kernel_tier("assembler")
    monkeypatch.setenv(ENV_VAR, "numpy")
    set_kernel_tier("reference")
    assert get_kernel_tier() == "reference"
    set_kernel_tier(None)
    assert get_kernel_tier() == "numpy"


def test_kernel_tier_context_restores_previous():
    set_kernel_tier("numpy")
    with kernel_tier("reference"):
        assert get_kernel_tier() == "reference"
        with kernel_tier(None):
            assert get_kernel_tier() == "auto"
        assert get_kernel_tier() == "reference"
    assert get_kernel_tier() == "numpy"


def test_call_routes_by_tier(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    with kernel_tier("numpy"):
        assert dispatch.call(name, 1) == "numpy"
    with kernel_tier("reference"):
        assert dispatch.call(name, 1) == "reference"
    monkeypatch.setattr(loader, "available", lambda: True)
    with kernel_tier("native"):
        assert dispatch.call(name, 1) == "native"
    with kernel_tier("auto"):
        assert dispatch.call(name, 1) == "native"


def test_accepts_predicate_demotes_single_calls(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    monkeypatch.setattr(loader, "available", lambda: True)
    with kernel_tier("native"):
        assert dispatch.call(name, 1) == "native"
        assert dispatch.call(name, -1) == "numpy"  # accepts() rejected


def test_explicit_native_without_extension_warns_once(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    monkeypatch.setattr(loader, "available", lambda: False)
    monkeypatch.setattr(loader, "unavailable_reason", lambda: "test stub")
    monkeypatch.setattr(dispatch, "_warned_native_missing", False)
    with kernel_tier("native"):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert dispatch.call(name, 1) == "numpy"
        # Second call: silent fallback, no warning spam.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch.call(name, 1) == "numpy"


def test_auto_without_extension_is_silent(dummy_kernel, monkeypatch):
    name, _calls = dummy_kernel
    monkeypatch.setattr(loader, "available", lambda: False)
    monkeypatch.setattr(dispatch, "_warned_native_missing", False)
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
    # End-to-end sanity on a real kernel, whatever tiers this host has.
    from repro.core import bitops

    arr = np.arange(96, dtype=np.uint16).reshape(8, 12) * 571
    outputs = []
    for tier in ("auto",) + TIERS[1:]:
        with kernel_tier(tier):
            outputs.append(bitops.to_bit_planes(arr))
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
        "otis_band",
    }
    assert expected <= set(info["kernels"])
    for numpy_only in ("rice_encode", "otis_band"):
        assert info["kernels"][numpy_only]["has_native_impl"] is False
    for entry in info["kernels"].values():
        assert entry["tier"] in TIERS


def test_kernels_cli_require_gate(capsys):
    set_kernel_tier("numpy")
    assert kernels_main(["--require", "numpy"]) == 0
    assert kernels_main(["--require", "native"]) == 1
    assert "--require native failed" in capsys.readouterr().err


def test_kernels_cli_require_native_passes_over_numpy_only_kernels(capsys, monkeypatch):
    # rice_encode has no native tier, so it resolves to numpy even when
    # the extension loads; that is not a fallback the gate should flag.
    monkeypatch.setattr(loader, "available", lambda: True)
    assert kernels_main(["--require", "native"]) == 0
    out = capsys.readouterr().out
    for name in ("rice_encode", "otis_band"):
        [line] = [line for line in out.splitlines() if name in line]
        assert line.endswith("->  numpy  (no native impl)")
    assert kernels_main(["--require", "numpy"]) == 1


def test_kernels_cli_routed_from_main(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["kernels", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert "kernels" in info


def test_threads_flag_validation(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["fig2", "--threads", "-2"]) == 2
    assert repro_main(["fig2", "--threads", "2", "--jobs", "3"]) == 2
    err = capsys.readouterr().err
    assert "mutually exclusive" in err
