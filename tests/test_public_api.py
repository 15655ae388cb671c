"""Contract tests on the top-level public API surface."""

import inspect

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_every_public_class_is_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert (obj.__doc__ or "").strip(), f"{name} lacks a docstring"

    def test_error_hierarchy(self):
        from repro.exceptions import (
            ALFTError,
            CodecError,
            ConfigurationError,
            DataFormatError,
            FITSFormatError,
            HeaderSanityError,
            ReproError,
            SimulationError,
        )

        for exc in (
            ALFTError,
            CodecError,
            ConfigurationError,
            DataFormatError,
            FITSFormatError,
            HeaderSanityError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(HeaderSanityError, FITSFormatError)
        assert issubclass(ConfigurationError, ValueError)

    def test_sweep_specs_and_content_keys_are_exported(self):
        """Arm sweeps are built from ``repro.runtime`` specs and stored
        under ``repro.dag`` content keys."""
        import repro.dag
        import repro.runtime
        from repro.runtime import specs

        for name in ("Arm", "DatasetSpec", "FaultSpec"):
            assert getattr(repro.runtime, name) is getattr(specs, name)
            assert name in repro.runtime.__all__
        for name in ("pristine_key", "realization_key"):
            assert name in repro.dag.__all__

    def test_runtime_exports_only_the_dag_seams(self):
        """Batch runs are task graphs: ``repro.runtime`` carries the
        backends the scheduler dispatches to, the sweep specs and the
        DAG telemetry, and no trial runtime of its own."""
        import repro.runtime

        assert set(repro.runtime.__all__) == {
            "Arm", "DagCompleted", "DagStarted", "DatasetSpec", "Executor",
            "FaultSpec", "NodeCompleted", "ProcessPoolBackend",
            "ProgressPrinter", "SerialBackend", "ShardResult", "Telemetry",
            "resolve_backend",
        }
        assert {"ProcessPoolBackend", "SerialBackend"} <= set(repro.__all__)

    def test_quickstart_snippet_from_readme(self):
        """The README quickstart must keep working verbatim-ish."""
        rng = np.random.default_rng(7)
        pristine = repro.generate_walk(
            repro.NGSTDatasetConfig(), rng, shape=(16, 16)
        )
        corrupted, _ = repro.FaultInjector(
            repro.UncorrelatedFaultModel(0.01), seed=1
        ).inject(pristine)
        repaired = repro.AlgoNGST(repro.NGSTConfig(sensitivity=80))(
            corrupted
        ).corrected
        assert repro.psi(repaired, pristine) < repro.psi(corrupted, pristine)


class TestConfigReprs:
    """Frozen dataclasses should round-trip through repr for debugging."""

    @pytest.mark.parametrize(
        "config",
        [
            repro.NGSTConfig(),
            repro.OTISConfig(),
            repro.NGSTDatasetConfig(),
            repro.UncorrelatedFaultConfig(),
            repro.CorrelatedFaultConfig(),
            repro.OTISBounds(),
        ],
        ids=lambda c: type(c).__name__,
    )
    def test_repr_eval_roundtrip(self, config):
        namespace = {
            name: getattr(repro, name)
            for name in repro.__all__
            if not name.startswith("__")
        }
        clone = eval(repr(config), namespace)  # noqa: S307 - test-only
        assert clone == config

    def test_configs_hashable(self):
        assert hash(repro.NGSTConfig()) == hash(repro.NGSTConfig())
        assert hash(repro.NGSTConfig()) != hash(
            repro.NGSTConfig(sensitivity=99)
        )


class TestCrossDtypeSupport:
    def test_algo_ngst_uint32_stack(self):
        stack = np.full((16, 4), 2_000_000_000, dtype=np.uint32)
        stack[5, 2] ^= np.uint32(1 << 30)
        result = repro.AlgoNGST(repro.NGSTConfig(sensitivity=80))(stack)
        assert result.corrected[5, 2] == 2_000_000_000

    def test_uncorrelated_model_uint8(self):
        data = np.zeros(1000, dtype=np.uint8)
        corrupted, mask = repro.UncorrelatedFaultModel(0.1).corrupt(
            data, np.random.default_rng(0)
        )
        assert corrupted.dtype == np.uint8
        assert 0 < np.bitwise_count(mask).sum() < 1000 * 8 * 0.2

    def test_bit_confusion_uint32(self):
        a = np.array([7], dtype=np.uint32)
        conf = repro.bit_confusion(a, a, a)
        assert conf.total_bits == 32
