"""Tenant configs and the persisted tenant registry."""

import dataclasses
import json
import re

import pytest

from repro.exceptions import ConfigurationError, ServeError
from repro.serve import DEFAULT_TENANT, TenantConfig, TenantRegistry
from repro.stream import StreamSpec
from repro.stream.cli import build_parser, main as stream_main, stream_spec

#: The fields every CLI/tenant pair below shares, and their flags; the
#: CLI's own --inject-seed default is 1.
VOTER = dict(inject_seed=1, upsilon=4, sensitivity=60.0, stack_frames=16)
VOTER_FLAGS = ["--upsilon", "4", "--sensitivity", "60", "--stack-frames", "16"]


def spec_of(tenant: TenantConfig) -> StreamSpec:
    """The stream spec a tenant holds, without its transport envelope."""
    return StreamSpec(
        **{f.name: getattr(tenant, f.name) for f in dataclasses.fields(StreamSpec)}
    )


class TestTenantConfig:
    def test_defaults_build_voter_only(self):
        stages = TenantConfig().build_stages()
        assert [s.name for s in stages] == ["algo_ngst[N=16]"]

    def test_full_chain_order(self):
        config = TenantConfig(
            name="full", gamma=0.01, smoother="median", window=3
        )
        assert [s.name for s in config.build_stages()] == [
            "inject[UncorrelatedFaultModel]",
            "algo_ngst[N=16]",
            "median3",
        ]

    def test_passthrough_tenant(self):
        config = TenantConfig(name="raw", gamma=0.0, upsilon=0)
        assert config.build_stages() == []

    def test_stage_identity_is_stable(self):
        # Same config -> same stage names, so every stream of a tenant
        # shares a checkpoint fingerprint family.
        a = TenantConfig(name="x", gamma=0.02, smoother="mean")
        b = TenantConfig(name="x", gamma=0.02, smoother="mean")
        assert [s.describe() for s in a.build_stages()] == [
            s.describe() for s in b.build_stages()
        ]

    @pytest.mark.parametrize(
        "tenant, flags",
        [
            pytest.param(
                dict(gamma=0.01, inject_seed=3),
                ["--gamma", "0.01", "--inject-seed", "3"],
                id="fixed-inject",
            ),
            pytest.param(dict(gamma=0.0), ["--gamma", "0"], id="fixed-no-inject"),
            pytest.param(
                dict(gamma=0.0, strategy="selective", margin=1, header_rows=2,
                     science_fast=True),
                ["--gamma", "0", "--strategy", "selective", "--margin", "1",
                 "--header-rows", "2", "--science-fast"],
                id="selective",
            ),
            pytest.param(
                dict(gamma=0.02, inject_seed=5, autotune=True, autotune_window=3,
                     autotune_interval=2, autotune_min_delta=10.0,
                     autotune_confirm=1, autotune_seed=4),
                ["--gamma", "0.02", "--inject-seed", "5", "--autotune",
                 "--autotune-window", "3", "--autotune-interval", "2",
                 "--autotune-min-delta", "10", "--autotune-confirm", "1",
                 "--autotune-seed", "4"],
                id="autotune",
            ),
            pytest.param(
                dict(gamma=0.01, inject_seed=3, smoother="median", window=3),
                ["--gamma", "0.01", "--inject-seed", "3", "--smoother",
                 "median", "--window", "3"],
                id="median-smoother",
            ),
        ],
    )
    def test_cli_flags_build_the_same_stages(self, tenant, flags):
        # The flags parse into a spec equal to the tenant's, and one
        # builder turns both into stages.  The checkpoint fingerprints
        # still differ, because each one also names its source.
        config = TenantConfig(name="t", **{**VOTER, **tenant})
        spec = stream_spec(build_parser().parse_args(VOTER_FLAGS + flags))
        assert spec == spec_of(config)
        described = [s.describe() for s in config.build_stages()]
        assert described == [s.describe() for s in spec.build_stages()]
        assert len(described) == 1 + (config.gamma > 0) + bool(config.smoother)

    @pytest.mark.parametrize(
        "bad, flags",
        [
            (dict(gamma=1.5), ["--gamma", "1.5"]),
            (dict(upsilon=3), ["--upsilon", "3"]),
            (dict(stack_frames=2), ["--stack-frames", "2"]),
            (dict(stack_frames=0), ["--stack-frames", "0"]),
            (dict(smoother="median", window=4),
             ["--smoother", "median", "--window", "4"]),
            (dict(autotune=True, autotune_window=0),
             ["--autotune", "--autotune-window", "0"]),
            (dict(autotune=True, autotune_min_delta=-1.0),
             ["--autotune", "--autotune-min-delta", "-1"]),
            (dict(inject_seed=-3), ["--inject-seed", "-3"]),
            (dict(autotune_seed=-2), ["--autotune-seed", "-2"]),
            (dict(profile="step:elevated"), ["--profile", "step:elevated"]),
            (dict(profile="step:period=x"), ["--profile", "step:period=x"]),
            (dict(chunk_frames=0), ["--chunk-frames", "0"]),
            (dict(autotune=True, autotune_interval=0),
             ["--autotune", "--autotune-interval", "0"]),
            (dict(autotune=True, autotune_confirm=0),
             ["--autotune", "--autotune-confirm", "0"]),
        ],
        ids=[
            "gamma", "upsilon", "stack-frames", "stack-frames-zero",
            "even-window", "autotune-window", "min-delta", "inject-seed",
            "autotune-seed", "profile-pair", "profile-value", "chunk-frames",
            "autotune-interval", "autotune-confirm",
        ],
    )
    def test_one_message_per_refusal(self, capsys, bad, flags):
        # A tenant and the CLI refuse a bad value with the same line, and
        # that line names the spec field the operator set (the last key
        # of *bad*) as a whole word, not a stage constructor's parameter
        # such as ``gamma0``.
        field = re.compile(rf"\b{list(bad)[-1]}\b")
        with pytest.raises(ConfigurationError) as excinfo:
            TenantConfig(**bad)
        assert field.search(str(excinfo.value))
        assert stream_main(["--frames", "8", "--shape", "2"] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"stream failed: {excinfo.value}"
        ]

    def test_a_profile_keeps_the_injector_at_gamma_zero(self):
        stages = TenantConfig(gamma=0.0, profile="sine:base=0.01").build_stages()
        assert [s.name for s in stages] == [
            "inject[UncorrelatedFaultModel]",
            "algo_ngst[N=16]",
        ]
        assert "+profile(" in stages[0].describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "a/b"},
            {"name": " padded "},
            {"gamma": 1.5},
            {"gamma": -0.1},
            {"smoother": "nope"},
            {"smoother": "median", "window": 0},
            {"smoother": "median", "window": 4},
            {"smoother": "mean", "window": -3},
            {"chunk_frames": 0},
            {"chunk_frames": 64, "buffer_frames": 32},
            {"policy": "bogus"},
            {"upsilon": 8, "stack_frames": 3},
            {"inject_seed": -3},
            {"autotune_seed": -1},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantConfig(**kwargs)

    def test_dict_round_trip(self):
        config = TenantConfig(
            name="rt", gamma=0.03, upsilon=8, stack_frames=12, durable=False
        )
        assert TenantConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown tenant config key"):
            TenantConfig.from_dict({"name": "x", "gammma": 0.1})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigurationError):
            TenantConfig.from_dict(["not", "a", "dict"])

    def test_describe_mentions_stages_and_envelope(self):
        text = TenantConfig(name="d", gamma=0.01).describe()
        assert "inject[UncorrelatedFaultModel]" in text
        assert "chunk=64" in text


def legacy_entry(**overrides):
    """One tenant as registries persisted it while the adaptive strategy
    existed: every field, including the two adaptive-only knobs."""
    entry = {
        "name": "default", "gamma": 0.0, "inject_seed": 0, "upsilon": 4,
        "sensitivity": 50.0, "stack_frames": 16, "smoother": None,
        "window": 5, "chunk_frames": 64, "policy": "block",
        "buffer_frames": 4096, "durable": True, "measure": True,
        "strategy": "fixed", "coherence_beta": 1.0,
        "coherence_prune_ratio": 0.0, "margin": 0, "header_rows": 0,
        "science_fast": False, "autotune": False, "autotune_window": 2,
        "autotune_interval": 1, "autotune_min_delta": 15.0,
        "autotune_confirm": 2, "autotune_seed": 0,
    }
    entry.update(overrides)
    return entry


class TestTenantRegistry:
    def test_fresh_registry_has_default(self, tmp_path):
        registry = TenantRegistry(tmp_path / "tenants.json")
        assert DEFAULT_TENANT in registry
        assert registry.get(DEFAULT_TENANT).name == DEFAULT_TENANT

    def test_put_persists_across_instances(self, tmp_path):
        path = tmp_path / "tenants.json"
        TenantRegistry(path).put(TenantConfig(name="lab", gamma=0.02))
        reloaded = TenantRegistry(path)
        assert reloaded.get("lab").gamma == 0.02

    def test_get_unknown_raises(self, tmp_path):
        registry = TenantRegistry(tmp_path / "tenants.json")
        with pytest.raises(ServeError, match="unknown tenant"):
            registry.get("absent")

    def test_delete_roundtrip_and_default_protection(self, tmp_path):
        path = tmp_path / "tenants.json"
        registry = TenantRegistry(path)
        registry.put(TenantConfig(name="gone"))
        registry.delete("gone")
        assert "gone" not in registry
        assert "gone" not in TenantRegistry(path)
        with pytest.raises(ServeError, match="default"):
            registry.delete(DEFAULT_TENANT)
        with pytest.raises(ServeError, match="unknown"):
            registry.delete("never-existed")

    def test_memory_only_registry(self):
        registry = TenantRegistry(None)
        registry.put(TenantConfig(name="ephemeral"))
        assert len(registry) == 2  # default + ephemeral

    def test_loads_a_registry_with_retired_adaptive_keys(self, tmp_path):
        # A server restarted on state written before the adaptive
        # strategy was retired serves the same tenants.
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [
            legacy_entry(),
            legacy_entry(
                name="lab", gamma=0.02, strategy="selective", margin=1
            ),
        ]}))
        registry = TenantRegistry(path)
        assert registry.get(DEFAULT_TENANT) == TenantConfig()
        assert registry.get("lab") == TenantConfig(
            name="lab", gamma=0.02, strategy="selective", margin=1
        )
        # The control plane still refuses the retired keys on the wire.
        with pytest.raises(ConfigurationError, match="unknown tenant config key"):
            TenantConfig.from_dict(legacy_entry())

    def test_loads_a_registry_with_the_retired_measure_key(self, tmp_path):
        # Entries written after the adaptive keys left, but while every
        # tenant persisted a "measure" flag, load without it.
        entry = {
            key: value
            for key, value in legacy_entry(name="lab", gamma=0.02).items()
            if key not in ("coherence_beta", "coherence_prune_ratio")
        }
        assert entry["measure"] is True
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [entry]}))
        assert TenantRegistry(path).get("lab") == TenantConfig(
            name="lab", gamma=0.02
        )
        with pytest.raises(ConfigurationError, match="unknown tenant config key"):
            TenantConfig.from_dict({"name": "lab", "measure": True})

    def test_refuses_a_persisted_adaptive_tenant_by_name(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": [
            legacy_entry(),
            legacy_entry(
                name="old", strategy="adaptive", coherence_beta=0.5
            ),
        ]}))
        with pytest.raises(ConfigurationError) as excinfo:
            TenantRegistry(path)
        message = str(excinfo.value)
        assert "'old'" in message and "adaptive" in message
        assert "\n" not in message
