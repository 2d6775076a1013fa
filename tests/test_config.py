"""Tests for the unified SessionConfig layer: validation, serialization
round-trips, env overrides, flat-name routing, and the
cache-key stability guarantee (config-derived variant keys must be
bit-identical to the historical strings)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.signature import variant_key as legacy_variant_key
from repro.config import (
    FLAT_FIELDS,
    CacheConfig,
    ExecConfig,
    SearchConfig,
    ServeConfig,
    SessionConfig,
    apply_env,
    describe_fields,
    env_var_for,
    field_paths,
)
from repro.search.engine.strategy import strategy_names


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = SessionConfig()
        assert cfg.gpu == "a100"
        assert cfg.search.population_size == 512
        assert cfg.exec.backend == "auto"
        assert cfg.cache.enabled is True
        assert cfg.serve.workers == 4
        assert cfg.obs.trace is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="fuserx"),
            dict(strategy="quantum"),
            dict(population_size=0),
            dict(top_n=0),
            dict(epsilon=-0.1),
            dict(max_rounds=0),
            dict(min_rounds=-1),
            dict(workers=0),
            dict(measure_topk=-1),
        ],
    )
    def test_search_rejects_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(backend="cuda"),
            dict(verify="maybe"),
            dict(dynamic="ragged"),
            dict(dynamic_loops=("m", "")),
        ],
    )
    def test_exec_rejects_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ExecConfig(**kwargs)

    def test_cache_rejects_empty_dir(self):
        with pytest.raises(ValueError):
            CacheConfig(dir="")

    @pytest.mark.parametrize("kwargs", [dict(workers=0), dict(queue_limit=0)])
    def test_serve_rejects_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_empty_gpu_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig(gpu="")

    def test_wrong_section_type_rejected(self):
        with pytest.raises(ValueError, match="section 'search'"):
            SessionConfig(search="fast")

    def test_section_dict_coerces(self):
        cfg = SessionConfig(search={"seed": 7})
        assert cfg.search.seed == 7
        assert cfg.search.population_size == 512

    def test_error_names_valid_choices(self):
        with pytest.raises(ValueError, match="pick from"):
            SearchConfig(variant="fuserx")


class TestFlatRouting:
    def test_make_routes_flat_names(self):
        cfg = SessionConfig.make(
            seed=3, exec_backend="vectorized", serve_workers=2, trace=True
        )
        assert cfg.search.seed == 3
        assert cfg.exec.backend == "vectorized"
        assert cfg.serve.workers == 2
        assert cfg.obs.trace is True

    def test_evolve_unknown_name_lists_valid_set(self):
        with pytest.raises(ValueError, match="valid flat names"):
            SessionConfig().evolve(populationsize=4)

    def test_evolve_skips_none(self):
        cfg = SessionConfig.make(seed=5)
        assert cfg.evolve(seed=None).search.seed == 5

    def test_evolve_cache_dir_none_is_real(self, tmp_path):
        cfg = SessionConfig.make(cache_dir=str(tmp_path))
        assert cfg.cache.dir == str(tmp_path)
        assert cfg.evolve(cache_dir=None).cache.dir is None

    def test_evolve_batches_cross_field_validation(self):
        # max_rounds=2 < default min_rounds=5 must be applied together.
        cfg = SessionConfig.make(max_rounds=2, min_rounds=1)
        assert (cfg.search.max_rounds, cfg.search.min_rounds) == (2, 1)

    def test_update_and_get_dotted_paths(self):
        cfg = SessionConfig().update("search.seed", 9)
        assert cfg.get("search.seed") == 9
        assert cfg.get("gpu") == "a100"

    @pytest.mark.parametrize("path", ["nope", "search.nope", "nope.seed"])
    def test_update_unknown_path_rejected(self, path):
        with pytest.raises(ValueError):
            SessionConfig().update(path, 1)

    def test_flat_fields_bijection_with_schema(self):
        # Every leaf path has exactly one flat name and vice versa.
        assert sorted(FLAT_FIELDS.values()) == sorted(field_paths())
        assert len(set(FLAT_FIELDS.values())) == len(FLAT_FIELDS)

    def test_describe_fields_covers_schema(self):
        rows = describe_fields()
        assert [r["path"] for r in rows] == field_paths()
        assert all(r["env"].startswith("REPRO_") for r in rows)


class TestSerialization:
    def test_round_trip_default(self):
        cfg = SessionConfig()
        assert SessionConfig.from_json(cfg.to_json()) == cfg

    def test_round_trip_customized(self):
        cfg = SessionConfig.make(
            gpu="rtx3080",
            seed=11,
            strategy="random",
            exec_backend="scalar",
            dynamic="buckets",
            dynamic_loops=("m",),
            cache_enabled=False,
            serve_workers=2,
            queue_limit=8,
            trace=True,
        )
        restored = SessionConfig.from_json(cfg.to_json())
        assert restored == cfg
        assert restored.exec.dynamic_loops == ("m",)  # list -> tuple

    def test_unknown_keys_tolerated(self):
        payload = SessionConfig().to_dict()
        payload["future_section"] = {"x": 1}
        payload["search"]["future_knob"] = 42
        assert SessionConfig.from_dict(payload) == SessionConfig()

    def test_missing_keys_take_defaults(self):
        cfg = SessionConfig.from_dict({"search": {"seed": 4}})
        assert cfg.search.seed == 4
        assert cfg.exec.backend == "auto"

    def test_invalid_values_still_raise(self):
        payload = SessionConfig().to_dict()
        payload["search"]["strategy"] = "quantum"
        with pytest.raises(ValueError):
            SessionConfig.from_dict(payload)

    def test_bad_json_raises_value_error(self):
        with pytest.raises(ValueError, match="invalid config JSON"):
            SessionConfig.from_json("{not json")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError):
            SessionConfig.from_dict([1, 2])
        with pytest.raises(ValueError):
            SessionConfig.from_dict({"search": [1]})

    def test_save_load(self, tmp_path):
        cfg = SessionConfig.make(seed=13, strategy="annealing")
        path = cfg.save(str(tmp_path / "cfg.json"))
        assert SessionConfig.load(path) == cfg

    def test_to_dict_carries_version(self):
        payload = SessionConfig().to_dict()
        assert payload["version"] == 1
        assert json.dumps(payload)  # JSON-able


# Random valid configs for the property-based round trip.
_configs = st.builds(
    SessionConfig.make,
    gpu=st.sampled_from(["a100", "rtx3080", "v100"]),
    seed=st.integers(0, 2**31 - 1),
    strategy=st.sampled_from(sorted(strategy_names())),
    population_size=st.integers(1, 4096),
    top_n=st.integers(1, 64),
    epsilon=st.floats(0, 1, allow_nan=False),
    max_rounds=st.integers(1, 64),
    min_rounds=st.integers(0, 64),
    workers=st.integers(1, 8),
    cost_model=st.booleans(),
    measure_topk=st.integers(0, 16),
    exec_backend=st.sampled_from(["auto", "compiled", "vectorized", "scalar"]),
    verify=st.sampled_from(["off", "best", "all"]),
    dynamic=st.sampled_from(["off", "buckets"]),
    dynamic_loops=st.lists(
        st.sampled_from(["m", "n", "k", "h"]), min_size=1, max_size=4, unique=True
    ).map(tuple),
    cache_enabled=st.booleans(),
    serve_workers=st.integers(1, 16),
    queue_limit=st.integers(1, 1024),
    trace=st.booleans(),
)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_configs)
    def test_json_round_trip_lossless(self, cfg):
        assert SessionConfig.from_json(cfg.to_json()) == cfg

    @settings(max_examples=60, deadline=None)
    @given(cfg=_configs)
    def test_content_hash_stable_under_round_trip(self, cfg):
        assert SessionConfig.from_json(cfg.to_json()).content_hash() == (
            cfg.content_hash()
        )


class TestEnvOverrides:
    def test_env_var_names(self):
        assert env_var_for("gpu") == "REPRO_GPU"
        assert env_var_for("search.seed") == "REPRO_SEARCH_SEED"
        # The variable the cache layer honored long before this config layer.
        assert env_var_for("cache.dir") == "REPRO_CACHE_DIR"

    def test_env_overrides_typed_fields(self):
        cfg = apply_env(
            SessionConfig(),
            {
                "REPRO_SEARCH_SEED": "9",
                "REPRO_EXEC_BACKEND": "scalar",
                "REPRO_CACHE_ENABLED": "no",
                "REPRO_SEARCH_EPSILON": "0.5",
                "REPRO_EXEC_DYNAMIC_LOOPS": "m, n",
            },
        )
        assert cfg.search.seed == 9
        assert cfg.exec.backend == "scalar"
        assert cfg.cache.enabled is False
        assert cfg.search.epsilon == 0.5
        assert cfg.exec.dynamic_loops == ("m", "n")

    def test_env_wins_over_config_value(self):
        base = SessionConfig.make(seed=3)
        assert apply_env(base, {"REPRO_SEARCH_SEED": "4"}).search.seed == 4

    def test_unset_env_leaves_fields(self):
        base = SessionConfig.make(seed=3)
        assert apply_env(base, {}) == base

    @pytest.mark.parametrize(
        "var,raw",
        [
            ("REPRO_SEARCH_SEED", "three"),
            ("REPRO_CACHE_ENABLED", "maybe"),
            ("REPRO_SEARCH_EPSILON", "tiny"),
            ("REPRO_EXEC_BACKEND", "cuda"),
        ],
    )
    def test_malformed_env_raises(self, var, raw):
        with pytest.raises(ValueError):
            apply_env(SessionConfig(), {var: raw})

    def test_default_applies_environ(self):
        cfg = SessionConfig.default({"REPRO_SEARCH_SEED": "5"})
        assert cfg.search.seed == 5


class TestVariantKeyRegression:
    """Config-derived cache keys must be bit-identical to the historical
    variant_key() strings — no persistent-store entry may be orphaned."""

    CASES = [
        # (flat overrides, exact historical key)
        (dict(), "mcfuser"),
        (dict(strategy="random"), "mcfuser+random"),
        (dict(strategy="annealing"), "mcfuser+annealing"),
        (dict(strategy="exhaustive"), "mcfuser+exhaustive"),
        (dict(measure_topk=1), "mcfuser+topk1"),
        (dict(measure_topk=2), "mcfuser+topk2"),
        (dict(strategy="random", measure_topk=3), "mcfuser+random+topk3"),
        (dict(variant="chimera"), "chimera"),
        (dict(variant="chimera", strategy="random"), "chimera+random"),
        (dict(variant="chimera", measure_topk=1), "chimera+topk1"),
    ]

    @pytest.mark.parametrize("overrides,expected", CASES)
    def test_exact_historical_strings(self, overrides, expected):
        assert SessionConfig.make(**overrides).variant_key == expected

    @pytest.mark.parametrize("overrides,expected", CASES)
    def test_matches_legacy_function(self, overrides, expected):
        cfg = SessionConfig.make(**overrides)
        assert cfg.variant_key == legacy_variant_key(
            cfg.search.variant, cfg.search.strategy, cfg.search.measure_topk
        )

    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(["mcfuser", "chimera"]),
        strategy=st.sampled_from(sorted(strategy_names())),
        topk=st.integers(0, 8),
    )
    def test_property_matches_legacy(self, variant, strategy, topk):
        cfg = SessionConfig.make(variant=variant, strategy=strategy, measure_topk=topk)
        assert cfg.variant_key == legacy_variant_key(variant, strategy, topk)


class TestContentHash:
    def test_equal_configs_equal_hashes(self):
        a = SessionConfig.make(seed=3)
        b = SessionConfig.make(seed=3)
        assert a.content_hash() == b.content_hash()
        assert len(a.content_hash()) == 32

    def test_any_field_changes_hash(self):
        base = SessionConfig()
        assert base.content_hash() != base.evolve(seed=1).content_hash()
        assert base.content_hash() != base.evolve(trace=True).content_hash()
