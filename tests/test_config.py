"""Configuration loading: strict schema, env override, section wiring."""

import json
import math
import re

import pytest

from cotforge.config import AppConfig, ForgeConfig, load_config
from cotforge.errors import ConfigError, ValidationError
from cotforge.harness import HarnessParams
from cotforge.toymodel import StageLossWeights


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# seed templates every entry point rejects (the forge tests reuse the list)
UNUSABLE_SEED_TEMPLATES = [
    "{", "{lesion_class:d}", "{lesion_class[a]}", "No lesion in the {organ_label}.",
    "A {lesion_class}, a {lesion_class}.", "{lesion_class!r} in the {organ_label}.",
    # an escaped name is literal text, not a placeholder
    "A {{lesion_class}} in the {organ_label}.",
]


def seed_template_fault(template, field="seed_templates[0]"):
    """The pattern of the message that rejects ``template`` at ``field``."""
    return re.escape(f"field '{field}' must contain {{lesion_class}} once, {{organ_label}} "
                     f"at most once, and no other placeholder, got {template!r}") + "$"


class TestDefaults:
    def test_no_config_gives_defaults(self):
        cfg = load_config(None, env={})
        assert cfg.forge.backend == "template"
        assert cfg.forge.tau_iou == 0.0
        assert cfg.scheduler.rho == 0.3
        assert cfg.harness.batch_size == 32
        assert cfg.io.out is None

    def test_empty_document_gives_defaults(self, tmp_path):
        path = write_config(tmp_path, {})
        cfg = load_config(str(path), env={})
        assert cfg == load_config(None, env={})


class TestSections:
    def test_scheduler_values_flow_through(self, tmp_path):
        path = write_config(tmp_path, {"scheduler": {"rho": 0.5, "q": 3}})
        cfg = load_config(str(path), env={})
        assert cfg.scheduler.rho == 0.5
        assert cfg.scheduler.q == 3
        assert cfg.scheduler.kappa == 10.0  # untouched default

    def test_harness_values_and_weights(self, tmp_path):
        path = write_config(tmp_path, {"harness": {
            "epochs": 10, "lr": 0.01, "grid_dims": [4, 4],
            "weights": {"w_ground": 2.0},
        }})
        cfg = load_config(str(path), env={})
        assert cfg.harness.epochs == 10
        assert cfg.harness.grid_dims == (4, 4)
        assert cfg.harness.weights.w_ground == 2.0
        assert cfg.harness.weights.w_ans == 0.25  # an omitted weight: the default

    def test_empty_weights_are_the_harness_defaults(self, tmp_path):
        path = write_config(tmp_path, {"harness": {"weights": {}}})
        weights = load_config(str(path), env={}).harness.weights
        assert weights == HarnessParams().weights == StageLossWeights()
        assert weights == StageLossWeights(w_ans=0.25, w_cot=0.25, w_ground=2.0, w_attn=1.0)

    def test_forge_remote_backend(self, tmp_path):
        path = write_config(tmp_path, {"forge": {
            "backend": "remote",
            "remote_endpoint": "http://qa.internal:8080/generate",
            "remote_timeout": 2.5,
        }})
        cfg = load_config(str(path), env={})
        assert cfg.forge.backend == "remote"
        assert cfg.forge.remote_endpoint.endswith("/generate")

    def test_io_paths(self, tmp_path):
        path = write_config(tmp_path, {"io": {"out": "corpus.jsonl"}})
        cfg = load_config(str(path), env={})
        assert cfg.io.out == "corpus.jsonl"


class TestStrictness:
    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"scheduleur": {}})
        with pytest.raises(ConfigError, match="scheduleur"):
            load_config(str(path), env={})

    def test_unknown_section_key(self, tmp_path):
        path = write_config(tmp_path, {"scheduler": {"rho": 0.5, "rh0": 1}})
        with pytest.raises(ConfigError, match="rh0"):
            load_config(str(path), env={})

    def test_invalid_hyperparam_value_wrapped(self, tmp_path):
        path = write_config(tmp_path, {"scheduler": {"rho": 5.0}})
        with pytest.raises(ConfigError, match="rho"):
            load_config(str(path), env={})

    def test_remote_backend_requires_endpoint(self, tmp_path):
        path = write_config(tmp_path, {"forge": {"backend": "remote"}})
        with pytest.raises(ConfigError, match="endpoint"):
            load_config(str(path), env={})

    def test_unknown_backend(self, tmp_path):
        path = write_config(tmp_path, {"forge": {"backend": "oracle"}})
        with pytest.raises(ConfigError, match="backend"):
            load_config(str(path), env={})

    def test_bad_seed_template_placeholder(self, tmp_path):
        path = write_config(tmp_path, {"forge": {
            "seed_templates": ["A {lesion_klass} appears."],
        }})
        with pytest.raises(ConfigError, match="template"):
            load_config(str(path), env={})

    @pytest.mark.parametrize("template", UNUSABLE_SEED_TEMPLATES)
    def test_unusable_seed_template(self, tmp_path, template):
        path = write_config(tmp_path, {"forge": {"seed_templates": [template]}})
        with pytest.raises(ConfigError,
                           match=seed_template_fault(template, "forge.seed_templates[0]")):
            load_config(str(path), env={})

    @pytest.mark.parametrize("template", [
        "A {{note}} {lesion_class} in the {organ_label}.",
        "{{lesion_class}}: {lesion_class} in the {organ_label}.",
        "{lesion_class}}}{{{organ_label}",
    ])
    def test_escaped_braces_allowed_in_seed_template(self, tmp_path, template):
        path = write_config(tmp_path, {"forge": {"seed_templates": [template]}})
        assert load_config(str(path), env={}).forge.seed_templates == (template,)

    @pytest.mark.parametrize("key,value,message", [
        ("seed", -1, "field 'harness.seed' must be non-negative, got -1"),
        ("feature_dim", 0, "field 'harness.feature_dim' must lie in [1, 4096], got 0"),
        ("grid_dims", [0, 4], "field 'harness.grid_dims[0]' must be at least 1, got 0"),
        ("image_dims", [4], "field 'harness.image_dims' must be an array of 2 items, got 1"),
        # build_soft_mask would reject these only once training starts
        ("sigma", 1e308, "field 'harness': sigma must lie in [0, 64], the larger image dim"),
        ("sigma", -1, "field 'harness.sigma' must be non-negative, got -1.0"),
        ("sigma", 64.5, "field 'harness': sigma must lie in [0, 64], the larger image dim"),
        ("mask_floor", 0.5, "field 'harness': mask_floor must lie in (0, 1/64)"),
        ("mask_floor", 0.0, "field 'harness.mask_floor' must be positive, got 0.0"),
        ("mask_floor", 1 / 64, "field 'harness': mask_floor must lie in (0, 1/64)"),
        ("grid_dims", [128, 8],
         "field 'harness': grid_dims [128, 8] must not exceed image_dims [64, 64]"),
        ("image_dims", [4, 4],
         "field 'harness': grid_dims [8, 8] must not exceed image_dims [4, 4]"),
        # a side above MAX_IMAGE_SIDE would exhaust memory once training starts
        ("image_dims", [1099511627776, 64],
         "field 'harness.image_dims[0]' must lie in [1, 8192], got 1099511627776"),
        ("image_dims", [64, 8193],
         "field 'harness.image_dims[1]' must lie in [1, 8192], got 8193"),
        # and so would an image above MAX_SOFT_MASK_PIXELS, each side in range
        ("image_dims", [8192, 8192],
         "field 'harness.image_dims' must hold at most 4194304 pixels, got [8192, 8192]"),
        ("image_dims", [2049, 2048],
         "field 'harness.image_dims' must hold at most 4194304 pixels, got [2049, 2048]"),
        # and so would a feature dimension above MAX_FEATURE_DIM
        ("feature_dim", 2**50,
         "field 'harness.feature_dim' must lie in [1, 4096], got 1125899906842624"),
        ("feature_dim", 4097, "field 'harness.feature_dim' must lie in [1, 4096], got 4097"),
        # and so would a grid above MAX_GRID_CELLS; a dict sets several fields,
        # here an image that holds the grid and breaks no rule of its own
        ("grid_dims", {"image_dims": [4096, 1024], "grid_dims": [4096, 1024]},
         "field 'harness.grid_dims' must have at most 4096 cells, got [4096, 1024]"),
        ("grid_dims", {"image_dims": [128, 128], "grid_dims": [128, 33]},
         "field 'harness.grid_dims' must have at most 4096 cells, got [128, 33]"),
    ])
    def test_out_of_range_harness_value(self, tmp_path, key, value, message):
        # the whole message: an input that broke a second rule first would fail here
        fields = value if isinstance(value, dict) else {key: value}
        path = write_config(tmp_path, {"harness": fields})
        with pytest.raises(ConfigError, match="^" + re.escape(f"config {path}: {message}") + "$"):
            load_config(str(path), env={})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="no-such"):
            load_config("/tmp/no-such-config.json", env={})

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path), env={})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path), env={})

    @pytest.mark.parametrize("field,value,message", [
        ("concurrency", 0, r"^field 'concurrency' must lie in \[1, 64\], got 0$"),
        ("backend", "oracle",
         r"^field 'backend' must be one of \['template', 'remote'\], got 'oracle'$"),
    ])
    def test_a_forge_record_built_directly_raises_validation_error(self, field, value,
                                                                  message):
        # the record states the rule; only the config reader makes it a ConfigError
        with pytest.raises(ValidationError, match=message):
            ForgeConfig(**{field: value})

    @pytest.mark.parametrize("field,message", [
        ("remote_attempts", r"^field 'remote_attempts' must be an integer, got a number$"),
        ("remote_timeout", r"^field 'remote_timeout' must be a finite number, got nan$"),
        ("remote_backoff_base",
         r"^field 'remote_backoff_base' must be a finite number, got nan$"),
    ])
    def test_nan_remote_option_rejected(self, field, message):
        # the config reader rejects NaN itself; a record built directly must too
        with pytest.raises(ValidationError, match=message):
            ForgeConfig(**{field: math.nan})

    @pytest.mark.parametrize("field,message", [
        ("remote_timeout", r"remote_timeout' must lie in \(0, 86400\], got 1e\+300"),
        ("remote_backoff_base", r"remote_backoff_base' must lie in \[0, 86400\], got 1e\+300"),
    ])
    def test_remote_seconds_above_a_day_rejected(self, tmp_path, field, message):
        path = write_config(tmp_path, {"forge": {field: 1e300}})
        with pytest.raises(ConfigError, match=f"^config {path}: field 'forge.{message}$"):
            load_config(str(path), env={})

    def test_bad_unassigned_policy(self, tmp_path):
        path = write_config(tmp_path, {"forge": {"unassigned_policy": "invent"}})
        with pytest.raises(ConfigError, match="unassigned_policy"):
            load_config(str(path), env={})


class TestEnvOverride:
    def test_env_var_wins_over_flag(self, tmp_path):
        flag = write_config(tmp_path, {"forge": {"tau_iou": 0.1}}, "flag.json")
        envf = write_config(tmp_path, {"forge": {"tau_iou": 0.9}}, "env.json")
        cfg = load_config(str(flag), env={"COTFORGE_CONFIG": str(envf)})
        assert cfg.forge.tau_iou == 0.9

    def test_env_var_alone(self, tmp_path):
        envf = write_config(tmp_path, {"harness": {"seed": 9}})
        cfg = load_config(None, env={"COTFORGE_CONFIG": str(envf)})
        assert cfg.harness.seed == 9


class TestTemplateList:
    def test_default_template_always_first(self, tmp_path):
        path = write_config(tmp_path, {"forge": {
            "seed_templates": ["A {lesion_class} sits in the {organ_label}."],
        }})
        cfg = load_config(str(path), env={})
        templates = cfg.forge.template_list()
        assert templates[0] == "There is a {lesion_class} in the {organ_label}."
        assert len(templates) == 2
