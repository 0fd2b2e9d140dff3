from __future__ import annotations

from dataclasses import fields

import pytest

from fusionrec.cf import CfConfig
from fusionrec.config import DEFAULTS, default_config, make_config, parse_config
from fusionrec.errors import ConfigError


def test_default_config_is_complete_and_valid():
    config = default_config()
    assert config.values == DEFAULTS
    assert config.get("cf.embed_dim") == 50
    assert config.get("eval.ks") == (1, 5, 10)
    make_config()  # defaults must pass validation


def test_unknown_key_is_rejected_everywhere(tmp_path):
    config = default_config()
    with pytest.raises(ConfigError, match="unknown config key 'cf.layers'"):
        config.get("cf.layers")
    with pytest.raises(ConfigError, match="unknown config key 'cf.layers'"):
        make_config({"cf.layers": 3})
    path = tmp_path / "run.cfg"
    path.write_text("cf.layers = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"unknown config key 'cf.layers' at .*run.cfg:1"):
        parse_config(path)


def test_cf_config_mirrors_the_cf_section():
    config = make_config({"cf.embed_dim": 16, "cf.heads": 2, "cf.epochs": 3})
    cf = config.cf_config()
    assert isinstance(cf, CfConfig)
    assert cf.embed_dim == 16
    assert cf.heads == 2
    assert cf.epochs == 3
    assert cf.optimizer == "adam"
    # cf_config reads one key per CfConfig field, so the two sets must agree
    cf_keys = {key for key in DEFAULTS if key.startswith("cf.")}
    assert {f"cf.{field.name}" for field in fields(CfConfig)} == cf_keys


def test_digest_is_stable_and_sensitive():
    base = default_config()
    assert base.digest() == default_config().digest()
    bumped = make_config({"cf.epochs": 21})
    assert bumped.digest() != base.digest()
    # floats and tuples render deterministically
    assert make_config({"align.alpha": 0.5}).digest() == base.digest()
    assert make_config({"eval.ks": [1, 5, 10]}).digest() == base.digest()
    assert len(base.digest()) == 64


def test_parse_config_reads_keys_comments_and_lists(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "\n"
        "seed = 7\n"
        "cf.learning_rate = 5e-4\n"
        "cf.optimizer = sgd\n"
        "eval.ks = 1, 3, 5\n"
        "cot.weights = 0.4, 0.3, 0.2, 0.1\n"
        "cot.sweep = 0.0, 0.5\n",
        encoding="utf-8",
    )
    config = parse_config(path)
    assert config.get("seed") == 7
    assert config.get("cf.learning_rate") == 5e-4
    assert config.get("cf.optimizer") == "sgd"
    assert config.get("eval.ks") == (1, 3, 5)
    assert config.get("cot.weights") == (0.4, 0.3, 0.2, 0.1)
    assert config.get("cot.sweep") == (0.0, 0.5)
    # untouched keys fall back to defaults
    assert config.get("cf.embed_dim") == DEFAULTS["cf.embed_dim"]


def test_parse_config_error_reporting(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("cf.epochs 20\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run.cfg:1: expected key = value"):
        parse_config(path)
    path.write_text("cf.epochs = twenty\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="cf.epochs: cannot parse 'twenty'"):
        parse_config(path)
    path.write_text("eval.ks = 1, two\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="eval.ks: cannot parse"):
        parse_config(path)


def test_make_config_converts_lists_and_validates():
    config = make_config({"eval.ks": [1, 2, 4], "cot.sweep": [0.1, 0.2]})
    assert config.get("eval.ks") == (1, 2, 4)
    assert config.get("cot.sweep") == (0.1, 0.2)


@pytest.mark.parametrize(
    ("overrides", "message"),
    [
        ({"cf.epochs": 0}, "cf.epochs: must be positive"),
        ({"cf.dropout": 1.0}, r"cf.dropout: must lie in \[0, 1\)"),
        ({"align.alpha": 0.0}, r"align.alpha: must lie in \(0, 1\]"),
        ({"align.beta": 1.5}, r"align.beta: must lie in \(0, 1\]"),
        ({"cot.threshold": 1.2}, "cot.threshold"),
        ({"cot.weights": (0.5, 0.5)}, "four non-negative weights"),
        ({"cot.weights": (0.5, 0.5, 0.25, 0.25)}, "summing to 1"),
        ({"cot.sample_size": -1}, "cot.sample_size"),
        ({"cot.sweep": ()}, "non-empty and ascending"),
        ({"cot.sweep": (0.5, 0.2)}, "non-empty and ascending"),
        ({"eval.ks": (5, 5, 10)}, "strictly ascending"),
        ({"eval.ks": (0, 5)}, "strictly ascending"),
        ({"eval.pool_size": 5}, r"at least max\(eval.ks\)"),
        ({"eval.fraction": 0.6}, r"eval.fraction: must lie in \(0, 0.5\]"),
        ({"cf.optimizer": "rmsprop"}, "must be sgd or adam"),
        ({"cf.heads": 3}, "cf.heads: 3 does not divide cf.embed_dim 50"),
        ({"cf.learning_rate": float("nan")}, "^cf.learning_rate: must be finite, got nan$"),
        ({"align.learning_rate": float("inf")}, "^align.learning_rate: must be finite, got inf$"),
        ({"eval.fraction": -1e999}, "^eval.fraction: must be finite, got -inf$"),
        ({"cot.weights": (float("nan"), 0.25, 0.25, 0.25)}, "^cot.weights: must be finite"),
        ({"cot.sweep": (0.0, 1e999)}, r"^cot.sweep: must be finite, got 0.0,inf$"),
    ],
)
def test_validation_rules(overrides, message):
    with pytest.raises(ConfigError, match=message):
        make_config(overrides)


def test_a_non_finite_float_in_a_config_file_is_a_config_error(tmp_path):
    for raw in ("nan", "-inf", "1e999"):
        path = tmp_path / "run.cfg"
        path.write_text(f"cot.sweep = 0.0, {raw}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^cot.sweep: must be finite, got 0.0,"):
            parse_config(path)


def test_path_keys_must_exist_when_set(tmp_path):
    missing = tmp_path / "nope.tsv"
    with pytest.raises(ConfigError, match="data.interactions: path does not exist"):
        make_config({"data.interactions": str(missing)})
    present = tmp_path / "ok.tsv"
    present.write_text("", encoding="utf-8")
    config = make_config({"data.interactions": str(present)})
    assert config.get("data.interactions") == str(present)
