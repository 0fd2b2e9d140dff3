"""Run configuration: flat dotted keys, typed defaults, stable digest.

The config file format is one `key = value` pair per line, `#` comments,
lists comma-separated. Every key has a default, so an empty (or absent) file
is a valid configuration; unknown keys are rejected with the exact field
path. The digest is a sha256 over the fully resolved configuration and is
embedded in every stage artifact, making any reported number traceable to
the inputs that produced it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields

from .cf import CfConfig
from .data import text_lines
from .errors import ConfigError

__all__ = ["RunConfig", "DEFAULTS", "default_config", "parse_config", "make_config"]

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "data.interactions": "",
    "data.catalog": "",
    "data.embeddings": "",
    "data.cot_fixture": "",
    "data.references": "",
    "data.min_user_events": 5,
    "data.min_item_popularity": 5,
    **{f"cf.{f.name}": f.default for f in fields(CfConfig)},
    "align.latent_dim": 128,
    "align.alpha": 0.5,
    "align.beta": 0.2,
    "align.learning_rate": 1e-4,
    "align.epochs": 10,
    "align.batch_size": 16,
    "align.optimizer": "sgd",
    "align.negatives_per_user": 1,
    "cot.threshold": 0.6,
    "cot.weights": (0.25, 0.25, 0.25, 0.25),
    "cot.k_prompt": 10,
    "cot.sample_size": 100,
    "cot.sweep": (0.0, 0.2, 0.4, 0.6, 0.8),
    "proj.d_token": 256,
    "proj.hidden": 256,
    "proj.epochs": 5,
    "proj.batch_size": 4,
    "proj.learning_rate": 1e-4,
    "proj.optimizer": "sgd",
    "proj.slate_size": 100,
    "eval.ks": (1, 5, 10),
    "eval.pool_size": 100,
    "eval.fraction": 0.35,
}

_PATH_KEYS = (
    "data.interactions",
    "data.catalog",
    "data.embeddings",
    "data.cot_fixture",
    "data.references",
)


@dataclass
class RunConfig:
    values: dict[str, object]

    def get(self, key: str):
        try:
            return self.values[key]
        except KeyError:
            raise ConfigError(f"unknown config key {key!r}") from None

    def cf_config(self) -> CfConfig:
        """The `cf.<field>` keys as a CfConfig, one key per field."""
        return CfConfig(**{f.name: self.get(f"cf.{f.name}") for f in fields(CfConfig)})

    def digest(self) -> str:
        lines = [f"{key}={_render(self.values[key])}" for key in sorted(self.values)]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_scalar(key: str, raw: str, template):
    raw = raw.strip()
    try:
        if isinstance(template, bool):
            raise TypeError("no boolean keys")
        if isinstance(template, int):
            return int(raw)
        if isinstance(template, float):
            return float(raw)
        if isinstance(template, tuple):
            parts = [p for p in (s.strip() for s in raw.split(",")) if p]
            elem = template[0] if template else 0.0
            if isinstance(elem, int) and not isinstance(elem, bool):
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}: {exc}") from None


def _positive(config: RunConfig, key: str) -> None:
    if config.get(key) <= 0:
        raise ConfigError(f"{key}: must be positive, got {config.get(key)!r}")


def validate(config: RunConfig) -> None:
    for key, value in config.values.items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{key}: must be finite, got {_render(value)}")
    if config.get("seed") < 0:
        raise ConfigError(f"seed: must be >= 0, got {config.get('seed')}")
    for key in _PATH_KEYS:
        path = config.get(key)
        if path and not os.path.exists(path):
            raise ConfigError(f"{key}: path does not exist: {path}")
    for key in (
        "data.min_user_events",
        "data.min_item_popularity",
        "cf.embed_dim",
        "cf.max_history",
        "cf.blocks",
        "cf.heads",
        "cf.epochs",
        "cf.batch_size",
        "cf.learning_rate",
        "align.latent_dim",
        "align.learning_rate",
        "align.epochs",
        "align.batch_size",
        "align.negatives_per_user",
        "cot.k_prompt",
        "proj.d_token",
        "proj.hidden",
        "proj.epochs",
        "proj.batch_size",
        "proj.learning_rate",
        "proj.slate_size",
        "eval.pool_size",
    ):
        _positive(config, key)
    if config.get("cf.embed_dim") % config.get("cf.heads"):
        raise ConfigError(
            f"cf.heads: {config.get('cf.heads')} does not divide "
            f"cf.embed_dim {config.get('cf.embed_dim')}"
        )
    if not 0.0 <= config.get("cf.dropout") < 1.0:
        raise ConfigError("cf.dropout: must lie in [0, 1)")
    for key in ("align.alpha", "align.beta"):
        if not 0.0 < config.get(key) <= 1.0:
            raise ConfigError(f"{key}: must lie in (0, 1]")
    if not 0.0 <= config.get("cot.threshold") <= 1.0:
        raise ConfigError("cot.threshold: must lie in [0, 1]")
    weights = config.get("cot.weights")
    if len(weights) != 4 or any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise ConfigError("cot.weights: need four non-negative weights summing to 1")
    if config.get("cot.sample_size") < 0:
        raise ConfigError("cot.sample_size: must be >= 0 (0 means all users)")
    sweep = config.get("cot.sweep")
    if not sweep or any(b < a for a, b in zip(sweep, sweep[1:])):
        raise ConfigError("cot.sweep: thresholds must be non-empty and ascending")
    ks = config.get("eval.ks")
    if not ks or any(k <= 0 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError("eval.ks: need strictly ascending positive cutoffs")
    if config.get("eval.pool_size") < max(ks):
        raise ConfigError("eval.pool_size: must be at least max(eval.ks)")
    if not 0.0 < config.get("eval.fraction") <= 0.5:
        raise ConfigError("eval.fraction: must lie in (0, 0.5]")
    for key in ("cf.optimizer", "align.optimizer", "proj.optimizer"):
        if config.get(key) not in ("sgd", "adam"):
            raise ConfigError(f"{key}: must be sgd or adam")


def default_config() -> RunConfig:
    return RunConfig(values=dict(DEFAULTS))


def make_config(overrides: dict[str, object] | None = None) -> RunConfig:
    """Resolved config from keyword overrides (already-typed values)."""
    values = dict(DEFAULTS)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        values[key] = value
    config = RunConfig(values=values)
    validate(config)
    return config


def parse_config(path) -> RunConfig:
    """Read a `key = value` file and resolve it with `make_config`. A key may
    be given once."""
    overrides: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, line in text_lines(path, "config file", ConfigError):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} at {path}:{lineno}")
        if key in first_line:
            raise ConfigError(
                f"config key {key!r} given twice in {path}, at lines {first_line[key]} and {lineno}"
            )
        first_line[key] = lineno
        overrides[key] = _parse_scalar(key, raw, DEFAULTS[key])
    return make_config(overrides)
