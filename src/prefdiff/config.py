"""Flat `key = value` run configuration with typed validation.

Unknown and repeated keys are rejected (all offenders listed at once); the
normalized form written next to run outputs re-runs to identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import read_input
from .errors import ConfigurationError
from .variants import SELECTORS


@dataclass(frozen=True)
class RunConfig:
    source_path: str = ""
    target_path: str = ""
    fraction: float = 0.2
    seed: int = 0
    d1: int = 64
    hidden: int = 64
    mlp_layers: int = 3
    enc_layers: int = 2
    n_heads: int = 1
    max_history_len: int = 50
    T: int = 200
    eta: float = 0.1
    alpha_min: float = 0.1
    alpha_max: float = 10.0
    batch_size: int = 128
    learning_rate: float = 0.01
    epochs: int = 10
    lam: float = 0.01          # weight on the diffusion loss
    p_uncond: float = 0.1
    loss_weighting: str = "simplified"   # or "variance_weighted"
    init_scale: float = 0.1
    omega: float = 0.0
    t_prime: int = -1          # -1 means "use T"
    variant: int = 0           # with ablation, a key of variants.SELECTORS
    ablation: str = "none"
    dtype: str = "float32"

    def resolved_t_prime(self) -> int:
        return self.T if self.t_prime < 0 else self.t_prime

    def validate(self) -> None:
        """Raise one ConfigurationError that lists every problem."""
        checks = [
            (0.0 < self.fraction < 1.0, "fraction must be in (0, 1)"),
            (self.seed >= 0, "seed must be >= 0"),
            (min(self.d1, self.hidden, self.mlp_layers) >= 1,
             "d1, hidden and mlp_layers must be >= 1"),
            (self.enc_layers >= 0, "enc_layers must be >= 0"),
            (self.n_heads >= 1 and self.d1 % self.n_heads == 0,
             "n_heads must be >= 1 and divide d1"),
            (self.max_history_len >= 1, "max_history_len must be >= 1"),
            (self.T >= 1, "T must be >= 1"),
            (0.0 < self.eta <= 1.0, "eta must be in (0, 1]"),
            (0.0 < self.alpha_min < self.alpha_max, "need 0 < alpha_min < alpha_max"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (0.0 < self.learning_rate < math.inf, "learning_rate must be finite and > 0"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (0.0 <= self.lam <= 1.0, "lam must be in [0, 1]"),
            (0.0 <= self.p_uncond <= 1.0, "p_uncond must be in [0, 1]"),
            (self.loss_weighting in ("simplified", "variance_weighted"),
             "loss_weighting must be simplified|variance_weighted"),
            (0.0 <= self.init_scale < math.inf, "init_scale must be finite and >= 0"),
            (0.0 <= self.omega < math.inf, "omega must be finite and >= 0"),
            (-1 <= self.t_prime <= self.T, "t_prime must be -1 (use T) or in 0..T"),
            (self.dtype in ("float32", "float64"), "dtype must be float32|float64"),
            ((self.variant, self.ablation) in SELECTORS,
             f"(variant, ablation) = {(self.variant, self.ablation)} is not one of "
             f"{list(SELECTORS)}"),
        ]
        problems = [msg for ok, msg in checks if not ok]
        if problems:
            raise ConfigurationError("; ".join(problems))


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigurationError(f"key {name!r}: cannot parse {raw!r} as {kind}") from None


def parse_config_text(text: str, **overrides) -> RunConfig:
    """Parse and validate a config; `overrides` that are not None replace
    the file's values before the one validation."""
    values = {}
    unknown, repeated = [], set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            unknown.append(key)
            continue
        if key in values:
            repeated.add(key)
        values[key] = _coerce(key, raw)
    problems = []
    if unknown:
        problems.append(f"unknown config keys: {sorted(unknown)}")
    if repeated:
        problems.append(f"config keys given more than once: {sorted(repeated)}")
    if problems:
        raise ConfigurationError("; ".join(problems))
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def load_config(path, **overrides) -> RunConfig:
    return parse_config_text(read_input(path, ConfigurationError), **overrides)


def normalized_text(cfg: RunConfig) -> str:
    """Canonical echo of the config; parsing it back yields an equal config."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"
