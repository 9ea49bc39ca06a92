"""Configuration containers and key=value config-file parsing."""

import dataclasses
import math
from dataclasses import dataclass


def _require_finite(name: str, value) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


_KINDS = {bool: ((bool,), "a bool"), int: ((int,), "an int"),
          float: ((int, float), "an int or float")}


def _require_types(config) -> None:
    """Reject a bool, int or float field whose value is not of its
    declared class, in field order; a float field also takes an int, and
    only a bool field takes a bool."""
    for field in dataclasses.fields(config):
        if field.type not in _KINDS:
            continue
        value = getattr(config, field.name)
        classes, kind = _KINDS[field.type]
        if not isinstance(value, classes) or (
                isinstance(value, bool) and field.type is not bool):
            raise ValueError(f"{field.name} must be {kind}, got {value!r}")


@dataclass
class TrainConfig:
    """Model and optimization hyperparameters.

    Defaults follow the reference operating point: 64-dim embeddings, one
    residual block per tower, substitution weight 0.7, both attention
    temperatures at 8.
    """

    embed_dim: int = 64
    tower_depth: int = 1
    subst_weight: float = 0.7       # share of the substitution score in the blend
    subst_temp: float = 8.0         # softmax temperature, substitution attention
    pers_temp: float = 8.0          # softmax temperature, personalization attention
    learning_rate: float = 1e-3
    batch_size: int = 256
    dropout: float = 0.4
    negatives: int = 5              # negatives sampled per positive, per epoch
    # Ablation switches: drop the attention-aggregated attribute term from
    # either scoring head (the projection then only covers the product term).
    subst_use_attrs: bool = True
    pers_use_attrs: bool = True

    def __post_init__(self):
        _require_types(self)
        for name in ("subst_temp", "pers_temp", "learning_rate"):
            _require_finite(name, getattr(self, name))
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.tower_depth < 0:
            raise ValueError("tower_depth must be >= 0")
        if not 0.0 <= self.subst_weight <= 1.0:
            raise ValueError("subst_weight must be in [0, 1]")
        if self.subst_temp <= 0 or self.pers_temp <= 0:
            raise ValueError("attention temperatures must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.batch_size < 1 or self.negatives < 1:
            raise ValueError("batch_size and negatives must be >= 1")

    @property
    def hidden_dim(self) -> int:
        """Width of the residual tower input/hidden state (embedding pair)."""
        return 2 * self.embed_dim


@dataclass
class RunConfig:
    """One training run: hyperparameters plus schedule and the seed every
    stochastic choice derives from."""

    train: TrainConfig = dataclasses.field(default_factory=TrainConfig)
    seed: int = 42
    rounds_max: int = 10
    phase1_steps: int = 2000
    phase2_steps: int = 2000
    convergence_tol: float = 1e-3

    def __post_init__(self):
        _require_types(self)
        if self.rounds_max < 1:
            raise ValueError("rounds_max must be >= 1")
        if self.phase1_steps < 0 or self.phase2_steps < 0:
            raise ValueError("phase step counts must be >= 0")
        _require_finite("convergence_tol", self.convergence_tol)
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be >= 0")


# Fields settable through config files / CLI overrides, with their classes.
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_RUN_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)
               if f.name != "train"}

_BOOL_TOKENS = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str, typ: type):
    raw = raw.strip()
    if typ is bool:
        tok = raw.lower()
        if tok not in _BOOL_TOKENS:
            raise ValueError(f"bad boolean for {key!r}: {raw!r}")
        return _BOOL_TOKENS[tok]
    return typ(raw)


def parse_config_file(path: str) -> dict:
    """Read a key=value file (one pair per line, '#' comments, an optional
    leading byte-order mark) into a dict.

    Values are coerced to the declared type of the matching TrainConfig or
    RunConfig field; unknown keys raise ValueError with the offending line.
    """
    overrides = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
                key, raw = text.split("=", 1)
                key = key.strip()
                typ = _TRAIN_FIELDS.get(key) or _RUN_FIELDS.get(key)
                if typ is None:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    overrides[key] = _coerce(key, raw, typ)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    return overrides


def build_run_config(file_overrides: dict | None = None,
                     cli_overrides: dict | None = None) -> RunConfig:
    """Merge defaults, config-file pairs, and CLI flags into a RunConfig.

    Precedence: CLI flag > config file > default. Keys that name no
    TrainConfig or RunConfig field, and None values, are ignored.
    """
    merged: dict = {}
    for layer in (file_overrides or {}), (cli_overrides or {}):
        for key, val in layer.items():
            if val is not None:
                merged[key] = val
    train_kwargs = {k: v for k, v in merged.items() if k in _TRAIN_FIELDS}
    run_kwargs = {k: v for k, v in merged.items() if k in _RUN_FIELDS}
    return RunConfig(train=TrainConfig(**train_kwargs), **run_kwargs)
