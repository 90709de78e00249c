"""Experiment configuration: schema and validation.

Configs are JSON with fixed nested sections; unknown sections or keys are
rejected with the full field path so typos fail fast.  A config file is the
whole of a run's configuration; only ``fedchain run --seed`` replaces one of
its values (``seeds.master``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending path."""


@dataclass
class DataConfig:
    kind: str = "synthetic"          # synthetic | idx (images_path and labels_path)
    classes: int = 4
    dims: int = 32
    per_class: int = 600
    separation: float = 4.0
    clients: int = 10
    eval_count: int = 400
    verified_count: int = 40
    images_path: str = ""
    labels_path: str = ""


@dataclass
class ModelConfig:
    kind: str = "mlp"                # mlp | cnn
    hidden: list = field(default_factory=lambda: [16])
    conv_channels: int = 4
    kernel: int = 3
    pool: int = 2


@dataclass
class TrainSection:
    learning_rate: float = 0.05
    epochs_per_round: int = 2
    batch_size: int = 64
    rounds: int = 25
    optimizer: str = "sgd"           # sgd only; kept so configs that pin it load


@dataclass
class AttackConfig:
    malicious_fraction: float = 0.0
    source_class: int = 0
    target_class: int = 1
    flip_fraction: float = 1.0
    scale_factor: float = 1.0


@dataclass
class VerifierConfig:
    enabled: bool = False
    mode: str = "encrypted"          # encrypted | plaintext
    threshold_rule: str = "relative"  # relative | absolute
    threshold_value: float = 0.8     # used when rule == absolute
    ban_on_rejection: bool = False


@dataclass
class AggregationConfig:
    nodes: int = 5


@dataclass
class LedgerConfig:
    difficulty: int = 2


@dataclass
class SeedsConfig:
    master: int = 1


@dataclass
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)
    attack: AttackConfig = field(default_factory=AttackConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    ledger: LedgerConfig = field(default_factory=LedgerConfig)
    seeds: SeedsConfig = field(default_factory=SeedsConfig)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


def _coerce(path: str, value, target):
    if isinstance(target, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected bool, got {type(value).__name__}")
        return value
    if isinstance(target, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected int, got {type(value).__name__}")
        return value
    if isinstance(target, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {type(value).__name__}")
        # json.load reads NaN and Infinity, and an int past float64 is inf.
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{path}: must be a finite number, got {number}")
        return number
    if isinstance(target, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {type(value).__name__}")
        return value
    if isinstance(target, list):
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path}: expected list of ints")
        return list(value)
    raise ConfigError(f"{path}: unsupported value type")


def _validate_section(name: str, raw: dict, factory) -> object:
    section = factory()
    known = {f.name for f in fields(section)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{name}.{key}: unknown key")
    for key, value in raw.items():
        setattr(section, key, _coerce(f"{name}.{key}", value, getattr(section, key)))
    return section


_CHECKS = [
    (lambda c: c.data.kind in ("synthetic", "idx"), "data.kind: must be synthetic or idx"),
    (lambda c: c.data.kind != "idx" or (c.data.images_path and c.data.labels_path),
     "data.images_path, data.labels_path: both required when kind is idx"),
    (lambda c: c.data.classes >= 2, "data.classes: need at least 2"),
    (lambda c: c.data.dims >= 1, "data.dims: must be at least 1"),
    (lambda c: c.data.per_class >= 1, "data.per_class: must be at least 1"),
    (lambda c: c.data.clients >= 1, "data.clients: need at least 1"),
    (lambda c: c.data.eval_count >= 1, "data.eval_count: need at least 1"),
    (lambda c: c.model.kind in ("mlp", "cnn"), "model.kind: must be mlp or cnn"),
    (lambda c: all(h >= 1 for h in c.model.hidden), "model.hidden: every layer needs at least 1 unit"),
    (lambda c: c.model.conv_channels >= 1, "model.conv_channels: must be at least 1"),
    (lambda c: c.model.kernel >= 1, "model.kernel: must be at least 1"),
    (lambda c: c.model.pool >= 1, "model.pool: must be at least 1"),
    (lambda c: c.train.learning_rate >= 0, "train.learning_rate: must be non-negative"),
    (lambda c: c.train.epochs_per_round >= 1, "train.epochs_per_round: must be at least 1"),
    (lambda c: c.train.batch_size >= 1, "train.batch_size: must be at least 1"),
    (lambda c: c.train.rounds >= 1, "train.rounds: must be at least 1"),
    (lambda c: c.train.optimizer == "sgd", "train.optimizer: must be sgd"),
    (lambda c: 0.0 <= c.attack.malicious_fraction <= 0.5, "attack.malicious_fraction: must be in [0, 0.5]"),
    (lambda c: 0.0 < c.attack.flip_fraction <= 1.0, "attack.flip_fraction: must be in (0, 1]"),
    (lambda c: c.attack.scale_factor > 0, "attack.scale_factor: must be positive"),
    (lambda c: c.attack.source_class != c.attack.target_class, "attack.target_class: must differ from source_class"),
    (lambda c: c.verifier.mode in ("encrypted", "plaintext"), "verifier.mode: must be encrypted or plaintext"),
    (lambda c: c.verifier.threshold_rule in ("relative", "absolute"), "verifier.threshold_rule: must be relative or absolute"),
    (lambda c: 0.0 <= c.verifier.threshold_value <= 1.0, "verifier.threshold_value: must be in [0, 1]"),
    (lambda c: c.aggregation.nodes >= 2, "aggregation.nodes: need at least 2"),
    (lambda c: 0 <= c.ledger.difficulty <= 5, "ledger.difficulty: must be in [0, 5]"),
]


def validate(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"{key}: unknown section")
    cfg = ExperimentConfig()
    for name, factory in _SECTIONS.items():
        section_raw = raw.get(name, {})
        if not isinstance(section_raw, dict):
            raise ConfigError(f"{name}: expected an object")
        setattr(cfg, name, _validate_section(name, section_raw, factory))
    for check, message in _CHECKS:
        if not check(cfg):
            raise ConfigError(message)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Read and validate the JSON config file at ``path``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    return validate(raw)
