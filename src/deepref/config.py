"""JSON run configuration binding the per-module configs together.

Unknown keys are rejected at every level so typos never silently fall back to
defaults. CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .codec import SearchConfig
from .errors import ConfigError
from .flow import ExtractionConfig
from .generator import ModelConfig
from .training import TrainConfig

DEFAULT_Q_SET = (8, 16, 32, 64)


@dataclass
class RunConfig:
    input_path: str | None = None
    input_format: str | None = None  # "yuv" | "y4m" | None = by extension
    width: int | None = None
    height: int | None = None
    q_set: list[int] = field(default_factory=lambda: list(DEFAULT_Q_SET))
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        try:
            q_set = [] if isinstance(self.q_set, str) else [int(q) for q in self.q_set]
        except (TypeError, ValueError, OverflowError):
            q_set = []
        if not q_set or min(q_set) < 1:
            raise ConfigError(f"q_set must be non-empty positive integers, got {self.q_set}")
        self.q_set = q_set


def _build_section(cls, doc: dict, label: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")
    try:
        return cls(**doc)
    except TypeError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


_SECTIONS = {
    "extraction": ExtractionConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "search": SearchConfig,
}
_SCALARS = {"input_path", "input_format", "width", "height", "q_set"}
_SEED_FIELDS = {"model": "seed", "train": "shuffle_seed"}


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    # "seed" is no field of its own: it fills model.seed and train.shuffle_seed
    unknown = set(doc) - _SCALARS - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")

    kwargs = {k: doc[k] for k in _SCALARS if k in doc}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: expected an object, got {type(section).__name__}")
        section = dict(section)
        # the top-level seed feeds every stage that was not given its own seed
        if "seed" in doc and name in _SEED_FIELDS:
            section.setdefault(_SEED_FIELDS[name], doc["seed"])
        kwargs[name] = _build_section(cls, section, name)
    return RunConfig(**kwargs)
