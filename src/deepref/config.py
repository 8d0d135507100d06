"""JSON run configuration binding the per-module configs together.

Unknown keys are rejected at every level so typos never silently fall back to
defaults. CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .codec import SearchConfig
from .errors import ConfigError, check_int
from .flow import ExtractionConfig
from .generator import ModelConfig
from .training import TrainConfig
from .video_io import FORMATS

DEFAULT_Q_SET = (8, 16, 32, 64)


@dataclass
class RunConfig:
    input_path: str | None = None
    input_format: str | None = None  # one of video_io.FORMATS, or None = by extension
    width: int | None = None
    height: int | None = None
    q_set: list[int] = field(default_factory=lambda: list(DEFAULT_Q_SET))
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    search: SearchConfig = field(default_factory=SearchConfig)

    def __post_init__(self):
        if self.input_format not in (None, *FORMATS):
            raise ConfigError(f"input_format must be {' or '.join(map(json.dumps, FORMATS))}, "
                              f"got {self.input_format!r}")
        for name in ("width", "height"):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), 1)
        if not isinstance(self.q_set, (list, tuple)) or not self.q_set:
            raise ConfigError(f"q_set must be a non-empty list of integers, got {self.q_set!r}")
        for q in self.q_set:
            check_int("q_set entry", q, 1)
        self.q_set = list(self.q_set)


_SECTIONS = ("extraction", "model", "train", "search")
# input_path is no key: --input, which every reading subcommand requires, sets it
_SCALARS = {"input_format", "width", "height", "q_set"}
# the field each seeded section takes the top-level "seed" (and --seed) into
SEED_FIELDS = {"model": "seed", "train": "shuffle_seed"}


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    # "seed" is no field of its own: it fills the SEED_FIELDS
    unknown = set(doc) - _SCALARS - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")

    values = {k: doc[k] for k in _SCALARS if k in doc}
    for name in _SECTIONS:
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: expected an object, got {type(section).__name__}")
        # the top-level seed feeds every stage that was not given its own seed
        if "seed" in doc and name in SEED_FIELDS:
            values[f"{name}.{SEED_FIELDS[name]}"] = doc["seed"]
        values.update({f"{name}.{key}": value for key, value in section.items()})
    return with_fields(RunConfig(), values)


def with_fields(cfg: RunConfig, values: dict) -> RunConfig:
    """`cfg` with each field named in `values` set: "section.field" or a
    top-level field. Each section is replaced once, so every value goes
    through its section's checks; a field a section lacks is refused."""
    top, sections = {}, {}
    for name, value in values.items():
        section, dot, key = name.partition(".")
        if dot:
            sections.setdefault(section, {})[key] = value
        else:
            top[name] = value
    for section, fields in sections.items():
        current = getattr(cfg, section)
        unknown = set(fields) - {f.name for f in dataclasses.fields(current)}
        if unknown:
            raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")
        top[section] = dataclasses.replace(current, **fields)
    return dataclasses.replace(cfg, **top)
