"""Experiment configuration: flat sectioned key=value files.

Sections: [task] [teacher] [train] [objective.<label>] [eval]. The format is
deliberately dumb so whole experiments diff cleanly. The keys of every section
are the fields of its settings dataclasses (``_LAYOUT``, ``_OBJECTIVE``), so
parsing, validation and the canonical text follow the dataclasses, and every
error about a key or a value names its section. The config hash is taken
over a canonical re-serialization of the parsed values, which makes it stable
under reformatting and key reordering. Every output file of a run embeds this
hash, and runners refuse to mix files with different hashes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, reduce
from typing import get_type_hints

from .objectives import ObjectiveSpec, WeightTransform
from .task import TaskConfig, TeacherSpec
from .training import TrainConfig
from .vocab import OP_NAMES

_OP_BY_NAME = {name: op for op, name in OP_NAMES.items()}
_BASE_ALIASES = {"kl": "forward-kl"}
# an objective label names CSV rows and output files
_LABEL = re.compile(r"[A-Za-z0-9_-]+")
_type_hints = cache(get_type_hints)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusSettings:
    n_problems: int = 5000
    samples_per_problem: int = 1
    max_len: int = 24
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.n_problems < 1 or self.samples_per_problem < 1 or self.max_len < 1:
            raise ConfigError("corpus sizes must be >= 1")


@dataclass(frozen=True)
class TrainSettings:
    learning_rate: float = 0.1
    epochs: int = 6
    batch_size: int = 16
    warmup_fraction: float = 0.05
    clip_norm: float = 1.0
    optimizer: str = "sgd"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    family: str = "tabular"
    order: int = 1
    embed_dim: int = 8
    hidden_dim: int = 32
    init_scale: float = 0.1
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        if self.family not in ("tabular", "feedforward"):
            raise ConfigError(f"unknown student family {self.family!r}")
        if not self.seeds:
            raise ConfigError("at least one training seed is required")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must not repeat, got {','.join(map(str, self.seeds))}")
        if min(self.order, self.embed_dim, self.hidden_dim) < 1:
            raise ConfigError("order, embed_dim and hidden_dim must be >= 1")
        self.train_config(self.seeds[0])  # TrainConfig checks the optimizer settings

    def train_config(self, seed: int) -> TrainConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(TrainConfig) if f.name != "seed"}
        return TrainConfig(seed=seed, **shared)


@dataclass(frozen=True)
class EvalConfig:
    horizons: tuple[int, ...] = (2, 4, 8, 16)
    eval_size: int = 2000
    drift_problems: int = 500
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ConfigError("horizons must be non-empty and >= 1")
        if self.eval_size < 1 or self.drift_problems < 1:
            raise ConfigError("evaluation set sizes must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    task: TaskConfig = TaskConfig()
    corpus: CorpusSettings = CorpusSettings()
    teacher: TeacherSpec = TeacherSpec()
    train: TrainSettings = TrainSettings()
    eval: EvalConfig = EvalConfig()
    objectives: tuple[tuple[str, ObjectiveSpec], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        labels = [label for label, _ in self.objectives]
        for label in labels:
            if not _LABEL.fullmatch(label):
                raise ConfigError(f"[objective.{label}] the label must match {_LABEL.pattern}")
        if len(labels) != len(set(labels)):
            raise ConfigError("objective labels must be unique")

    def objective(self, label: str) -> ObjectiveSpec:
        for lab, spec in self.objectives:
            if lab == label:
                return spec
        raise ConfigError(f"no objective labelled {label!r}")


def default_objectives() -> tuple[tuple[str, ObjectiveSpec], ...]:
    return (
        ("sft", ObjectiveSpec(base="sft", transform=WeightTransform("constant-one"))),
        ("sigmoid_t1", ObjectiveSpec(base="sft", transform=WeightTransform("sigmoid", tau=1.0))),
    )


def default_config() -> ExperimentConfig:
    return ExperimentConfig(objectives=default_objectives())


def _parse_bool(val: str) -> bool:
    low = val.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError("expected true/false, 1/0 or yes/no")


def _parse_int_list(val: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in val.split(",") if v.strip())


def _parse_seed(val: str) -> int:
    seed = int(val)
    if seed < 0:
        raise ValueError("a seed must be a non-negative integer")
    return seed


def _parse_seeds(val: str) -> tuple[int, ...]:
    return tuple(_parse_seed(v.strip()) for v in val.split(",") if v.strip())


def _parse_ops(val: str) -> tuple[int, ...]:
    try:
        return tuple(_OP_BY_NAME[name.strip().upper()] for name in val.split(","))
    except KeyError as exc:
        raise ValueError(f"unknown operator {exc.args[0]!r}") from None


def _parse_base(val: str) -> str:
    low = val.lower()
    return _BASE_ALIASES.get(low, low)


# (parse, format) per field annotation; floats are written with repr so the
# canonical text round-trips exactly
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "str": (str, str),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "tuple[int, ...]": (_parse_int_list, lambda v: ",".join(str(x) for x in v)),
}
# fields whose annotation alone does not say how they are written
_FIELD_CODECS = {
    (TaskConfig, "ops"): (_parse_ops, lambda ops: ",".join(OP_NAMES[o] for o in ops)),
    (ObjectiveSpec, "base"): (_parse_base, str),
    # SeedSequence takes no negative entropy, so a run would fail at its first stream
    (CorpusSettings, "seed"): (_parse_seed, str),
    (EvalConfig, "seed"): (_parse_seed, str),
    (TrainSettings, "seeds"): (_parse_seeds, _CODECS["tuple[int, ...]"][1]),
}

# file section -> (attribute, settings class), in file order; the
# [objective.<label>] sections, one ObjectiveSpec each, are written between
# [train] and [eval]
_LAYOUT = (
    ("task", (("task", TaskConfig), ("corpus", CorpusSettings))),
    ("teacher", (("teacher", TeacherSpec),)),
    ("train", (("train", TrainSettings),)),
    ("eval", (("eval", EvalConfig),)),
)
_OBJECTIVE = (("objective", ObjectiveSpec),)
_RENAMES = {
    ("corpus", "seed"): "corpus_seed",
    ("eval", "seed"): "eval_seed",
    ("transform", "kind"): "transform",
    ("transform", "clip"): "clip_c",
}


def _section_keys(members) -> dict[str, tuple]:
    """File key -> (attribute path, parse, format) for one section. A field whose
    type is a settings dataclass is written as that dataclass's keys."""
    keys = {}
    for attr, cls in members:
        hints = _type_hints(cls)
        for f in fields(cls):
            if is_dataclass(hints[f.name]):
                for key, (path, *codec) in _section_keys(((f.name, hints[f.name]),)).items():
                    keys[key] = ((attr, *path), *codec)
            else:
                codec = _FIELD_CODECS.get((cls, f.name)) or _CODECS[f.type]
                keys[_RENAMES.get((attr, f.name), f.name)] = ((attr, f.name), *codec)
    return keys


_KEYS = {section: _section_keys(members) for section, members in _LAYOUT}
_OBJECTIVE_KEYS = _section_keys(_OBJECTIVE)


def _sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = val
    return sections


def _arguments(section: str, body: dict[str, str], keys) -> dict:
    """Constructor arguments {attribute: {field: value}} of one section body,
    nested like the settings dataclasses."""
    args: dict = {}
    for key, val in body.items():
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
        path, parse, _ = keys[key]
        node = args
        for name in path[:-1]:
            node = node.setdefault(name, {})
        try:
            node[path[-1]] = parse(val)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {val!r}: {exc}") from None
    return args


def _construct(cls, kwargs: dict):
    hints = _type_hints(cls)
    return cls(**{k: _construct(hints[k], v) if is_dataclass(hints[k]) else v for k, v in kwargs.items()})


def _build(section: str, members, args: dict) -> dict:
    """{attribute: settings object} of one section; a validation error names the section."""
    try:
        return {attr: _construct(cls, args.get(attr, {})) for attr, cls in members}
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    sections = _sections(text)
    objectives = []
    for name, body in sections.items():
        if name.startswith("objective."):
            spec = _build(name, _OBJECTIVE, _arguments(name, body, _OBJECTIVE_KEYS))["objective"]
            objectives.append((name[len("objective.") :], spec))
        elif name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")

    settings = {}
    for section, members in _LAYOUT:
        args = _arguments(section, sections.get(section, {}), _KEYS[section])
        # per-family training defaults from the coarse sweep: tabular trains with
        # sgd at 0.1, the feed-forward family with adam at 3e-3
        if args.get("train", {}).get("family") == "feedforward":
            args["train"].setdefault("optimizer", "adam")
            args["train"].setdefault("learning_rate", 3e-3)
        settings.update(_build(section, members, args))
    return ExperimentConfig(**settings, objectives=tuple(objectives) or default_objectives())


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _format_section(section: str, keys, objects: dict) -> str:
    """Canonical text of one section from its {attribute: settings object}."""
    lines = [f"[{section}]"]
    for key, (path, _, fmt) in keys.items():
        lines.append(f"{key} = {fmt(reduce(getattr, path[1:], objects[path[0]]))}")
    return "\n".join(lines)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization; also the byte stream the config hash covers."""
    blocks = []
    for section, members in _LAYOUT:
        if section == "eval":
            blocks.extend(
                _format_section(f"objective.{label}", _OBJECTIVE_KEYS, {"objective": spec})
                for label, spec in cfg.objectives
            )
        blocks.append(_format_section(section, _KEYS[section], {attr: getattr(cfg, attr) for attr, _ in members}))
    return "\n\n".join(blocks) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(format_config(cfg).encode()).hexdigest()[:16]
