"""Experiment configuration: flat sectioned key=value files.

Sections: [task] [teacher] [train] [objective.<label>] [eval]. The format is
deliberately dumb so whole experiments diff cleanly. The keys of the fixed
sections are the fields of the settings dataclasses (``_LAYOUT``), so parsing
and the canonical text follow the dataclasses. The config hash is taken
over a canonical re-serialization of the parsed values, which makes it stable
under reformatting and key reordering. Every output file of a run embeds this
hash, and runners refuse to mix files with different hashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

from .objectives import ObjectiveSpec, WeightTransform
from .task import TaskConfig, TeacherSpec
from .training import TrainConfig
from .vocab import ADD, MUL

_OP_BY_NAME = {"ADD": ADD, "MUL": MUL}
_NAME_BY_OP = {ADD: "ADD", MUL: "MUL"}

_BASE_ALIASES = {
    "sft": "sft",
    "forward-kl": "forward-kl",
    "kl": "forward-kl",
    "reverse-kl": "reverse-kl",
    "symmetric-kl": "symmetric-kl",
    "gkd": "gkd",
}


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


def _parse_ops(val: str) -> tuple[int, ...]:
    try:
        return tuple(_OP_BY_NAME[name.strip().upper()] for name in val.split(","))
    except KeyError as exc:
        raise ValueError(f"unknown operator {exc.args[0]!r}") from None


# (parse, format) per field annotation; floats are written with repr so the
# canonical text round-trips exactly
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "str": (str, str),
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "tuple[int, ...]": (_parse_int_list, lambda v: ",".join(str(x) for x in v)),
}
_OPS_CODEC = (_parse_ops, lambda ops: ",".join(_NAME_BY_OP[o] for o in ops))

# file section -> (ExperimentConfig attribute, settings class), in file order;
# the [objective.<label>] sections are written between [train] and [eval]
_LAYOUT = (
    ("task", (("task", TaskConfig), ("corpus", CorpusSettings))),
    ("teacher", (("teacher", TeacherSpec),)),
    ("train", (("train", TrainSettings),)),
    ("eval", (("eval", EvalConfig),)),
)
_RENAMES = {("corpus", "seed"): "corpus_seed", ("eval", "seed"): "eval_seed"}


def _section_keys(members) -> dict[str, tuple]:
    """File key -> (attribute, field name, parse, format) for one section."""
    keys = {}
    for attr, cls in members:
        for f in fields(cls):
            codec = _OPS_CODEC if (cls, f.name) == (TaskConfig, "ops") else _CODECS[f.type]
            keys[_RENAMES.get((attr, f.name), f.name)] = (attr, f.name, *codec)
    return keys


_KEYS = {section: _section_keys(members) for section, members in _LAYOUT}


def _cast(parse, val: str, key: str, section: str):
    try:
        return parse(val)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {val!r}: {exc}") from None


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


def _parse_objective(label: str, body: dict[str, str]) -> ObjectiveSpec:
    section = f"objective.{label}"
    allowed = {"base", "transform", "tau", "tau_convention", "clip_c", "gkd_lambda", "gkd_beta"}
    for key in body:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{section}]")
    base_raw = body.get("base", "sft").lower()
    if base_raw not in _BASE_ALIASES:
        raise ConfigError(f"{section}: unknown base {base_raw!r}")

    def number(key: str, default: float) -> float:
        return _cast(float, body[key], key, section) if key in body else default

    transform = WeightTransform(
        kind=body.get("transform", "constant-one"),
        tau=number("tau", 1.0),
        clip=number("clip_c", 5.0),
        tau_convention=body.get("tau_convention", "divide"),
    )
    return ObjectiveSpec(
        base=_BASE_ALIASES[base_raw],
        transform=transform,
        gkd_lambda=number("gkd_lambda", 0.0),
        gkd_beta=number("gkd_beta", 0.5),
    )


def parse_config(text: str) -> ExperimentConfig:
    sections = _sections(text)
    for name in sections:
        if name not in _KEYS and not name.startswith("objective."):
            raise ConfigError(f"unknown section [{name}]")

    kwargs: dict[str, dict[str, object]] = {attr: {} for _, members in _LAYOUT for attr, _ in members}
    for section, keys in _KEYS.items():
        for key, val in sections.get(section, {}).items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            attr, name, parse, _ = keys[key]
            kwargs[attr][name] = _cast(parse, val, key, section)
    # per-family training defaults from the coarse sweep: tabular trains with
    # sgd at 0.1, the feed-forward family with adam at 3e-3
    if kwargs["train"].get("family") == "feedforward":
        kwargs["train"].setdefault("optimizer", "adam")
        kwargs["train"].setdefault("learning_rate", 3e-3)

    try:
        objectives = []
        for name, body in sections.items():
            if name.startswith("objective."):
                label = name[len("objective.") :]
                if not label:
                    raise ConfigError("objective sections need a label: [objective.<label>]")
                objectives.append((label, _parse_objective(label, body)))
        settings = {attr: cls(**kwargs[attr]) for _, members in _LAYOUT for attr, cls in members}
        return ExperimentConfig(**settings, objectives=tuple(objectives) or default_objectives())
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _format_objective(label: str, spec: ObjectiveSpec) -> str:
    return "\n".join(
        [
            f"[objective.{label}]",
            f"base = {spec.base}",
            f"transform = {spec.transform.kind}",
            f"tau = {spec.transform.tau!r}",
            f"tau_convention = {spec.transform.tau_convention}",
            f"clip_c = {spec.transform.clip!r}",
            f"gkd_lambda = {spec.gkd_lambda!r}",
            f"gkd_beta = {spec.gkd_beta!r}",
        ]
    )


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization; also the byte stream the config hash covers."""
    blocks = []
    for section, keys in _KEYS.items():
        if section == "eval":
            blocks.extend(_format_objective(label, spec) for label, spec in cfg.objectives)
        lines = [f"[{section}]"]
        for key, (attr, name, _, fmt) in keys.items():
            lines.append(f"{key} = {fmt(getattr(getattr(cfg, attr), name))}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(format_config(cfg).encode()).hexdigest()[:16]
