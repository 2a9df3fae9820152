"""Pipeline configuration: JSON file, defaults, and dotted-key overrides.

The field annotations of the dataclasses below, with the phrase section
``extract.PhraseConfig``, are the schema. Every leaf field is a JSON key
(nested under its section) and a command-line flag of the same dotted name
(e.g. --cluster.k 40); both sources go through the same per-annotation
coercion, so a value of the wrong type is a ConfigError. One seed
(cluster.seed) drives all randomness: k-means initialization and the
out-of-vocabulary hash buckets.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, get_args, get_origin, get_type_hints

from ._util import open_text
from .embed import OovPolicy
from .errors import ConfigError, InputFormatError
from .extract import DEFAULT_MIN_FREQ, PhraseConfig

DEFAULT_KS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

OovPolicyName = Literal[tuple(policy.value for policy in OovPolicy)]


@dataclass
class PathsSection:
    corpus_labeled: str | None = None
    corpus_unlabeled: str | None = None
    parses: str | None = None
    vectors: str | None = None
    ontology: str | None = None   # None = bundled crisis term list
    stopwords: str | None = None  # None = bundled stopword list
    lexicon: str | None = None    # POS lexicon for parse-free extraction
    out_dir: str = "out"


@dataclass
class RankSection:
    method: Literal["moac", "baseline"] = "moac"
    oov_policy: OovPolicyName = "skip"


@dataclass
class ClusterSection:
    k: int | None = None  # required by the cluster stage; no safe default
    top_m: int = 1000
    seed: int = 0


@dataclass
class EvalSection:
    ks: tuple[int, ...] = DEFAULT_KS


@dataclass
class PipelineConfig:
    paths: PathsSection = field(default_factory=PathsSection)
    phrase: PhraseConfig = field(default_factory=PhraseConfig)
    filter_min_freq: int = DEFAULT_MIN_FREQ
    dedupe: bool = False
    rank: RankSection = field(default_factory=RankSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def validate(self) -> None:
        for dotted, hint in OVERRIDABLE.items():
            _coerce(dotted, hint, getattr(*_owner(self, dotted)), text=False)
        # Path("") is the current directory, not an output directory.
        if not self.paths.out_dir:
            raise ConfigError("paths.out_dir must not be empty")
        try:
            dataclasses.replace(self.phrase)  # runs PhraseConfig's own check
        except ValueError as exc:
            raise ConfigError(f"phrase.{exc}") from None
        if self.filter_min_freq < 1:
            raise ConfigError("filter_min_freq must be >= 1")
        if self.cluster.k is not None and self.cluster.k < 2:
            raise ConfigError("cluster.k must be >= 2")
        if self.cluster.top_m < 2:
            raise ConfigError("cluster.top_m must be >= 2")
        if self.cluster.k is not None and self.cluster.k > self.cluster.top_m:
            raise ConfigError(
                f"cluster.k={self.cluster.k} exceeds cluster.top_m={self.cluster.top_m}"
            )
        if self.cluster.seed < 0:
            raise ConfigError("cluster.seed must be >= 0")
        if not self.eval.ks:
            raise ConfigError("eval.ks must be non-empty")
        if any(k < 0 for k in self.eval.ks):
            raise ConfigError("eval.ks entries must be >= 0")
        if any(a >= b for a, b in zip(self.eval.ks, self.eval.ks[1:])):
            raise ConfigError("eval.ks must be strictly ascending")


def _leaf_fields(cls: type, prefix: str = "") -> dict[str, object]:
    """Dotted key -> annotation for every non-section field of `cls`."""
    leaves: dict[str, object] = {}
    for name, hint in get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            leaves.update(_leaf_fields(hint, f"{prefix}{name}."))
        else:
            leaves[prefix + name] = hint
    return leaves


# Every settable key: the JSON schema and the set of command-line flags.
OVERRIDABLE: dict[str, object] = _leaf_fields(PipelineConfig)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# scalar annotation -> (what a value must be, parser of its command-line
# form, test of its JSON form). JSON bools are not numbers and a JSON int
# is accepted where a float is expected.
_SCALARS = {
    int: ("an integer", int, lambda v: type(v) is int),
    float: ("a number", float, lambda v: type(v) in (int, float)),
    bool: ("true or false", _parse_bool, lambda v: type(v) is bool),
    str: ("a string", str, lambda v: type(v) is str),
}


def _coerce(dotted: str, hint: object, value: object, text: bool) -> object:
    """The value of annotation `hint` given as JSON or, when `text`, as a
    command-line string; ConfigError naming `dotted` if it does not fit."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is types.UnionType:  # X | None
        if value is None or (text and value == ""):
            return None
        (inner,) = (arg for arg in args if arg is not type(None))
        return _coerce(dotted, inner, value, text)
    if origin is tuple:  # tuple[X, ...]: a JSON list or comma-separated text
        if text:
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{dotted} must be a list, got {value!r}")
        return tuple(_coerce(f"{dotted} entries", args[0], item, text) for item in value)
    if origin is Literal:
        value = _coerce(dotted, str, value, text)
        if value not in args:
            raise ConfigError(f"{dotted} must be one of {args}, got {value!r}")
        return value
    what, parse, is_json = _SCALARS[hint]
    try:
        parsed = parse(value) if text else value
        if is_json(parsed):
            return hint(parsed)
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{dotted} must be {what}, got {value!r}")


def _owner(cfg: PipelineConfig, dotted: str) -> tuple[object, str]:
    """The section object holding a dotted key, and the field's name there."""
    *sections, name = dotted.split(".")
    return functools.reduce(getattr, sections, cfg), name


def _set(cfg: PipelineConfig, dotted: str, value: object, text: bool) -> None:
    if dotted not in OVERRIDABLE:
        if any(key.startswith(dotted + ".") for key in OVERRIDABLE):
            raise ConfigError(f"config section {dotted!r} must be an object")
        raise ConfigError(f"unknown config key {dotted!r}")
    setattr(*_owner(cfg, dotted), _coerce(dotted, OVERRIDABLE[dotted], value, text))


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from parsed JSON; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    cfg = PipelineConfig()
    for key, value in data.items():
        if isinstance(value, dict):
            for sub, sub_value in value.items():
                _set(cfg, f"{key}.{sub}", sub_value, text=False)
        else:
            _set(cfg, key, value, text=False)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    try:
        with open_text(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except InputFormatError as exc:
        raise ConfigError(f"config {exc}") from exc
    return config_from_dict(data)


def apply_override(cfg: PipelineConfig, dotted: str, raw: str) -> None:
    """Set one dotted config key from its command-line string form."""
    _set(cfg, dotted, raw, text=True)
