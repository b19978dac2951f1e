"""Run configuration and run identity.

One JSON document configures a whole run; every leaf field can be overridden
on the command line by a flag of the same dotted name (flags win).  The
dataclasses below are the single definition of that document: its fields,
their defaults, and the flag coercions are all derived from them.  The
manifest hash identifies a run: sha256 over the tool version plus the fully
resolved config (seed included), so every stage launched from the same config
stamps the same hash into its output headers, and mixed-run inputs are
detectable downstream.
"""
from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import MISSING, Field, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from .analysis import AGGREGATIONS, DEFAULT_MATCH_THRESHOLD, DEFAULT_SLICES, SIM_METRICS
from .backends import BackendSpec, Bm25Params
from .errors import ValidationError
from .pipeline import (
    DEFAULT_ABSTENTIONS,
    DEFAULT_LENGTH_CANDIDATES,
    ORDERS,
    PromptSet,
)

RETRIEVER_KINDS = ("bm25", "golden", "ingest")


@dataclass
class RetrieverConfig:
    kind: str = "bm25"
    corpus_path: str | None = None
    k1: float = Bm25Params.k1
    b: float = Bm25Params.b
    gold_path: str | None = None
    results_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in RETRIEVER_KINDS:
            raise ValidationError(f"retriever kind must be one of {RETRIEVER_KINDS}")
        Bm25Params(self.k1, self.b)

    def require_path(self) -> str:
        needed = {"bm25": self.corpus_path, "golden": self.gold_path,
                  "ingest": self.results_path}[self.kind]
        if not needed:
            raise ValidationError(f"{self.kind} retriever needs its input path configured")
        return needed


@dataclass
class RunConfig:
    reader: BackendSpec
    generator: BackendSpec
    retriever: RetrieverConfig
    prompts: PromptSet = field(default_factory=PromptSet)
    order: str = "random"
    seed: int = 0
    workers: int = 1
    length_candidates: tuple[int, ...] = DEFAULT_LENGTH_CANDIDATES
    abstention_set: tuple[str, ...] = DEFAULT_ABSTENTIONS
    slice_count: int = DEFAULT_SLICES
    sim_metric: str = "jaccard"
    aggregation: str = "max"
    match_threshold: float = DEFAULT_MATCH_THRESHOLD

    def __post_init__(self) -> None:
        if self.order not in ORDERS:
            raise ValidationError(f"order must be one of {ORDERS}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1: {self.workers}")
        if self.slice_count < 1:
            raise ValidationError(f"slice_count must be >= 1: {self.slice_count}")
        if self.sim_metric not in SIM_METRICS:
            raise ValidationError(f"sim_metric must be one of {SIM_METRICS}")
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError(f"aggregation must be one of {AGGREGATIONS}")
        if not self.length_candidates or any(n <= 0 for n in self.length_candidates):
            raise ValidationError("length_candidates must be positive integers")
        if not 0 < self.match_threshold <= 2:
            raise ValidationError(f"match_threshold out of range (0, 2]: {self.match_threshold}")


# Fields annotated with one of these dataclasses are nested config objects;
# every other field is a leaf.  Annotations are strings under
# ``from __future__ import annotations``.
_SECTIONS: dict[str, type] = {
    "BackendSpec": BackendSpec,
    "RetrieverConfig": RetrieverConfig,
    "PromptSet": PromptSet,
}
# Leaf annotation, less any "| None" -> what its JSON value must be, the
# exact types that value may have and, for a list, those of its items.  As in
# RowSchema.load, ``true`` is no int, and an int may stand for a float.  The
# first type parses a flag's string, or each comma-separated part of a list's.
_LEAF_TYPES = {
    "str": ("a string", (str,), None),
    "int": ("an integer", (int,), None),
    "float": ("a number", (float, int), None),
    "tuple[int, ...]": ("a list of integers", (list,), (int,)),
    "tuple[str, ...]": ("a list of strings", (list,), (str,)),
}


def _leaves(cls: type, prefix: str = "") -> Iterator[tuple[str, Field]]:
    """(dotted name, field) for every leaf under *cls*, in declaration order."""
    for f in fields(cls):
        if f.type in _SECTIONS:
            yield from _leaves(_SECTIONS[f.type], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


def _plain(value: Any) -> Any:
    return list(value) if isinstance(value, tuple) else value


def _apply_dotted(doc: dict[str, Any], dotted: str, value: Any) -> None:
    *parents, leaf = dotted.split(".")
    for part in parents:
        doc = doc.setdefault(part, {})
    doc[leaf] = value


_LEAVES = list(_leaves(RunConfig))
# Leaf fields and their _LEAF_TYPES keys.  These names double as the dotted
# override flags.
CONFIG_FIELDS: dict[str, str] = {name: f.type.removesuffix(" | None") for name, f in _LEAVES}
_DEFAULTS: dict[str, Any] = {}
for _name, _field in _LEAVES:
    _apply_dotted(_DEFAULTS, _name, _plain(
        _field.default_factory() if _field.default is MISSING else _field.default))


def coerce_override(dotted: str, raw: object) -> Any:
    if dotted not in CONFIG_FIELDS:
        raise ValidationError(f"unknown config field {dotted!r}")
    if not isinstance(raw, str):
        return raw
    _, types, items = _LEAF_TYPES[CONFIG_FIELDS[dotted]]
    try:
        if items:
            return [items[0](part.strip()) for part in raw.split(",") if part.strip()]
        return types[0](raw)
    except ValueError:
        raise ValidationError(f"cannot parse {raw!r} for config field {dotted!r}") from None


def _deep_merge(base: dict[str, Any], extra: dict[str, Any], path: str = "") -> None:
    for key, value in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config field {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config field {where!r} must be an object")
            _deep_merge(base[key], value, where)
        else:
            base[key] = value


def load_config(path: str | Path | None = None,
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Defaults, then the config file, then dotted overrides; later wins."""
    doc = copy.deepcopy(_DEFAULTS)
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ValidationError(f"missing config file: {file_path}")
        try:
            loaded = json.loads(file_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{file_path}: invalid JSON: {exc.msg}") from exc
        if not isinstance(loaded, dict):
            raise ValidationError(f"{file_path}: config must be a JSON object")
        _deep_merge(doc, loaded)
    for dotted, value in (overrides or {}).items():
        _apply_dotted(doc, dotted, coerce_override(dotted, value))
    return _build(RunConfig, doc)


def _build(cls: type, doc: dict[str, Any], prefix: str = "") -> Any:
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        value, where = doc[f.name], prefix + f.name
        if f.type in _SECTIONS:
            value = _build(_SECTIONS[f.type], value, where + ".")
        elif value is not None or not f.type.endswith(" | None"):
            what, types, items = _LEAF_TYPES[CONFIG_FIELDS[where]]
            if type(value) not in types or items and any(type(v) not in items for v in value):
                raise ValidationError(f"config field {where!r} must be {what}: {value!r}")
            if items:
                value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def resolved_doc(cfg: RunConfig) -> dict[str, Any]:
    """The fully resolved config as a plain JSON document."""
    doc: dict[str, Any] = {}
    for name, _ in _LEAVES:
        _apply_dotted(doc, name, _plain(attrgetter(name)(cfg)))
    return doc


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps({"tool_version": __version__, "config": resolved_doc(cfg)},
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
