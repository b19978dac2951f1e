"""Run configuration and run identity.

One JSON document configures a whole run; every leaf field can be overridden
on the command line by a flag of the same dotted name (flags win).  The
dataclasses below are the config: its fields, their defaults and the flag
coercions all come from them, a run's config is built straight into them
from the file and the flags, and it is hashed as it stands.  The manifest
hash identifies a run: sha256 over the tool version plus the resolved config
(seed included), so every stage launched from the same config stamps the
same hash into its output headers, and mixed-run inputs are detectable
downstream.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from .analysis import AGGREGATIONS, DEFAULT_MATCH_THRESHOLD, DEFAULT_SLICES, SIM_METRICS
from .backends import BackendSpec, Bm25Params
from .errors import ValidationError
from .jsonl import not_utf8, parse_object
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


# Leaf fields and their _LEAF_TYPES keys.  These names double as the dotted
# override flags.
CONFIG_FIELDS: dict[str, str] = {name: f.type.removesuffix(" | None")
                                 for name, f in _leaves(RunConfig)}


def coerce_override(dotted: str, raw: object) -> Any:
    if dotted not in CONFIG_FIELDS:
        raise ValidationError(f"unknown config field {dotted!r}")
    if not isinstance(raw, str):
        return raw
    if dotted == "order":
        return raw.replace("-", "_")  # --order generated-first
    _, types, items = _LEAF_TYPES[CONFIG_FIELDS[dotted]]
    try:
        if items:
            return [items[0](part.strip()) for part in raw.split(",") if part.strip()]
        value = types[0](raw)
        if isinstance(value, float) and not math.isfinite(value):  # nan, inf, 1e999
            raise ValueError(raw)
        return value
    except ValueError:
        raise ValidationError(f"cannot parse {raw!r} for config field {dotted!r}") from None


def _check_keys(cls: type, doc: dict[str, Any], path: str = "") -> None:
    """Refuse, in file order, a key that names no field of *cls* and a section
    that is no object."""
    types = {f.name: f.type for f in fields(cls)}
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in types:
            raise ValidationError(f"unknown config field {where!r}")
        if types[key] in _SECTIONS:
            if not isinstance(value, dict):
                raise ValidationError(f"config field {where!r} must be an object")
            _check_keys(_SECTIONS[types[key]], value, where)


def load_config(path: str | Path | None = None,
                overrides: dict[str, Any] | None = None) -> RunConfig:
    """Dotted overrides, then the config file, then the dataclass defaults;
    the first that sets a leaf wins."""
    doc: dict[str, Any] = {}
    if path is not None:
        file_path = Path(path)
        if not file_path.is_file():
            raise ValidationError(f"missing config file: {file_path}")
        try:
            text = file_path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise not_utf8(file_path) from None
        doc = parse_object(text, file_path)
        _check_keys(RunConfig, doc)
    flags = {dotted: coerce_override(dotted, value) for dotted, value in (overrides or {}).items()}
    return _build(RunConfig, doc, flags)


def _build(cls: type, doc: dict[str, Any], flags: dict[str, Any], prefix: str = "") -> Any:
    """*cls* from the leaves under *prefix*: each from *flags*, else from the
    file section *doc*, else left at its default."""
    kwargs: dict[str, Any] = {}
    for f in fields(cls):
        where = prefix + f.name
        if f.type in _SECTIONS:
            kwargs[f.name] = _build(_SECTIONS[f.type], doc.get(f.name, {}), flags, where + ".")
            continue
        value = flags[where] if where in flags else doc.get(f.name, MISSING)
        if value is MISSING:
            continue
        if value is not None or not f.type.endswith(" | None"):
            what, types, items = _LEAF_TYPES[CONFIG_FIELDS[where]]
            if type(value) not in types or items and any(type(v) not in items for v in value):
                raise ValidationError(f"config field {where!r} must be {what}: {value!r}")
            if items:
                value = tuple(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps({"tool_version": __version__, "config": cfg}, default=vars,
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
