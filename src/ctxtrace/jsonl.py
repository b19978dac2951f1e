"""JSONL and CSV I/O with run-identity header lines.

Every file this package writes starts with a header naming the run: JSONL
files open with ``{"_manifest": "<hash>", "seed": <int>}``, CSV files with a
``# manifest=<hash> seed=<int>`` comment line.  Readers of pipeline outputs
check and strip those headers; readers of user-authored inputs (questions,
corpora, scripts) expect none, and read them through :meth:`RowSchema.read`,
which closes the file before any error leaves: a caller that holds a
reader's error holds no open file.  All writes are deterministic: UTF-8, LF
line endings, compact JSON with insertion-ordered keys, and a file appears
under its final name only once complete.  Each output record declares its
row format once, as a :class:`RowSchema` from which its readers and writers
derive.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import sys
from collections import deque, namedtuple
from contextlib import closing, contextmanager
from dataclasses import fields
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .errors import SchemaError, ValidationError

MANIFEST_KEY = "_manifest"


def dumps_row(obj: dict[str, Any]) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def header_obj(manifest_hash: str, seed: int) -> dict[str, Any]:
    return {MANIFEST_KEY: manifest_hash, "seed": seed}


@contextmanager
def _replacing(path: str | Path, newline: str) -> Iterator[Any]:
    """A sibling temp file that replaces *path* once the block completes, so
    a crash or a raising row iterator never leaves *path* truncated."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]],
                header: dict[str, Any] | None = None) -> None:
    with _replacing(path, "\n") as fh:
        if header is not None:
            fh.write(dumps_row(header) + "\n")
        for row in rows:
            fh.write(dumps_row(row) + "\n")


def not_utf8(path: str | Path) -> SchemaError:
    """The error naming the first line of *path* that is not UTF-8.

    Text mode decodes in blocks, so its error does not say which line failed;
    the bytes are read again and broken where the file's reader numbers its
    lines: a CSV file at each ``\n``, as :func:`read_csv` does, and any other
    file by :meth:`bytes.splitlines`, at the universal newlines of text mode.
    """
    data = Path(path).read_bytes()
    lines = data.split(b"\n") if str(path).endswith(".csv") else data.splitlines()
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return SchemaError(path, line_no,
                               f"not UTF-8: {exc.reason} at byte {exc.start + 1} of the line")
    return SchemaError(path, 0, "not UTF-8")  # the file changed since the failed read


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line_no, line less its newline) for each non-blank line; line
    numbers are 1-based."""
    if not Path(path).is_file():
        raise ValidationError(f"missing input file: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    yield line_no, line.removesuffix("\n")
        except UnicodeDecodeError:
            raise not_utf8(path) from None


class _NonFinite(ValueError):
    """A number, as written, that no float holds finitely."""


def _finite(text: str) -> float:
    if math.isfinite(value := float(text)):
        return value
    raise _NonFinite(text)


# NaN, the infinities and numbers too large for a float are not JSON (RFC 8259).
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)
# A JSON string, or a number or constant outside one.
_TOKENS = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN'
                     r'|-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?')


def parse_object(text: str, path: str | Path, line_no: int = 1) -> dict[str, Any]:
    """The JSON object *text*, which starts on line *line_no* of *path*."""
    try:
        obj = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        msg = "Unexpected UTF-8 BOM (decode using utf-8-sig)" if text[:1] == "\ufeff" else exc.msg
        at = min(exc.pos, len(text.rstrip()))  # an error at the end is on the last line
    except _NonFinite as exc:  # the decoder stops at the first token written so
        msg = f"{exc} is not a finite number"
        at = next((m.start() for m in _TOKENS.finditer(text) if m[0] == str(exc)), 0)
    except ValueError:  # int() refuses an integer longer than its digit limit
        limit = sys.get_int_max_str_digits()
        msg = f"integer of more than {limit} digits"
        at = next((m.start() for m in _TOKENS.finditer(text)
                   if (digits := m[0].lstrip("-")).isdigit() and len(digits) > limit), 0)
    except RecursionError:
        raise SchemaError(path, line_no, "invalid JSON: nested too deeply") from None
    else:
        if not isinstance(obj, dict):
            raise SchemaError(path, line_no, "expected a JSON object")
        return obj
    raise SchemaError(path, line_no + text.count("\n", 0, at), f"invalid JSON: {msg}")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_no, object) pairs; the first line that is not a JSON
    object raises :class:`SchemaError`."""
    return _objects(path, None)


def iter_output_jsonl(path: str | Path, bad_lines: list[SchemaError] | None = None,
                      ) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_no, object) of each row of a pipeline-written JSONL file,
    its manifest header first.

    A line that is not a JSON object raises, unless a *bad_lines* list is
    given: then its error is appended there, the line is skipped, and the
    lines after it are still read.  A missing or malformed header raises
    before any row is yielded, once the rest of the file's lines are read.
    """
    rows = _objects(path, bad_lines)
    first = next(rows, None)
    if first is None or MANIFEST_KEY not in first[1]:
        problem = SchemaError(path, 1, "missing manifest header line")
    elif not isinstance(first[1][MANIFEST_KEY], str) or not isinstance(first[1].get("seed"), int):
        problem = SchemaError(path, 1, "malformed manifest header line")
    else:
        yield first
        yield from rows
        return
    deque(rows, maxlen=0)  # a bad line further on is reported too
    raise problem


def _objects(path: str | Path, bad_lines: list[SchemaError] | None,
             ) -> Iterator[tuple[int, dict[str, Any]]]:
    """(line_no, object) pairs; see :func:`iter_output_jsonl` for *bad_lines*."""
    for line_no, line in _lines(path):
        try:
            obj = parse_object(line, path, line_no)
        except SchemaError as exc:
            if bad_lines is None:
                raise
            bad_lines.append(exc)
            continue
        yield line_no, obj


def read_output_jsonl(path: str | Path) -> tuple[dict[str, Any], list[tuple[int, dict[str, Any]]]]:
    """(header, rows) of a pipeline-written JSONL file; see :func:`iter_output_jsonl`."""
    rows = list(iter_output_jsonl(path))
    return rows[0][1], rows[1:]


def csv_header_comment(manifest_hash: str, seed: int) -> str:
    return f"# manifest={manifest_hash} seed={seed}"


def parse_csv_header_comment(line: str, path: str | Path) -> tuple[str, int]:
    parts = line.strip().split()
    if (len(parts) != 3 or parts[0] != "#"
            or not parts[1].startswith("manifest=") or not parts[2].startswith("seed=")):
        raise SchemaError(path, 1, "missing manifest header comment")
    try:
        seed = int(parts[2].removeprefix("seed="))
    except ValueError:
        raise SchemaError(path, 1, "malformed seed in header comment") from None
    return parts[1].removeprefix("manifest="), seed


def write_csv(path: str | Path, columns: list[str], rows: Iterable[list[str]],
              manifest_hash: str, seed: int) -> None:
    with _replacing(path, "") as fh:
        fh.write(csv_header_comment(manifest_hash, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


class CsvRow(list):
    """The cells of one CSV record, and the file line the record starts on."""

    __slots__ = ("line_no",)

    def __init__(self, cells: Iterable[str], line_no: int) -> None:
        super().__init__(cells)
        self.line_no = line_no


def read_csv(path: str | Path) -> tuple[str, int, CsvRow, list[CsvRow]]:
    """Read a pipeline CSV, returning (manifest_hash, seed, columns, rows).

    Blank rows are skipped; each row keeps the line it starts on, which
    names the row if :mod:`csv` cannot parse it.
    """
    if not Path(path).is_file():
        raise ValidationError(f"missing input file: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline()
            manifest_hash, seed = parse_csv_header_comment(first, path)
            reader = csv.reader(io.StringIO(fh.read()))
            table = []
            line_no = 2  # the header comment was line 1
            for cells in reader:
                if cells:
                    table.append(CsvRow(cells, line_no))
                line_no = reader.line_num + 2
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    except csv.Error as exc:
        # csv's own text for a bare \r is advice about Python's open().
        reason = "bare carriage return in an unquoted cell" if "new-line" in str(exc) else exc
        raise SchemaError(path, line_no, f"invalid CSV: {reason}") from None
    if not table:
        raise SchemaError(path, 2, "missing column header row")
    return manifest_hash, seed, table[0], table[1:]


# Field annotation -> the type a CSV cell parses to, and the exact types of
# its JSON value (plain built-ins, so ``true`` is no int): a tuple is a list,
# a nested record an object, and a float may be written as an int.
_KINDS = {"str": str, "int": int, "float": float, "tuple[str, ...]": tuple}
_JSON_TYPES = {str: (str,), int: (int,), float: (float, int), tuple: (list,), dict: (dict,)}
_NONE: Mapping[str, Any] = MappingProxyType({})
# One record field as it appears in a row; see RowSchema.
Col = namedtuple("Col", "attr key kind types nullable choices nonempty nested flat fmt")


class RowSchema:
    """The row format of one record type, declared once.

    Keys, their order and their types come from the fields and annotations
    of the dataclass *cls*.  *name* names the record in messages, and no two
    rows of one file may share their values of the keys in *key*.  The
    keyword arguments declare only the exceptions: ``keys`` gives a field's
    key where it differs, ``choices`` its allowed values, ``nonempty``
    forbids an empty string, list or list item, ``nested`` stores a record
    of another schema as an object under the field's key while ``flatten``
    splices its keys into this row, and ``fmt`` gives a float's CSV cell
    format (default ``.6f``).  A JSON object's keys outside the schema are
    ignored, unless ``exact`` is set: then a key more or less refuses the row.
    """

    def __init__(self, cls: type, name: str, key: tuple[str, ...], *, exact: bool = False,
                 keys: Mapping[str, str] = _NONE,
                 choices: Mapping[str, tuple[str, ...]] = _NONE, nonempty: tuple[str, ...] = (),
                 nested: Mapping[str, RowSchema] = _NONE, flatten: Mapping[str, RowSchema] = _NONE,
                 fmt: Mapping[str, str] = _NONE) -> None:
        self.cls = cls
        self.name = name
        self.key = key
        self.cols: list[Col] = []
        for f in fields(cls):
            annotation, _, none = f.type.partition(" | ")
            sub = nested.get(f.name) or flatten.get(f.name)
            kind = dict if sub else _KINDS[annotation]
            self.cols.append(Col(f.name, keys.get(f.name, f.name), kind, _JSON_TYPES[kind],
                                 none == "None", choices.get(f.name), f.name in nonempty, sub,
                                 f.name in flatten, fmt.get(f.name, ".6f")))
        # Keys in file order; a flattened record contributes its own.
        self.keys = [key for col in self.cols
                     for key in (col.nested.keys if col.flat else [col.key])]
        # The key set each row must have, for an exact schema.
        self.exact = frozenset(self.keys) if exact else None
        self.values = attrgetter(*(col.attr for col in self.cols))

    def dump(self, record: Any) -> dict[str, Any]:
        """The JSON object of one record."""
        row: dict[str, Any] = {}
        for col, value in zip(self.cols, self.values(record)):
            if col.nested is None:
                row[col.key] = list(value) if col.kind is tuple else value
            elif col.flat:
                row.update(col.nested.dump(value))
            else:
                row[col.key] = col.nested.dump(value)
        return row

    def load(self, obj: dict[str, Any], path: str | Path, line_no: int) -> Any:
        """The record in one JSON object, nested records included; a
        ValueError from the record class's ``__post_init__`` names the line."""
        if self.exact is not None and obj.keys() != self.exact:
            raise SchemaError(path, line_no, f"keys differ from a {self.name} "
                                             f"row's by {sorted(obj.keys() ^ self.exact)}")
        values = []
        for _, key, kind, types, nullable, choices, nonempty, nested, flat, _ in self.cols:
            if not flat and key not in obj:
                raise SchemaError(path, line_no, f"missing field {key!r}")
            # A flattened record reads its keys from this same object.
            value = obj if flat else obj[key]
            if value is None:
                if not nullable:
                    raise SchemaError(path, line_no, f"field {key!r} must not be null")
            elif type(value) not in types:
                raise SchemaError(path, line_no, f"field {key!r} has the wrong type")
            elif nested is not None:
                value = nested.load(value, path, line_no)
            elif kind is tuple:
                if not all(type(item) is str for item in value):
                    raise SchemaError(path, line_no, f"field {key!r} must hold strings")
                value = tuple(value)
            if choices is not None and value is not None and value not in choices:
                raise SchemaError(path, line_no, f"field {key!r} has unknown value {value!r}")
            if nonempty and (not value or kind is tuple and "" in value):
                what = "a non-empty list of non-empty strings" if kind is tuple else "non-empty"
                raise SchemaError(path, line_no, f"field {key!r} must be {what}")
            values.append(value)
        try:
            return self.cls(*values)
        except ValueError as exc:
            raise SchemaError(path, line_no, str(exc)) from None

    def cells(self, record: Any) -> list[str]:
        """The CSV cells of one record; None is an empty cell."""
        return ["" if value is None else format(value, col.fmt) if col.kind is float else str(value)
                for col, value in zip(self.cols, self.values(record))]

    def parse(self, cells: Sequence[str], path: str | Path, line_no: int = 0) -> Any:
        """The record in one CSV row, naming the line and column on failure."""
        return self.load(self._cell_values(cells, path, line_no), path, line_no)

    def _cell_values(self, cells: Sequence[str], path: str | Path, line_no: int) -> dict[str, Any]:
        if len(cells) != len(self.cols):
            raise SchemaError(path, line_no, f"row has {len(cells)} cells, not {len(self.cols)}")
        obj: dict[str, Any] = {}
        for col, cell in zip(self.cols, cells):
            try:
                value = obj[col.key] = None if col.nullable and not cell else col.kind(cell)
            except ValueError:
                raise SchemaError(path, line_no, f"column {col.key!r}: {cell!r} is not a "
                                                 f"valid {col.kind.__name__}") from None
            # As in JSONL, NaN, the infinities and overflowing numbers are refused.
            if col.kind is float and value is not None and not math.isfinite(value):
                raise SchemaError(path, line_no, f"column {col.key!r}: {cell!r} is not finite")
        return obj

    def iter_keyed(self, rows: Iterable[tuple[int, Any]], path: str | Path,
                   problems: list[SchemaError] | None = None) -> Iterator[tuple[Any, int, Any]]:
        """Yield (key, line, record) of each (line, JSON object or CSV cells)
        pair as it loads; a one-column key is its value, an empty one the line.
        A row that does not load or repeats an earlier row's key raises, unless
        a *problems* list is given: then its error goes there and reading goes
        on.  Only the keys seen are kept, never the records."""
        key_of = itemgetter(*self.key) if self.key else None
        seen: set[Any] = set()
        for line_no, row in rows:
            try:
                obj = row if isinstance(row, dict) else self._cell_values(row, path, line_no)
                record = self.load(obj, path, line_no)
                key = key_of(obj) if key_of else line_no
                if key in seen:
                    raise SchemaError(path, line_no, f"duplicate {self.name} " + ", ".join(
                        f"{name} {obj[name]!r}" for name in self.key))
            except SchemaError as exc:
                if problems is None:
                    raise
                problems.append(exc)
                continue
            seen.add(key)
            yield key, line_no, record

    def read(self, path: str | Path) -> Iterator[tuple[Any, int, Any]]:
        """(key, line, record) of each row of the user-written JSONL file
        *path*; see :meth:`iter_keyed`.  The file is closed before any error
        leaves, so whoever holds the error holds no open file."""
        with closing(iter_jsonl(path)) as rows:
            yield from self.iter_keyed(rows, path)

    def read_records(self, path: str | Path) -> tuple[dict[str, Any], list[Any]]:
        """(header, records) of a pipeline-written JSONL file."""
        header, rows = read_output_jsonl(path)
        return header, [record for _, _, record in self.iter_keyed(rows, path)]

    def read_table(self, path: str | Path) -> tuple[str, int, list[Any]]:
        """(manifest hash, seed, records) of a pipeline-written CSV file."""
        manifest_hash, seed, columns, rows = read_csv(path)
        if columns != self.keys:
            raise SchemaError(path, columns.line_no, f"columns {columns} are not {self.keys}")
        loaded = self.iter_keyed(((row.line_no, row) for row in rows), path)
        return manifest_hash, seed, [record for _, _, record in loaded]

    def write_table(self, path: str | Path, records: Iterable[Any],
                    manifest_hash: str, seed: int) -> None:
        write_csv(path, self.keys, [self.cells(r) for r in records], manifest_hash, seed)
