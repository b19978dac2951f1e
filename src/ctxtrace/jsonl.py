"""JSONL and CSV I/O with run-identity header lines.

Every file this package writes starts with a header naming the run: JSONL
files open with ``{"_manifest": "<hash>", "seed": <int>}``, CSV files with a
``# manifest=<hash> seed=<int>`` comment line.  Readers of pipeline outputs
check and strip those headers; readers of user-authored inputs (questions,
corpora, scripts) expect none.  All writes are deterministic: UTF-8, LF line
endings, compact JSON with insertion-ordered keys.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import SchemaError, ValidationError

MANIFEST_KEY = "_manifest"
CSV_FIRST_ROW_LINE = 3  # after the header comment and the column row


def dumps_row(obj: dict[str, Any]) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def header_obj(manifest_hash: str, seed: int) -> dict[str, Any]:
    return {MANIFEST_KEY: manifest_hash, "seed": seed}


def write_jsonl(path: str | Path, rows: Iterable[dict[str, Any]],
                header: dict[str, Any] | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(dumps_row(header) + "\n")
        for row in rows:
            fh.write(dumps_row(row) + "\n")


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_no, object) pairs; line numbers are 1-based."""
    if not Path(path).is_file():
        raise ValidationError(f"missing input file: {path}")
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise SchemaError(path, line_no, "expected a JSON object")
            yield line_no, obj


def read_output_jsonl(path: str | Path) -> tuple[dict[str, Any], list[tuple[int, dict[str, Any]]]]:
    """Read a pipeline-written JSONL file, returning (header, rows)."""
    rows = list(iter_jsonl(path))
    if not rows or MANIFEST_KEY not in rows[0][1]:
        raise SchemaError(path, 1, "missing manifest header line")
    header = rows[0][1]
    if not isinstance(header.get(MANIFEST_KEY), str) or not isinstance(header.get("seed"), int):
        raise SchemaError(path, 1, "malformed manifest header line")
    return header, rows[1:]


def require_field(obj: dict[str, Any], name: str, kinds: type | tuple[type, ...],
                  path: str | Path, line_no: int, *, allow_none: bool = False) -> Any:
    if name not in obj:
        raise SchemaError(path, line_no, f"missing field {name!r}")
    value = obj[name]
    if value is None:
        if allow_none:
            return None
        raise SchemaError(path, line_no, f"field {name!r} must not be null")
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is not bool:
        raise SchemaError(path, line_no, f"field {name!r} has the wrong type")
    return value


def require_finite(value: float, name: str, path: str | Path, line_no: int) -> float:
    if not math.isfinite(value):
        raise SchemaError(path, line_no, f"field {name!r} must be finite")
    return float(value)


def parse_cell(cell: str, kind: type, column: str, path: str | Path, line_no: int) -> Any:
    """Parse one numeric CSV cell, naming its column and line on failure."""
    try:
        return kind(cell)
    except ValueError:
        raise SchemaError(path, line_no,
                          f"column {column!r}: {cell!r} is not a valid {kind.__name__}") from None


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_header_comment(manifest_hash, seed) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def read_csv(path: str | Path) -> tuple[str, int, list[str], list[list[str]]]:
    """Read a pipeline CSV, returning (manifest_hash, seed, columns, rows).

    Blank rows are skipped, so data row i sits on line CSV_FIRST_ROW_LINE + i
    of any file this package wrote.
    """
    if not Path(path).is_file():
        raise ValidationError(f"missing input file: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        manifest_hash, seed = parse_csv_header_comment(first, path)
        reader = csv.reader(io.StringIO(fh.read()))
        table = [row for row in reader if row]
    if not table:
        raise SchemaError(path, 2, "missing column header row")
    return manifest_hash, seed, table[0], table[1:]
