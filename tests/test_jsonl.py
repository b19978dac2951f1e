"""Line-oriented I/O: headers, schema errors, and deterministic writes."""
from __future__ import annotations

import builtins
import json

import pytest

from ctxtrace import jsonl
from ctxtrace.backends import GENERATION_ENTRY, GenerationEntry
from ctxtrace.errors import SchemaError, ValidationError
from ctxtrace.jsonl import (
    csv_header_comment,
    header_obj,
    iter_jsonl,
    parse_csv_header_comment,
    read_csv,
    read_output_jsonl,
    write_csv,
    write_jsonl,
)

from .conftest import INPUT_LOADERS


def test_jsonl_roundtrip_with_header(tmp_path):
    path = tmp_path / "out.jsonl"
    rows = [{"id": "a", "n": 1}, {"id": "b", "n": 2}]
    write_jsonl(path, rows, header=header_obj("cafe0123cafe0123", 7))
    header, got = read_output_jsonl(path)
    assert header == {"_manifest": "cafe0123cafe0123", "seed": 7}
    assert [(line, obj) for line, obj in got] == [(2, rows[0]), (3, rows[1])]
    # Byte-level determinism: compact JSON, LF endings.
    assert path.read_bytes() == (
        b'{"_manifest":"cafe0123cafe0123","seed":7}\n'
        b'{"id":"a","n":1}\n{"id":"b","n":2}\n')


def test_iter_jsonl_failures(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(ValidationError):
        list(iter_jsonl(missing))
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(SchemaError) as err:
        list(iter_jsonl(bad))
    assert f"{bad}:2:" in str(err.value)
    arr = tmp_path / "arr.jsonl"
    arr.write_text("[1,2]\n")
    with pytest.raises(SchemaError):
        list(iter_jsonl(arr))
    gappy = tmp_path / "gap.jsonl"
    gappy.write_text('{"a":1}\n\n{"b":2}\n')
    assert [line for line, _ in iter_jsonl(gappy)] == [1, 3]


def test_read_output_jsonl_requires_header(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text('{"id":"a"}\n')
    with pytest.raises(SchemaError):
        read_output_jsonl(path)
    path.write_text('{"_manifest":"x","seed":"7"}\n')
    with pytest.raises(SchemaError):
        read_output_jsonl(path)


def test_row_fields_have_exact_types():
    row = {"question_id": "q", "target_words": 3, "text": "x"}
    assert GENERATION_ENTRY.load(row, "p", 1) == GenerationEntry("q", 3, "x")
    assert GENERATION_ENTRY.load(dict(row, target_words=None), "p", 1).target_words is None
    for bad, message in (
            ({"question_id": "q", "text": "x"}, "missing field 'target_words'"),
            (dict(row, text=None), "field 'text' must not be null"),
            (dict(row, text=3), "field 'text' has the wrong type"),
            (dict(row, target_words="3"), "field 'target_words' has the wrong type"),
            # Booleans are ints to Python; they must not pass as counts.
            (dict(row, target_words=True), "field 'target_words' has the wrong type"),
            # Length candidates are positive, so no lookup asks for these.
            (dict(row, target_words=0), "target_words must be at least 1"),
            (dict(row, target_words=-80), "target_words must be at least 1"),
    ):
        with pytest.raises(SchemaError) as err:
            GENERATION_ENTRY.load(bad, "p", 4)
        assert (err.value.line_no, err.value.message) == (4, message)


def test_parser_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "n.jsonl"
    path.write_text('{"x": 0.5, "n": -2}\n')
    assert list(iter_jsonl(path)) == [(1, {"x": 0.5, "n": -2})]
    # NaN and Infinity are not JSON; 1e400 overflows a float to infinity.
    for bad in ("NaN", "Infinity", "-Infinity", "1e400"):
        path.write_text('{"ok": 1}\n' f'{{"x": {bad}}}\n')
        with pytest.raises(SchemaError) as err:
            list(iter_jsonl(path))
        assert (err.value.line_no, err.value.message) == (
            2, f"invalid JSON: {bad} is not a finite number")


@pytest.mark.parametrize("second_row", ["{}", "not json"], ids=["schema", "json"])
@pytest.mark.parametrize("name", INPUT_LOADERS)
def test_a_loader_that_raises_holds_no_open_file(tmp_path, monkeypatch, name, second_row):
    loader, row = INPUT_LOADERS[name]
    path = tmp_path / "input.jsonl"
    path.write_text(json.dumps(row) + "\n" + second_row + "\n", encoding="utf-8")
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(builtins.open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(jsonl, "open", recording_open, raising=False)
    with pytest.raises(SchemaError) as err:
        loader(path)
    assert err.value.line_no == 2
    assert opened and all(fh.closed for fh in opened)


def test_csv_header_comment_roundtrip():
    line = csv_header_comment("deadbeefdeadbeef", 42)
    assert line == "# manifest=deadbeefdeadbeef seed=42"
    assert parse_csv_header_comment(line, "p") == ("deadbeefdeadbeef", 42)
    for bad in ("# manifest=x", "#manifest=x seed=1", "# manifest=x seed=one", ""):
        with pytest.raises(SchemaError):
            parse_csv_header_comment(bad, "p")


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["1", "x,y"], ["2", ""]], "beef", 3)
    manifest, seed, columns, rows = read_csv(path)
    assert (manifest, seed) == ("beef", 3)
    assert columns == ["a", "b"]
    assert rows == [["1", "x,y"], ["2", ""]]
    with pytest.raises(ValidationError):
        read_csv(tmp_path / "missing.csv")
    headerless = tmp_path / "h.csv"
    headerless.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError):
        read_csv(headerless)
    empty = tmp_path / "e.csv"
    empty.write_text("# manifest=x seed=1\n")
    with pytest.raises(SchemaError):
        read_csv(empty)


def test_failed_writes_leave_no_partial_file(tmp_path):
    def rows_then_crash():
        yield {"id": "a"}
        raise RuntimeError("backend died")

    fresh = tmp_path / "fresh.jsonl"
    with pytest.raises(RuntimeError):
        write_jsonl(fresh, rows_then_crash(), header=header_obj("beef", 1))
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "kept.csv"
    write_csv(kept, ["a"], [["1"]], "beef", 1)
    before = kept.read_bytes()
    with pytest.raises(RuntimeError):
        write_csv(kept, ["a"], ([str(row["id"])] for row in rows_then_crash()), "beef", 2)
    assert kept.read_bytes() == before
    assert list(tmp_path.iterdir()) == [kept]


def test_csv_rows_keep_the_line_they_start_on(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('# manifest=beef seed=3\n\na,b\n1,x\n\n2,"two\nlines"\n3,y\n')
    _, _, columns, rows = read_csv(path)
    assert columns == ["a", "b"] and columns.line_no == 3
    assert rows == [["1", "x"], ["2", "two\nlines"], ["3", "y"]]
    assert [row.line_no for row in rows] == [4, 6, 8]
