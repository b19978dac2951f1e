"""Declared row formats: round trips, shared rules, and the README listing."""
from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from ctxtrace import analysis, backends, metrics, pipeline
from ctxtrace.errors import SchemaError
from ctxtrace.jsonl import dumps_row, header_obj, read_csv, write_jsonl
from ctxtrace.metrics import MetricsReport
from ctxtrace.pipeline import Context, HybridRecord, QaExample, TracedSample
from ctxtrace.textnorm import normalize_answer
from ctxtrace.validate import _digest, validate_files

README = Path(__file__).resolve().parent.parent / "README.md"

texts = st.text(max_size=12)
filled = st.text(min_size=1, max_size=12)
questions = st.builds(QaExample, filled, filled,
                      st.lists(filled, min_size=1, max_size=3).map(tuple))
contexts = st.builds(Context, texts, st.sampled_from(pipeline.SOURCES), texts,
                     st.none() | texts, filled, st.integers(0, 10**6),
                     st.none() | st.integers(1, 10**3), st.sampled_from(pipeline.VARIANTS))
traced = st.builds(TracedSample, questions, contexts, contexts, texts, texts,
                   st.none() | texts, st.sampled_from(pipeline.SUBSETS),
                   st.none() | st.sampled_from(pipeline.DROP_REASONS))
hybrids = st.builds(HybridRecord, texts, st.sampled_from(pipeline.ORDERS),
                    st.integers(-2**63, 2**63), texts, st.sampled_from(pipeline.CLASSIFICATIONS))
finite = st.floats(allow_nan=False, allow_infinity=False)


def reports(labels):
    """Report rows whose label column draws from *labels*."""
    return st.builds(MetricsReport, labels, st.integers(), finite, finite, st.none() | finite,
                     finite, finite, finite)


sims = st.builds(analysis.SimilarityRecord, texts, finite, finite,
                 st.sampled_from(analysis.SIM_METRICS), st.sampled_from(analysis.AGGREGATIONS),
                 finite)
slice_rows = st.builds(analysis.SliceRow, st.integers(), st.integers(), finite,
                       st.none() | finite)

fingerprints = st.text("0123456789abcdef", min_size=16, max_size=16)
script_entries = st.sampled_from(backends.SCRIPT_MODES).flatmap(lambda mode: st.builds(
    backends.ScriptEntry, texts, st.just(mode), {
        "closed_book": st.none(), "single_context": fingerprints,
        "hybrid": st.none() | fingerprints}[mode], texts))
gold_hits = st.builds(backends.GoldHit, texts, texts, texts, filled)
# The input files: user-authored, headerless JSONL.
INPUT_CASES = [
    ("questions", pipeline.QUESTION, questions),
    ("corpus", backends.CORPUS_DOC, st.builds(backends.CorpusDoc, texts, texts, texts)),
    ("gold", backends.GOLD_HIT, gold_hits),
    ("ingested", backends.INGESTED_HIT,
     st.builds(backends.IngestedHit, texts, texts, texts, filled, finite)),
    ("generation", backends.GENERATION_ENTRY,
     st.builds(backends.GenerationEntry, texts, st.none() | st.integers(1, 10**4), texts)),
    ("reader", backends.SCRIPT_ENTRY, script_entries),
    ("scores", analysis.EXTERNAL_SCORE, st.builds(
        analysis.ExternalScore, texts, st.sampled_from(analysis.SCORE_KEYS), st.floats(-1, 1))),
]

JSONL_CASES = [("questions", pipeline.QUESTION, questions), ("contexts", pipeline.CONTEXT, contexts),
               ("traced", pipeline.TRACED, traced), ("eval", pipeline.HYBRID, hybrids)]
# Questions are both an input and the example part of traced rows.
JSONL_ROUND_TRIPS = JSONL_CASES + INPUT_CASES[1:]
# Each report table draws its labels from its own set; report.csv takes any.
CSV_CASES = [("report", metrics.REPORT, reports(texts)), ("sim", analysis.SIM, sims),
             ("slices", analysis.SLICES, slice_rows),
             ("order", analysis.ORDER, reports(st.sampled_from(pipeline.ORDERS))),
             ("completeness", analysis.COMPLETENESS,
              reports(st.sampled_from(analysis.COMPLETENESS_VARIANTS)))]


@pytest.mark.parametrize("schema,records", [case[1:] for case in JSONL_ROUND_TRIPS],
                         ids=[case[0] for case in JSONL_ROUND_TRIPS])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_jsonl_rows_round_trip(schema, records, data):
    record = data.draw(records)
    line = dumps_row(schema.dump(record))
    assert list(json.loads(line)) == schema.keys
    assert schema.load(json.loads(line), "p", 1) == record


@pytest.mark.parametrize("schema,records", [case[1:] for case in CSV_CASES],
                         ids=[case[0] for case in CSV_CASES])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_csv_cells_round_trip(schema, records, data):
    cells = schema.cells(data.draw(records))
    assert len(cells) == len(schema.keys)
    assert schema.cells(schema.parse(cells, "p", 3)) == cells


@pytest.mark.parametrize("schema,records", [case[1:] for case in CSV_CASES],
                         ids=[case[0] for case in CSV_CASES])
def test_csv_non_finite_cells_are_refused(schema, records):
    cells = schema.cells(find(records, lambda _: True))
    columns = [i for i, col in enumerate(schema.cols) if col.kind is float]
    assert columns
    for i in columns:
        for cell in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(SchemaError) as err:
                schema.parse(cells[:i] + [cell] + cells[i + 1:], "p", 3)
            assert str(err.value) == f"p:3: column {schema.keys[i]!r}: {cell!r} is not finite"


def _normalize_all(record) -> list:
    """Every normalized form of *record*, and of the records inside it, computed."""
    if isinstance(record, QaExample):
        return [record.normalized_answers]
    if isinstance(record, (Context, HybridRecord)):
        return [record.normalized]
    return [record.normalized_generated, record.normalized_retrieved,
            record.normalized_closed_book, *_normalize_all(record.example),
            *_normalize_all(record.retrieved), *_normalize_all(record.generated)]


def _digests(record) -> list[bytes]:
    """validate's digest of each context *record* is or holds."""
    if isinstance(record, TracedSample):
        return [_digest(record.retrieved), _digest(record.generated)]
    return [_digest(record)] if isinstance(record, Context) else []


@pytest.mark.parametrize("schema,records", [case[1:] for case in JSONL_CASES],
                         ids=[case[0] for case in JSONL_CASES])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_normalized_forms_stay_out_of_the_data(schema, records, data):
    record = data.draw(records)
    twin = schema.load(schema.dump(record), "p", 1)  # equal, and nothing normalized yet
    before = schema.dump(record), hash(record), _digests(record)
    _normalize_all(record)
    assert (schema.dump(record), hash(record), _digests(record)) == before
    assert record == twin and twin == record and hash(twin) == hash(record)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(traced, hybrids, texts)
def test_a_replaced_record_computes_its_own_normalized_forms(sample, record, text):
    _normalize_all(sample)
    _normalize_all(record)
    fresh = normalize_answer(text)
    assert replace(sample.generated, text=text).normalized == fresh
    assert replace(sample.example, answers=(text,)).normalized_answers == (fresh,)
    edited = replace(sample, answer_from_generated=text, answer_from_retrieved=text,
                     closed_book=text)
    assert _normalize_all(edited)[:3] == [fresh] * 3
    assert replace(record, answer=text).normalized == fresh


def test_gold_answer_rule_is_shared():
    row = pipeline.TRACED.dump(TracedSample(
        QaExample("q1", "who?", ("Ada",)),
        Context("q1", "retrieved", "golden", "T", "Title: T Content: Ada", 4, None, "retrieved"),
        Context("q1", "generated", "gen", None, "Ada wrote it.", 3, 80, "nature"),
        "Ada", "Ada", None, "none", None))
    for answers in ([], ["Ada", ""]):
        messages = set()
        for schema in (pipeline.QUESTION, pipeline.TRACED):
            with pytest.raises(SchemaError) as err:
                schema.load(dict(row, answers=answers), "p", 5)
            messages.add(str(err.value))
        assert messages == {"p:5: field 'answers' must be a non-empty list of non-empty strings"}


def test_readme_lists_every_output_format():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Output file formats", 1)[1].split("\n## ", 1)[0]
    outputs = [(f"{name}.jsonl", schema) for name, schema, _ in JSONL_CASES[1:]]
    outputs += [(f"{name}.csv", schema) for name, schema, _ in CSV_CASES]
    for filename, schema in outputs:
        bullet = re.search(rf"^\* `{re.escape(filename)}`(.*?)(?=^\* |\n\n)", section,
                           re.M | re.S)
        assert bullet, f"README lists no {filename}"
        assert re.findall(r"`(\w+)`", bullet.group(1)) == schema.keys, filename
        key = re.match(r" \([^;)]*; one row per ([\w ]+)\):", bullet.group(1))
        assert key and tuple(key.group(1).split(" and ")) == schema.key, filename


# Every keyed schema, with how one record appears in its file: an object or cells.
ROW_CASES = [(name, schema, records, schema.dump) for name, schema, records in JSONL_CASES]
ROW_CASES += [(name, schema, records, schema.dump)
              for name, schema, records in INPUT_CASES[1:] if schema.key]
ROW_CASES += [(name, schema, records, schema.cells) for name, schema, records in CSV_CASES]


@pytest.mark.parametrize("schema,records,to_row", [case[1:] for case in ROW_CASES],
                         ids=[case[0] for case in ROW_CASES])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_a_repeated_key_is_rejected_at_its_line(schema, records, to_row, data):
    row = to_row(data.draw(records))
    unloadable = {} if isinstance(row, dict) else []
    rows = [(2, row), (3, unloadable), (5, row), (8, row)]
    with pytest.raises(SchemaError) as err:
        list(schema.iter_keyed([rows[0], rows[2]], "p"))
    assert err.value.line_no == 5
    assert err.value.message.startswith(f"duplicate {schema.name} {schema.key[0]} ")
    problems = []
    assert [line for _, line, _ in schema.iter_keyed(rows, "p", problems)] == [2]
    assert [exc.line_no for exc in problems] == [3, 5, 8]
    assert [exc.message for exc in problems[1:]] == [err.value.message] * 2


# The stage that reads each output file back; the rest are read by validate only.
STAGE_READERS = {"contexts": pipeline.read_contexts, "traced": pipeline.read_traced,
                 "eval": pipeline.read_eval, "report": metrics.read_report_csv,
                 "sim": analysis.read_sim_csv}


@pytest.mark.parametrize("name,schema,records", JSONL_CASES[1:] + CSV_CASES,
                         ids=[case[0] for case in JSONL_CASES[1:] + CSV_CASES])
def test_stage_reader_and_validate_reject_a_repeated_row_alike(tmp_path, name, schema, records):
    record = find(records, lambda _: True)
    if schema in [case[1] for case in CSV_CASES]:
        path = tmp_path / f"{name}.csv"
        schema.write_table(path, [record, record], "feedbead12345678", 4)
        repeat = read_csv(path)[3][1].line_no
    else:
        path = tmp_path / f"{name}.jsonl"
        write_jsonl(path, [schema.dump(record)] * 2, header_obj("feedbead12345678", 4))
        repeat = 3
    reader = STAGE_READERS.get(name, schema.read_table)
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert err.value.line_no == repeat
    assert err.value.message.startswith(f"duplicate {schema.name} ")
    repeats = [(p.line_no, p.message) for p in validate_files([path]) if "duplicate" in p.message]
    assert repeats == [(repeat, err.value.message)]


@pytest.mark.parametrize("name,schema,records", JSONL_CASES[1:],
                         ids=[case[0] for case in JSONL_CASES[1:]])
def test_stage_reader_and_validate_reject_an_extra_key_alike(tmp_path, name, schema, records):
    row = schema.dump(find(records, lambda _: True))
    path = tmp_path / f"{name}.jsonl"
    write_jsonl(path, [row, dict(row, surprise=True)], header_obj("feedbead12345678", 4))
    with pytest.raises(SchemaError) as err:
        STAGE_READERS[name](path)
    assert (err.value.line_no, err.value.message) == (
        3, f"keys differ from a {schema.name} row's by ['surprise']")
    refused = [(p.line_no, p.message) for p in validate_files([path]) if "keys" in p.message]
    assert refused == [(3, err.value.message)]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(record=gold_hits)
def test_golden_annotations_may_repeat(record):
    row = backends.GOLD_HIT.dump(record)
    problems = []
    loaded = backends.GOLD_HIT.iter_keyed([(2, row), (3, {}), (5, row)], "p", problems)
    assert [(line, hit) for _, line, hit in loaded] == [(2, record), (5, record)]
    assert [(exc.line_no, exc.message) for exc in problems] == [(3, "missing field 'question_id'")]


def test_readme_lists_every_input_format():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Input file formats", 1)[1].split("\n## ", 1)[0]
    titles = {"questions": "Questions", "corpus": "BM25 corpus", "gold": "Golden annotations",
              "ingested": "Ingested retrieval", "generation": "Generation script",
              "reader": "Reader script", "scores": "External similarity scores"}
    for name, schema, _ in INPUT_CASES:
        bullet = re.search(rf"^\* \*\*{titles[name]}\*\* \(`[^`]+`; ([^)]*)\):\s([^.]*)\.",
                           section, re.M)
        assert bullet, f"README lists no {titles[name]}"
        assert re.findall(r"`(\w+)`", bullet.group(2)) == schema.keys, name
        key = " ".join(bullet.group(1).split())
        if schema.key:
            assert key.startswith("one row per "), name
            assert re.split(r", | and ", key.removeprefix("one row per ")) == list(schema.key), name
        else:
            assert key == "repeats allowed", name
