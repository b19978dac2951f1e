"""File re-verification: every stored claim gets recomputed and compared."""
from __future__ import annotations

import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxtrace.analysis import COMPLETENESS, ORDER, SLICES, read_sim_csv, run_sim, run_slices
from ctxtrace.backends import BackendSpec, KeyedRetriever
from ctxtrace.cli import main
from ctxtrace.config import load_config
from ctxtrace.errors import CtxTraceError, SchemaError
from ctxtrace.jsonl import read_csv
from ctxtrace.metrics import REPORT, MetricsReport, read_report_csv, write_report_csv
from ctxtrace.pipeline import (
    Generator,
    PromptSet,
    Reader,
    read_contexts,
    read_eval,
    read_questions,
    read_traced,
    run_evaluate,
    run_prepare,
    run_trace,
)
from ctxtrace.validate import validate_files

from .conftest import INPUT_LOADERS, WorldBuilder

ABST = ("unknown", "no answer")


def _edit_jsonl(path, line_no, mutate):
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line_no - 1])
    mutate(obj)
    lines[line_no - 1] = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")


def _edit_csv_cell(path, row_no, col_no, value):
    lines = path.read_text().splitlines()
    cells = lines[row_no - 1].split(",")
    cells[col_no] = value
    lines[row_no - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _finish_run(tmp_path, world, manifest="feedbead12345678", seed=4):
    reader = Reader(BackendSpec(kind="scripted", script_path=world.reader_path),
                    PromptSet())
    generator = Generator(BackendSpec(kind="scripted", script_path=world.gen_path),
                          PromptSet())
    retriever = KeyedRetriever.load(world.gold_path, "golden")
    examples = read_questions(world.questions_path)

    paths = {name: tmp_path / name for name in
             ("contexts.jsonl", "traced.jsonl", "eval.jsonl", "report.csv")}
    run_prepare(examples, retriever, generator, (80, 100, 120),
                paths["contexts.jsonl"], manifest, seed=seed)
    _, by_id = read_contexts(paths["contexts.jsonl"])
    samples = run_trace(examples, by_id, reader, ABST, False,
                        paths["traced.jsonl"], manifest, seed=seed)
    run_evaluate(samples, reader, "generated_first", seed, paths["eval.jsonl"],
                 paths["report.csv"], manifest)
    return paths


@pytest.fixture
def run(tmp_path):
    """A finished pipeline run: contexts, traced, eval, and report files."""
    world = WorldBuilder(tmp_path)
    world.add_case("q01", outcome="AIG", hybrid_pick="gen")
    world.add_case("q02", outcome="AIR", hybrid_pick="ret")
    world.add_case("q03", outcome="AIG", hybrid_pick="other")
    world.add_case("q04", outcome="abstained_gen")
    world.write()
    return _finish_run(tmp_path, world)


def test_clean_run_validates(run):
    assert validate_files(list(run.values())) == []
    # Each file also stands alone.
    for path in run.values():
        assert validate_files([path]) == []


def test_each_input_is_opened_once(run, monkeypatch):
    opened = Counter()
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert validate_files(list(run.values())) == []
    assert opened == Counter(str(path) for path in run.values())


def test_clean_run_with_rounded_thirds(tmp_path):
    # Two gen picks against one ret pick puts 2/3 and 1/3 in the rho cells.
    # Recomputing diff_gr from those rounded cells lands a full cell ulp
    # away from the stored value; an honest report must not be flagged.
    world = WorldBuilder(tmp_path)
    world.add_case("q01", outcome="AIG", hybrid_pick="gen")
    world.add_case("q02", outcome="AIG", hybrid_pick="gen")
    world.add_case("q03", outcome="AIG", hybrid_pick="ret")
    world.write()
    paths = _finish_run(tmp_path, world)
    assert validate_files(list(paths.values())) == []


def test_problem_rendering():
    assert str(SchemaError("out/x.jsonl", 7, "bad row")) == "out/x.jsonl:7: bad row"


def test_missing_file_is_a_problem(tmp_path):
    missing = tmp_path / "nope.jsonl"
    problems = validate_files([missing])
    assert len(problems) == 1
    assert problems[0].line_no == 0
    assert "missing file" in problems[0].message


def test_word_count_recount(run):
    path = run["contexts.jsonl"]

    def bump(obj):
        obj["word_count"] += 3
    _edit_jsonl(path, 2, bump)
    problems = validate_files([path])
    assert len(problems) == 1
    assert problems[0].path == str(path)
    assert problems[0].line_no == 2
    assert "word_count" in problems[0].message


def test_subset_label_recomputed(run):
    path = run["traced.jsonl"]

    def flip(obj):
        assert obj["subset"] == "AIG"
        obj["subset"] = "AIR"
    _edit_jsonl(path, 2, flip)
    problems = validate_files([path])
    assert any("stored subset 'AIR'" in p.message and p.line_no == 2 for p in problems)


def test_containment_recomputed(run):
    path = run["traced.jsonl"]

    def detach(obj):
        obj["answer_from_generated"] = "absent-token"
    _edit_jsonl(path, 2, detach)
    problems = validate_files([path])
    assert any(p.line_no == 2 and "recomputed 'none', 'not_in_gen'" in p.message
               for p in problems)


def test_dropped_rows_skip_containment_checks(run):
    # q04 abstained; its stored answers are not checked for containment.
    problems = validate_files([run["traced.jsonl"]])
    assert problems == []


def test_every_stored_verdict_is_recomputed(tmp_path):
    world = WorldBuilder(tmp_path)
    for qid, outcome in (("q01", "AIG"), ("q02", "AIR"), ("q03", "AIG"),
                         ("q04", "not_in_ret")):
        world.add_case(qid, outcome=outcome, hybrid_pick="gen")
    world.write()
    path = _finish_run(tmp_path, world)["traced.jsonl"]
    assert validate_files([path]) == []

    def claim_not_in_gen(obj):  # the generated candidate is contained
        obj.update(subset="none", dropped="not_in_gen")

    def read_the_generated_candidate_closed_book(obj):
        obj["closed_book"] = obj["answer_from_generated"]

    def claim_parametric(obj):  # three distinct answers
        obj.update(closed_book="cq03", dropped="parametric")

    def label_air(obj):
        assert obj["dropped"] == "not_in_ret"
        obj["subset"] = "AIR"

    for line, edit in enumerate((claim_not_in_gen, read_the_generated_candidate_closed_book,
                                 claim_parametric, label_air), start=2):
        _edit_jsonl(path, line, edit)
    assert [(p.line_no, p.message.split(" != ")[1]) for p in validate_files([path])] == [
        (2, "recomputed 'AIG', None"),
        (3, "recomputed 'AIR', 'parametric'"),
        (4, "recomputed 'AIG', None"),
        (5, "recomputed 'none', 'not_in_ret'"),
    ]


@pytest.mark.parametrize("edit", [{"subset": "AIG"}, {"closed_book": "cq04"}])
def test_abstained_rows_have_no_subset_and_no_closed_book(run, edit):
    path = run["traced.jsonl"]
    _edit_jsonl(path, 5, lambda obj: obj.update(edit))
    problems = validate_files([path])
    assert [(p.line_no, p.message) for p in problems] == [
        (5, "abstained_gen row must have subset 'none' and no closed_book")]


def test_traced_contexts_are_their_contexts_rows(run):
    path = run["traced.jsonl"]

    def reword(obj):  # same word count, same containment
        obj["generated"]["text"] = obj["generated"]["text"].replace("second", "third")
    _edit_jsonl(path, 2, reword)
    assert validate_files([path]) == []
    problems = validate_files([run["contexts.jsonl"], path])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(path), 2, "generated context differs from the contexts row of 'q01'")]


def test_duplicate_traced_id(run):
    path = run["traced.jsonl"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[2]]) + "\n")
    problems = validate_files([path])
    assert any("duplicate traced id" in p.message and p.line_no == len(lines) + 1
               for p in problems)


def test_classification_recomputed(run):
    path = run["eval.jsonl"]

    def flip(obj):
        assert obj["classification"] == "gen"
        obj["classification"] = "ret"
    _edit_jsonl(path, 2, flip)
    problems = validate_files([run["traced.jsonl"], path, run["report.csv"]])
    assert any("stored classification 'ret'" in p.message and p.line_no == 2
               for p in problems)
    # The tampered classification also breaks the report recount.
    assert any("report.csv" in p.path and "recount" in p.message for p in problems)


def test_eval_for_unknown_and_dead_examples(run):
    path = run["eval.jsonl"]
    rows = [
        {"id": "q99", "order": "generated_first", "seed": 4,
         "hybrid_answer": "x", "classification": "other"},
        {"id": "q04", "order": "generated_first", "seed": 4,
         "hybrid_answer": "x", "classification": "other"},
    ]
    with open(path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    problems = validate_files([run["traced.jsonl"], path])
    assert any("unknown example 'q99'" in p.message for p in problems)
    assert any("non-live example 'q04'" in p.message for p in problems)


def test_eval_seed_must_match_header(run):
    path = run["eval.jsonl"]

    def reseed(obj):
        obj["seed"] = 5
    _edit_jsonl(path, 3, reseed)
    problems = validate_files([run["traced.jsonl"], path])
    assert any("record seed 5 != header seed 4" in p.message and p.line_no == 3
               for p in problems)


def test_duplicate_eval_id(run):
    path = run["eval.jsonl"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    problems = validate_files([path])
    assert any("duplicate eval id" in p.message for p in problems)


def test_report_internal_arithmetic(run):
    path = run["report.csv"]
    # Row 3 is the first report row; column 6 holds diff_gr.
    _edit_csv_cell(path, 3, 6, "0.123456")
    problems = validate_files([path])
    assert any("stored diff_gr" in p.message and p.line_no == 3 for p in problems)


def test_a_diff_gr_past_one_by_less_than_a_cell_ulp_is_out_of_range(tmp_path):
    # 1.0000004 is within a cell ulp of the recomputed 1.0, but no gap exceeds 1.
    path = tmp_path / "report.csv"
    path.write_bytes(CSV_HEADERS[0] + b"AIG,1,1.000000,0.000000,,0.000000,1.0000004,100.0000\n")
    assert [(p.line_no, p.message) for p in validate_files([path])] == [
        (3, "diff_gr out of range [-1, 1]: 1.0000004")]


def test_an_empty_rho_llm_beside_closed_book_reads_is_a_tracking_mismatch(run):
    # q01 read closed-book, so the recount tracks rho_llm; the report's cells are empty.
    _edit_jsonl(run["traced.jsonl"], 2, lambda obj: obj.update(closed_book="cq01"))
    problems = validate_files([run["traced.jsonl"], run["eval.jsonl"], run["report.csv"]])
    assert [(p.line_no, p.message) for p in problems] == [
        (line, f"subset {subset}: rho_llm tracking mismatch")
        for line, subset in ((3, "AIG"), (4, "AIR"), (5, "ALL"))]


def test_report_proportions_must_sum(run):
    path = run["report.csv"]
    _edit_csv_cell(path, 3, 2, "0.900000")  # rho_gen
    problems = validate_files([path])
    assert any("sum to" in p.message for p in problems)


def test_report_subset_must_exist(run):
    path = run["report.csv"]
    _edit_csv_cell(path, 3, 0, "AIX")
    problems = validate_files([run["traced.jsonl"], run["eval.jsonl"], path])
    assert any("empty subset 'AIX'" in p.message for p in problems)


def test_report_recount_against_eval(run):
    path = run["report.csv"]
    _edit_csv_cell(path, 3, 7, "12.3456")  # em_percent
    problems = validate_files([run["traced.jsonl"], run["eval.jsonl"], path])
    assert any("stored em_percent" in p.message for p in problems)


def test_a_recount_that_cannot_be_computed_is_a_problem(run):
    # q02 is the only AIR sample; answered with neither context, no live
    # sample matches gen or ret, so diff_gr is undefined for the recount.
    path = run["eval.jsonl"]
    line = next(n for n, text in enumerate(path.read_text().splitlines(), 1)
                if '"id":"q02"' in text)

    def unrelated(obj):
        obj["hybrid_answer"], obj["classification"] = "zzz unrelated", "other"
    _edit_jsonl(path, line, unrelated)
    problems = validate_files([run["traced.jsonl"], path, run["report.csv"]])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(run["report.csv"]), 0,
         "cannot recount the report: diff_gr undefined: no gen or ret matches at all")]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_report_cell_is_a_problem(run, cell):
    # A NaN share once passed both the proportions sum and the recount.
    path = run["report.csv"]
    _edit_csv_cell(path, 3, 5, cell)  # others
    problems = validate_files(list(run.values()))
    assert [(p.line_no, p.message) for p in problems] == [
        (3, f"column 'others': {cell!r} is not finite")]


def _report_row(label, n):
    """A report row whose arithmetic holds: half gen, half ret, half gold."""
    return MetricsReport(label, n, 0.5, 0.5, None, 0.0, 0.0, 50.0)


def test_sweep_tables_accept_only_their_own_labels(tmp_path):
    order, completeness = tmp_path / "order.csv", tmp_path / "completeness.csv"
    ORDER.write_table(order, [_report_row(label, 8) for label in
                              ("generated_first", "bogus", "random")], "feedbead12345678", 4)
    COMPLETENESS.write_table(completeness, [_report_row(label, 8) for label in
                                            ("nature", "AIG", "trunc")], "feedbead12345678", 4)
    problems = validate_files([order, completeness])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(order), 4, "field 'order' has unknown value 'bogus'"),
        (str(completeness), 4, "field 'variant' has unknown value 'AIG'"),
    ]


def test_row_counts_that_need_no_record_file(tmp_path):
    order, report = tmp_path / "order.csv", tmp_path / "report.csv"
    ORDER.write_table(order, [_report_row(label, n) for label, n in
                              (("generated_first", 8), ("retrieved_first", 7), ("random", 8))],
                      "feedbead12345678", 4)
    write_report_csv(report, [_report_row("AIG", 4), _report_row("AIR", 4),
                              _report_row("ALL", 9)], "feedbead12345678", 4)
    problems = validate_files([order, report])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(order), 4, "order retrieved_first n 7 != order generated_first n 8"),
        (str(report), 5, "ALL n 9 != 8, the sum of the subset rows"),
    ]


def test_mixed_manifests_reported(run):
    ctx = run["contexts.jsonl"]
    lines = ctx.read_text().splitlines()
    lines[0] = json.dumps({"_manifest": "0000000000000000", "seed": 4})
    ctx.write_text("\n".join(lines) + "\n")
    problems = validate_files([ctx, run["traced.jsonl"]])
    assert any("mixed manifest hashes" in p.message for p in problems)


def test_headerless_and_malformed_files(tmp_path):
    headerless = tmp_path / "no-header.jsonl"
    headerless.write_text('{"id":"q1"}\n')
    weird = tmp_path / "weird.jsonl"
    weird.write_text('{"_manifest":"aa","seed":1}\n{"surprise":true}\n')
    broken = tmp_path / "broken.csv"
    broken.write_text("subset,n\n")
    problems = validate_files([headerless, weird, broken])
    by_path = {p.path: p for p in problems}
    assert "missing manifest header line" in by_path[str(headerless)].message
    assert "unrecognized row shape" in by_path[str(weird)].message
    assert "missing manifest header comment" in by_path[str(broken)].message


def test_non_report_csv_passes_shape_checks(run, tmp_path):
    other = tmp_path / "sim.csv"
    other.write_text("# manifest=feedbead12345678 seed=4\n"
                     "example_id,sim_gen,sim_ret,metric,aggregation,delta_sim\n"
                     "q01,0.5,0.5,jaccard,max,0.0\n")
    assert validate_files([other, run["report.csv"]]) == []


def test_header_only_jsonl_is_clean(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text('{"_manifest":"aa","seed":0}\n')
    assert validate_files([path]) == []


def test_malformed_non_report_csvs_are_problems(tmp_path):
    header = "# manifest=feedbead12345678 seed=4\n"
    sim = tmp_path / "sim.csv"
    sim.write_text(header + "example_id,sim_gen,sim_ret,metric,aggregation,delta_sim\n"
                            "q01,high,0.5,jaccard,max,0.0\n")
    slices = tmp_path / "slices.csv"
    slices.write_text(header + "slice_index,n,mean_delta_sim,diff_gr\nfirst,few,some,most\n")
    problems = validate_files([sim, slices])
    by_path = {p.path: p for p in problems}
    assert len(problems) == 2
    assert by_path[str(sim)].line_no == 3 and "'sim_gen'" in by_path[str(sim)].message
    assert by_path[str(slices)].line_no == 3 and "'slice_index'" in by_path[str(slices)].message


def test_csv_and_jsonl_kinds_need_exact_columns_and_keys(run, tmp_path):
    unknown = tmp_path / "extra.csv"
    unknown.write_text("# manifest=feedbead12345678 seed=4\nsubset,n,surprise\nAIG,1,x\n")
    path = run["eval.jsonl"]

    def widen(obj):
        obj["surprise"] = True
    _edit_jsonl(path, 2, widen)
    problems = validate_files([unknown, path])
    assert any(p.path == str(unknown) and "unrecognized columns" in p.message for p in problems)
    assert any(p.path == str(path) and "unrecognized row shape" in p.message for p in problems)


def test_an_unrecognized_first_row_hides_no_later_row(run):
    # The kind comes from the first row of a known kind; each row before it
    # is a problem at its own line.
    path = run["eval.jsonl"]
    _edit_jsonl(path, 2, lambda obj: obj.update(surprise=True))
    _edit_jsonl(path, 3, lambda obj: obj.update(classification="gen"))
    problems = validate_files([run["traced.jsonl"], path])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(path), 2, "unrecognized row shape"),
        (str(path), 3, "stored classification 'gen' != recomputed 'ret'"),
        (str(path), 0, "no eval record for live example 'q01'"),
    ]


@pytest.mark.parametrize("name, edit, key", [
    ("contexts.jsonl", lambda obj: obj.update(surprise=True), "surprise"),
    ("contexts.jsonl", lambda obj: obj.pop("variant"), "variant"),
    ("traced.jsonl", lambda obj: obj["retrieved"].update(surprise=True), "surprise"),
    ("traced.jsonl", lambda obj: obj["generated"].pop("variant"), "variant"),
], ids=["extra", "missing", "nested-extra", "nested-missing"])
def test_every_jsonl_row_needs_its_kinds_exact_keys(run, name, edit, key):
    # Line 2 sets the file's kind; a later row that differs is a problem of
    # its own, and so is a context nested in a traced row.  The stage reader
    # refuses the same row.
    path = run[name]
    _edit_jsonl(path, 3, edit)
    problems = validate_files([path])
    assert [(p.line_no, p.message) for p in problems] == [
        (3, f"keys differ from a context row's by [{key!r}]")]
    reader = {"contexts.jsonl": read_contexts, "traced.jsonl": read_traced}[name]
    with pytest.raises(SchemaError) as err:
        reader(path)
    assert (err.value.line_no, err.value.message) == (problems[0].line_no, problems[0].message)


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["retrieved"].update(variant="nature"),
     "retrieved contexts must carry the retrieved variant"),
    (lambda obj: obj["generated"].update(variant="retrieved"),
     "generated contexts cannot carry the retrieved variant"),
    (lambda obj: obj["retrieved"].update(id="q99"),
     "context id 'q99' does not match sample id 'q01'"),
    (lambda obj: obj["retrieved"].update(source="generated", variant="nature"),
     "traced contexts are attached under the wrong sources"),
], ids=["retrieved-variant", "generated-variant", "context-id", "sources"])
def test_each_traced_context_rule_is_a_problem_at_its_line(run, edit, message):
    path = run["traced.jsonl"]
    _edit_jsonl(path, 2, edit)
    assert [(p.line_no, p.message) for p in validate_files([path])] == [(2, message)]


def test_every_live_sample_needs_an_eval_record(run):
    path = run["eval.jsonl"]
    lines = path.read_text().splitlines()
    dropped = json.loads(lines[2])["id"]
    path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    problems = validate_files([run["traced.jsonl"], path])
    assert [p.message for p in problems] == [f"no eval record for live example {dropped!r}"]
    assert problems[0].path == str(path)


def test_empty_gold_answer_is_a_problem(run):
    path = run["traced.jsonl"]

    def blank(obj):
        obj["answers"].append("")
    _edit_jsonl(path, 2, blank)
    problems = validate_files([path])
    assert len(problems) == 1 and problems[0].line_no == 2
    assert "'answers'" in problems[0].message


SIM_HEADER = ("# manifest=feedbead12345678 seed=4\n"
              "example_id,sim_gen,sim_ret,metric,aggregation,delta_sim\n")


def test_csv_problems_name_their_line_after_a_blank_line(tmp_path):
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "\nq01,0.5,0.5,jaccard,max,0.0\nq02,high,0.5,jaccard,max,0.0\n")
    problems = validate_files([sim])
    assert [(p.line_no, "'sim_gen'" in p.message) for p in problems] == [(5, True)]


def test_every_malformed_row_is_a_problem_with_one_prefix(tmp_path):
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "\nq01,0.5,0.5,jaccard,max,0.0\nq02,high,0.5,jaccard,max,0.0\n"
                                "q03,0.5,low,jaccard,max,0.0\n")
    problems = validate_files([sim])
    assert [p.line_no for p in problems] == [5, 6]
    for problem in problems:
        assert str(problem) == f"{sim}:{problem.line_no}: {problem.message}"
        assert str(sim) not in problem.message


def test_every_malformed_jsonl_row_is_a_problem(run):
    path = run["traced.jsonl"]

    def unknown_subset(obj):
        obj["subset"] = "XYZ"
    _edit_jsonl(path, 2, unknown_subset)
    _edit_jsonl(path, 4, unknown_subset)
    problems = validate_files([path])
    assert [(p.line_no, "'subset'" in p.message) for p in problems] == [(2, True), (4, True)]


def test_every_unparsable_jsonl_line_is_a_problem(run):
    path = run["eval.jsonl"]

    def bogus_order(obj):
        obj["order"] = "bogus"
    _edit_jsonl(path, 4, bogus_order)
    lines = path.read_text().splitlines()
    lines[2] = "not json"
    path.write_text("\n".join(lines + ["[1, 2]"]) + "\n")
    by_line = {p.line_no: p.message for p in validate_files([path])}
    assert sorted(by_line) == [3, 4, 5]
    assert by_line[3].startswith("invalid JSON")
    assert "'order'" in by_line[4]
    assert by_line[5] == "expected a JSON object"


def _repeat_line(path, line_no):
    """Append a copy of line *line_no*; returns the copy's line number."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[line_no - 1]]) + "\n")
    return len(lines) + 1


def test_a_repeated_key_is_a_problem_in_every_file_kind(run, tmp_path):
    contexts, report = run["contexts.jsonl"], run["report.csv"]
    contexts_line = _repeat_line(contexts, 2)
    aig = next(n for n, line in enumerate(report.read_text().splitlines(), 1)
               if line.startswith("AIG,"))
    report_line = _repeat_line(report, aig)
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "q01,0.5,0.5,jaccard,max,0.0\nq02,0.5,0.5,jaccard,max,0.0\n")
    sim_line = _repeat_line(sim, 3)
    problems = validate_files([contexts, report, sim])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(contexts), contexts_line, "duplicate context id 'q01', source 'retrieved'"),
        (str(report), report_line, "duplicate report subset 'AIG'"),
        (str(sim), sim_line, "duplicate sim example_id 'q01'"),
    ]


def test_a_traced_id_repeated_across_files_is_one_problem_per_repeat(run, tmp_path):
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(run["traced.jsonl"].read_bytes())
    rows = len(copy.read_text().splitlines()) - 1
    problems = validate_files([run["traced.jsonl"], copy])
    assert [(p.path, p.line_no) for p in problems] == [(str(copy), n) for n in range(2, rows + 2)]
    assert all(p.message.startswith("duplicate traced id ") for p in problems)


def test_problems_of_one_file_come_out_in_line_order(run):
    path = run["eval.jsonl"]

    def bogus_order(obj):
        obj["order"] = "bogus"
    _edit_jsonl(path, 3, bogus_order)
    lines = path.read_text().splitlines()
    lines[3] = "not json"
    path.write_text("\n".join(lines) + "\n")
    assert [p.line_no for p in validate_files([path])] == [3, 4]


def test_eval_record_for_an_unknown_example_beside_a_report(run):
    # Only the records of live samples are recounted into the report.
    with open(run["eval.jsonl"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "q99", "order": "generated_first", "seed": 4,
                             "hybrid_answer": "x", "classification": "other"}) + "\n")
    problems = validate_files([run["traced.jsonl"], run["eval.jsonl"], run["report.csv"]])
    assert [p.message for p in problems] == ["eval record for unknown example 'q99'"]


def test_a_file_of_no_known_kind_still_counts_its_manifest(run, tmp_path):
    unknown = tmp_path / "extra.csv"
    unknown.write_text("# manifest=0123456789abcdef seed=4\nsubset,n,surprise\nAIG,1,x\n")
    problems = validate_files([unknown, run["report.csv"]])
    assert [(p.line_no, p.message.split(":")[0]) for p in problems] == [
        (2, "unrecognized columns ['subset', 'n', 'surprise']"),
        (0, "mixed manifest hashes across inputs")]


def test_sim_rows_need_live_traced_samples(run, tmp_path):
    # q01 is live, q04 abstained, q99 was never traced.
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "q01,0.5,0.5,jaccard,max,0.0\nq04,0.5,0.5,jaccard,max,0.0\n"
                                "q99,0.5,0.5,jaccard,max,0.0\n")
    problems = validate_files([sim, run["traced.jsonl"]])
    assert [(p.path, p.line_no, p.message) for p in problems] == [
        (str(sim), 4, "similarity row for non-live example 'q04'"),
        (str(sim), 5, "similarity row for non-live example 'q99'"),
    ]
    # Without a traced file there is nothing to check the ids against.
    assert validate_files([sim]) == []


def test_sim_cells_are_recomputed(tmp_path):
    rows = [
        "q01,0.500000,0.250000,jaccard,max,0.333333",   # honest
        "q02,0.000001,0.000002,jaccard,max,-0.333333",  # honest, though tiny
        "q03,0.000000,0.000000,jaccard,max,0.000000",   # both zero: stored as 0.0
        "q04,-0.500000,0.900000,external,max,-3.500000",  # external: any finite cells
        "q05,0.500000,0.250000,jaccard,max,0.500000",
        "q06,7.000000,0.250000,jaccard,max,0.931034",
        "q07,0.000000,0.000000,jaccard,max,0.200000",
        "q08,nan,0.250000,external,max,0.000000",
        "q09,0.500000,0.250000,jaccard,max,inf",
    ]
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "\n".join(rows) + "\n")
    assert [(p.line_no, p.message) for p in validate_files([sim])] == [
        (10, "column 'sim_gen': 'nan' is not finite"),
        (11, "column 'delta_sim': 'inf' is not finite"),
        (7, "stored delta_sim 0.5 != recomputed 0.333333"),
        (8, "jaccard similarity out of range [0, 1]"),
        (9, "stored delta_sim 0.2 != recomputed 0.000000"),
    ]


def _slice_world(tmp_path):
    """Six live cases, AIG and AIR in turn, for three slices of two."""
    world = WorldBuilder(tmp_path)
    picks = ["gen", "ret", "ret", "gen", "gen", "ret"]
    for i, pick in enumerate(picks, 1):
        world.add_case(f"q{i:02d}", outcome="AIG" if i % 2 else "AIR", hybrid_pick=pick)
    return world


@pytest.fixture
def sliced(tmp_path):
    """A finished run plus its sim.csv and slices.csv, made as `analyze` makes them."""
    world = _slice_world(tmp_path).write()
    paths = _finish_run(tmp_path, world)
    paths["sim.csv"], paths["slices.csv"] = tmp_path / "sim.csv", tmp_path / "slices.csv"
    _, samples = read_traced(paths["traced.jsonl"])
    run_sim(samples, "ALL", "jaccard", "max", None, paths["sim.csv"], "feedbead12345678", 4)
    _, _, sims = read_sim_csv(paths["sim.csv"])
    _, records = read_eval(paths["eval.jsonl"])
    run_slices(sims, records, 3, paths["slices.csv"], "feedbead12345678", 4)
    return paths


def _slice_problems(sliced):
    return [(p.line_no, p.message) for p in validate_files(list(sliced.values()))
            if p.path == str(sliced["slices.csv"])]


def test_clean_slices_validate(sliced):
    _, _, _, rows = read_csv(sliced["slices.csv"])
    assert [int(cells[1]) for cells in rows] == [2, 2, 2]
    assert validate_files(list(sliced.values())) == []
    assert validate_files([sliced[n] for n in ("sim.csv", "eval.jsonl", "slices.csv")]) == []


def test_slice_sizes_must_sum_to_the_sim_rows(sliced):
    _edit_csv_cell(sliced["slices.csv"], 3, 1, "999")
    assert _slice_problems(sliced) == [
        (0, "slice sizes sum to 1003, not to the 6 similarity rows"),
        (3, "slice 0: stored n 999 != recount 2"),
    ]
    # Without one eval file beside one sim file there is nothing to re-derive from.
    assert validate_files([sliced["sim.csv"], sliced["slices.csv"]]) == []


def test_slice_cells_are_rederived(sliced):
    _edit_csv_cell(sliced["slices.csv"], 4, 2, "0.900000")
    problems = _slice_problems(sliced)
    assert [(line, message.split(" != ")[0]) for line, message in problems] == [
        (4, "slice 1: stored mean_delta_sim 0.9")]


def test_a_dropped_last_slice_is_a_problem(sliced):
    path = sliced["slices.csv"]
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    problems = _slice_problems(sliced)
    assert problems[0] == (0, "slice sizes sum to 4, not to the 6 similarity rows")
    assert (3, "slice 0: stored n 2 != recount 3") in problems
    assert (4, "slice 1: stored n 2 != recount 3") in problems


def test_slices_that_cannot_be_rederived_are_a_problem(sliced):
    path = sliced["slices.csv"]
    path.write_text(path.read_text() + "".join(f"{i},0,0.000000,0.000000\n" for i in (3, 4, 5, 6)))
    assert _slice_problems(sliced) == [(0, "slice count 7 out of range 1..6")]



def test_run_sim_records_slice_as_validate_rederives(tmp_path):
    # q01's question gives it a delta_sim whose six-decimal cell moves its
    # slice's mean: slicing run_sim's records at full precision would store
    # 0.713317 against validate's recount of 0.7133175 from sim.csv.
    world = _slice_world(tmp_path)
    world.questions[0]["question"] = "Who settled the matter of q01 naming it twice?"
    paths = _finish_run(tmp_path, world.write())
    paths["sim.csv"], paths["slices.csv"] = tmp_path / "sim.csv", tmp_path / "slices.csv"
    _, samples = read_traced(paths["traced.jsonl"])
    sims = run_sim(samples, "ALL", "jaccard", "max", None, paths["sim.csv"],
                   "feedbead12345678", 4)
    _, records = read_eval(paths["eval.jsonl"])
    run_slices(sims, records, 3, paths["slices.csv"], "feedbead12345678", 4)
    assert validate_files(list(paths.values())) == []
    assert sims == read_sim_csv(paths["sim.csv"])[2]


def test_a_recount_on_the_half_unit_matches_its_stored_cell(tmp_path):
    # q01's question puts slice 0's mean on 0.4527925, which the writer
    # stores as 0.452792: exactly half a unit in the last place away.
    world = _slice_world(tmp_path)
    world.questions[0]["question"] = "Who settled the matter of q01 in the ledger?"
    paths = _finish_run(tmp_path, world.write())
    paths["sim.csv"], paths["slices.csv"] = tmp_path / "sim.csv", tmp_path / "slices.csv"
    _, samples = read_traced(paths["traced.jsonl"])
    run_sim(samples, "ALL", "jaccard", "max", None, paths["sim.csv"], "feedbead12345678", 4)
    _, _, sims = read_sim_csv(paths["sim.csv"])
    _, records = read_eval(paths["eval.jsonl"])
    run_slices(sims, records, 3, paths["slices.csv"], "feedbead12345678", 4)
    _, _, _, rows = read_csv(paths["slices.csv"])
    assert rows[0][2] == "0.452792"
    assert validate_files(list(paths.values())) == []


SIM_BYTES = SIM_HEADER.encode()
JSONL_HEADER = b'{"_manifest":"feedbead12345678","seed":4}\n'


@pytest.mark.parametrize("name, data, line, message", [
    ("eval.jsonl", JSONL_HEADER + b'{"id":"q\xff1"}\n', 2, "not UTF-8: "),
    ("eval.jsonl", JSONL_HEADER + b"[" * 100_000 + b"\n", 2, "invalid JSON: nested too deeply"),
    ("eval.jsonl", JSONL_HEADER + b'{"id":"q1","seed":' + b"9" * 5000 + b"}\n", 2,
     "invalid JSON: integer of more than "),
    ("sim.csv", SIM_BYTES + b"q01,0.5,0.5,jaccard,max,0.0\nq\xff2\n", 4, "not UTF-8: "),
    ("sim.csv", SIM_BYTES + b"q" * 140_000 + b",0.5,0.5,jaccard,max,0.0\n", 3,
     "invalid CSV: field larger than field limit"),
    ("sim.csv", SIM_BYTES + b"q\r1,0.5,0.5,jaccard,max,0.0\n", 3,
     "invalid CSV: bare carriage return in an unquoted cell"),
], ids=["jsonl-not-utf8", "jsonl-too-deep", "jsonl-long-integer", "csv-not-utf8",
        "csv-huge-cell", "csv-bare-cr"])
def test_a_file_python_cannot_parse_is_a_problem_at_its_line(tmp_path, capsys, name, data, line,
                                                             message):
    path = tmp_path / name
    path.write_bytes(data)
    problems = validate_files([path])
    assert [p.line_no for p in problems] == [line]
    assert problems[0].message.startswith(message)
    assert main(["validate", str(path)]) == 3
    assert f"{path}:{line}: " in capsys.readouterr().out


@pytest.mark.parametrize("next_row", [b"q02,high,0.5,jaccard,max,0.0",
                                      b"q\xff2,0.5,0.5,jaccard,max,0.0"],
                         ids=["bad-cell", "not-utf8"])
def test_a_csv_line_is_counted_at_each_newline_byte(tmp_path, next_row):
    # A quoted cell may hold a bare \r; csv keeps it inside the row, so the
    # row after it is line 4 whether its cell or its bytes are bad.
    sim = tmp_path / "sim.csv"
    sim.write_bytes(SIM_BYTES + b'"q\r1",0.5,0.5,jaccard,max,0.0\n' + next_row + b"\n")
    assert [p.line_no for p in validate_files([sim])] == [4]


RETRIEVED = (b'{"id":"q1","source":"retrieved","backend":"golden","title":"T","text":"x is here",'
             b'"word_count":3,"gen_target_words":null,"variant":"retrieved"}')
GENERATED = (b'{"id":"q1","source":"generated","backend":"scripted","title":null,"text":"y is here",'
             b'"word_count":3,"gen_target_words":80,"variant":"nature"}')
TRACED_ROW = (b'{"id":"q1","question":"Who?","answers":["x"],"retrieved":' + RETRIEVED
              + b',"generated":' + GENERATED + b',"answer_from_retrieved":"x",'
              b'"answer_from_generated":"y","closed_book":null,"subset":"AIR","dropped":null}')
EVAL_ROW = (b'{"id":"q1","order":"generated_first","seed":4,"hybrid_answer":"x",'
            b'"classification":"ret"}')
# The column row of each other CSV kind, under its manifest comment.
CSV_HEADERS = [b"# manifest=feedbead12345678 seed=4\n" + ",".join(schema.keys).encode() + b"\n"
               for schema in (REPORT, ORDER, COMPLETENESS, SLICES)]
TABLE_ROWS = [label + b",1,0.000000,1.000000,,0.000000,-1.000000,100.0000"
              for label in (b"AIR", b"random", b"trunc")] + [b"0,1,0.500000,-1.000000"]
BYTE_PIECES = [JSONL_HEADER, SIM_BYTES,
               *(json.dumps(row).encode() for _, row in INPUT_LOADERS.values()),
               b'{"id":"q1","question":"Who?","answers":[' + b"9" * 5000 + b"]}",
               RETRIEVED, GENERATED, TRACED_ROW, EVAL_ROW, *CSV_HEADERS, *TABLE_ROWS,
               b"q01,0.5,0.5,jaccard,max,0.0", b"{", b"}", b"[" * 600, b'"', b",", b":",
               b"1e400", b"\n", b"\r", b"\r\n", b"\xff", b"\xc3", b"\xef\xbb\xbf",
               b"q" * 70_000]
# Every reader of a file the user or a stage writes, given its path.
READERS = [load_config, *(loader for loader, _ in INPUT_LOADERS.values()),
           read_contexts, read_traced, read_eval]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(BYTE_PIECES), max_size=12).map(b"".join))
def test_malformed_bytes_never_escape_as_a_traceback(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    jsonl, csv = root / "bytes.jsonl", root / "bytes.csv"
    jsonl.write_bytes(data)
    csv.write_bytes(data)
    # Traced, contexts and eval files whose first rows fix their kinds, so
    # that garbage after them is read as rows of that kind, and the traced
    # contexts are digested and compared with the contexts file.
    traced, contexts, evals = root / "traced.jsonl", root / "contexts.jsonl", root / "eval.jsonl"
    traced.write_bytes(JSONL_HEADER + TRACED_ROW + b"\n" + data)
    contexts.write_bytes(JSONL_HEADER + RETRIEVED + b"\n" + GENERATED + b"\n" + data)
    evals.write_bytes(JSONL_HEADER + EVAL_ROW + b"\n" + data)
    validate_files([jsonl, csv, contexts, traced, evals])
    for reader, path in [*((reader, jsonl) for reader in READERS),
                         (read_sim_csv, csv), (read_report_csv, csv),
                         (read_contexts, contexts), (read_traced, traced), (read_eval, evals)]:
        try:
            reader(path)
        except SchemaError as exc:  # a line of the file, or where a missing one belongs
            assert 0 <= exc.line_no <= len(path.read_bytes().splitlines()) + 1
        except CtxTraceError:
            pass


def _named(problems):
    return [(Path(p.path).name, p.line_no, p.message) for p in problems]


def _append_lines(path, *lines):
    with open(path, "ab") as fh:
        fh.write(b"".join(line + b"\n" for line in lines))


def _damage_traced(run):
    """traced.jsonl with an unknown subset on line 2, a line that is not JSON
    on line 3 and an unknown key on line 4."""
    path = run["traced.jsonl"]
    _edit_jsonl(path, 2, lambda obj: obj.update(subset="XYZ"))
    _edit_jsonl(path, 4, lambda obj: obj.update(surprise=True))
    lines = path.read_text().splitlines()
    lines[2] = "not json"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_damaged_rows_are_problems_before_the_cross_file_checks(run):
    _damage_traced(run)
    problems = validate_files([run["contexts.jsonl"], run["traced.jsonl"],
                               run["eval.jsonl"], run["report.csv"]])
    assert _named(problems) == [
        ("traced.jsonl", 2, "field 'subset' has unknown value 'XYZ'"),
        ("traced.jsonl", 3, "invalid JSON: Expecting value"),
        ("traced.jsonl", 4, "keys differ from a traced row's by ['surprise']"),
        ("eval.jsonl", 2, "eval record for unknown example 'q01'"),
        ("eval.jsonl", 3, "eval record for unknown example 'q02'"),
        ("eval.jsonl", 4, "eval record for unknown example 'q03'"),
        ("report.csv", 3, "report row for empty subset 'AIG'"),
        ("report.csv", 4, "report row for empty subset 'AIR'"),
        ("report.csv", 5, "report row for empty subset 'ALL'"),
    ]


def test_a_byte_that_is_not_utf8_past_the_first_block_loads_nothing(run):
    # The rows before the bad byte decode and load first; as in a file read
    # whole, only its unparsable lines and the bad byte are problems, and
    # none of its rows reaches the cross-file checks.
    path = _damage_traced(run)
    _append_lines(path, b" " * 9000, b'{"id":"q\xff5"}')
    problems = validate_files([run["contexts.jsonl"], path, run["eval.jsonl"]])
    assert _named(problems) == [
        ("traced.jsonl", 3, "invalid JSON: Expecting value"),
        ("traced.jsonl", 7, "not UTF-8: invalid start byte at byte 9 of the line"),
    ]


def test_repeated_keys_within_and_across_files(run, tmp_path):
    path = run["traced.jsonl"]
    repeat = _repeat_line(path, 3)
    copy = tmp_path / "more.jsonl"  # the header and q01's row
    copy.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
    problems = validate_files([copy, run["contexts.jsonl"], path, run["eval.jsonl"]])
    assert _named(problems) == [
        ("traced.jsonl", repeat, "duplicate traced id 'q02'"),
        ("traced.jsonl", 2, "duplicate traced id 'q01'"),
    ]


@pytest.mark.parametrize("contexts_first", [True, False])
def test_traced_contexts_are_compared_whichever_file_comes_first(run, contexts_first):
    traced, contexts = run["traced.jsonl"], run["contexts.jsonl"]
    _edit_jsonl(traced, 2, lambda obj: obj["generated"].update(
        text=obj["generated"]["text"].replace("second", "third")))
    _edit_jsonl(traced, 3, lambda obj: obj["retrieved"].update(title="Another"))
    _edit_jsonl(contexts, 2, lambda obj: obj.update(word_count=1))
    problems = validate_files([contexts, traced] if contexts_first else [traced, contexts])
    contexts_row = ("contexts.jsonl", 2, "stored word_count 1 != recomputed 22")
    differ = [("traced.jsonl", 2, "retrieved context differs from the contexts row of 'q01'"),
              ("traced.jsonl", 2, "generated context differs from the contexts row of 'q01'"),
              ("traced.jsonl", 3, "retrieved context differs from the contexts row of 'q02'")]
    assert _named(problems) == [contexts_row] + differ


def _lengthen_texts(path, times):
    """Make every context text in *path* *times* as long, with its word count."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    for row in rows:
        for context in (row, row.get("retrieved"), row.get("generated")):
            if isinstance(context, dict) and "text" in context:
                context["text"] = " ".join([context["text"]] * times)
                context["word_count"] *= times
    path.write_text("\n".join([header] + [json.dumps(row, ensure_ascii=False, separators=(",", ":"))
                                          for row in rows]) + "\n", encoding="utf-8")


def test_validate_memory_tracks_keys_not_text(tmp_path):
    # Rows are read one at a time and only per-key state outlives a row, so
    # texts eight times as long must barely move the peak of a first pass.
    world = WorldBuilder(tmp_path)
    for n in range(40):
        world.add_case(f"q{n:02d}", outcome=("AIG", "AIR", "not_in_ret")[n % 3],
                       hybrid_pick=("gen", "ret", "other")[n % 3])
    world.write()
    paths = _finish_run(tmp_path, world)

    def peak_and_bytes():
        files = list(paths.values())
        tracemalloc.start()
        try:
            assert validate_files(files) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sum(path.stat().st_size for path in files)

    short_peak, short_bytes = peak_and_bytes()
    _lengthen_texts(paths["contexts.jsonl"], 8)
    _lengthen_texts(paths["traced.jsonl"], 8)
    long_peak, long_bytes = peak_and_bytes()
    assert long_peak - short_peak < 0.25 * (long_bytes - short_bytes)


def test_problems_hold_no_row_of_the_read(run):
    # A problem is the reader's own SchemaError, kept without the frames it
    # was raised through, which hold the row that failed to load.
    path = run["traced.jsonl"]
    _lengthen_texts(path, 100)
    for line in range(2, 6):
        _edit_jsonl(path, line, lambda obj: obj.update(subset="XYZ"))
    tracemalloc.start()
    try:
        problems = validate_files([path])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [p.line_no for p in problems] == [2, 3, 4, 5]
    assert held < 0.05 * path.stat().st_size


def test_a_miscount_is_reported_in_both_files_that_share_it(run):
    # The traced context equals its contexts row, wrong count and all.
    traced, contexts = run["traced.jsonl"], run["contexts.jsonl"]
    _edit_jsonl(contexts, 2, lambda obj: obj.update(word_count=1))
    _edit_jsonl(traced, 2, lambda obj: obj["retrieved"].update(word_count=1))
    assert _named(validate_files([contexts, traced])) == [
        ("contexts.jsonl", 2, "stored word_count 1 != recomputed 22"),
        ("traced.jsonl", 2, "stored word_count 1 != recomputed 22"),
    ]


def test_a_context_text_may_hold_a_lone_surrogate(run):
    # JSON may escape a lone surrogate; it is text like any other.
    def replace(path, old, new, pick=lambda obj: obj):
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        pick(obj)["text"] = pick(obj)["text"].replace(old, new)
        lines[1] = json.dumps(obj)  # ASCII, the surrogate escaped
        path.write_text("\n".join(lines) + "\n")
    contexts, traced = run["contexts.jsonl"], run["traced.jsonl"]
    replace(contexts, "ledger", "led\ud800ger")
    replace(traced, "ledger", "led\ud800ger", lambda obj: obj["retrieved"])
    assert validate_files([contexts, traced]) == []
    replace(traced, "\ud800", "\udc00", lambda obj: obj["retrieved"])
    assert _named(validate_files([contexts, traced])) == [
        ("traced.jsonl", 2, "retrieved context differs from the contexts row of 'q01'")]


def test_the_full_ordered_output_of_a_damaged_multi_file_set(run, tmp_path):
    # Each file's own problems come in path order, its unparsable lines and
    # load failures by line, then its row checks; the cross-file findings
    # follow.  The stale copy fails on a byte past the rows it loaded, so it
    # adds no manifest hash (its own differs) and no traced id (each would
    # repeat one of traced.jsonl's).
    contexts, traced, evals, report = (run[name] for name in
                                       ("contexts.jsonl", "traced.jsonl", "eval.jsonl",
                                        "report.csv"))
    stale = tmp_path / "stale.jsonl"
    lines = traced.read_text().splitlines()
    lines[0] = json.dumps({"_manifest": "0123456789abcdef", "seed": 4})
    lines[2] = "{not json"
    stale.write_text("\n".join(lines) + "\n")
    _append_lines(stale, b" " * 9000, b'{"id":"q\xff5"}')
    _edit_jsonl(contexts, 2, lambda obj: obj.update(word_count=1))
    _edit_jsonl(traced, 3, lambda obj: obj.update(subset="AIG"))
    _edit_jsonl(evals, 2, lambda obj: obj.update(surprise=True))
    _append_lines(evals, b"[1, 2]")
    aig = next(n for n, line in enumerate(report.read_text().splitlines(), 1)
               if line.startswith("AIG,"))
    _edit_csv_cell(report, aig, 1, "many")
    missing = tmp_path / "absent.jsonl"
    paths = [contexts, missing, stale, traced, evals, report]
    recount = [f"subset ALL: stored {col} != recount {fresh}" for col, fresh in (
        ("n 3", 2), ("rho_gen 0.333333", 0.0), ("rho_ret 0.333333", 0.5),
        ("others 0.333333", 0.5), ("diff_gr 0.0", -1.0), ("em_percent 66.6667", 50.0))]
    expected = [
        (contexts, 2, "stored word_count 1 != recomputed 22"),
        (missing, 0, "missing file"),
        (stale, 3, "invalid JSON: Expecting property name enclosed in double quotes"),
        (stale, 7, "not UTF-8: invalid start byte at byte 9 of the line"),
        (traced, 3, "stored subset 'AIG', dropped None != recomputed 'AIR', None"),
        (evals, 2, "unrecognized row shape"),
        (evals, 5, "expected a JSON object"),
        # The AIG row failed to load, so ALL's n is not summed from the rest.
        (report, aig, "column 'n': 'many' is not a valid int"),
        (traced, 2, "retrieved context differs from the contexts row of 'q01'"),
        (evals, 0, "no eval record for live example 'q01'"),
        (report, 4, "report row for empty subset 'AIR'"),
        *((report, 5, message) for message in recount),
    ]
    assert [str(p) for p in validate_files(paths)] == [
        f"{path}:{line}: {message}" for path, line, message in expected]
