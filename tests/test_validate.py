"""File re-verification: every stored claim gets recomputed and compared."""
from __future__ import annotations

import json

import pytest

from ctxtrace.backends import BackendSpec, KeyedRetriever
from ctxtrace.pipeline import (
    Generator,
    PromptSet,
    Reader,
    read_contexts,
    read_questions,
    run_evaluate,
    run_prepare,
    run_trace,
)
from ctxtrace.validate import Problem, validate_files

from .conftest import WorldBuilder

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
    assert str(Problem("out/x.jsonl", 7, "bad row")) == "out/x.jsonl:7: bad row"


def test_missing_file_is_a_problem(tmp_path):
    missing = tmp_path / "nope.jsonl"
    problems = validate_files([missing])
    assert len(problems) == 1
    assert problems[0].line == 0
    assert "missing file" in problems[0].message


def test_word_count_recount(run):
    path = run["contexts.jsonl"]

    def bump(obj):
        obj["word_count"] += 3
    _edit_jsonl(path, 2, bump)
    problems = validate_files([path])
    assert len(problems) == 1
    assert problems[0].path == str(path)
    assert problems[0].line == 2
    assert "word_count" in problems[0].message


def test_subset_label_recomputed(run):
    path = run["traced.jsonl"]

    def flip(obj):
        assert obj["subset"] == "AIG"
        obj["subset"] = "AIR"
    _edit_jsonl(path, 2, flip)
    problems = validate_files([path])
    assert any("stored subset 'AIR'" in p.message and p.line == 2 for p in problems)


def test_containment_recomputed(run):
    path = run["traced.jsonl"]

    def detach(obj):
        obj["answer_from_generated"] = "absent-token"
    _edit_jsonl(path, 2, detach)
    problems = validate_files([path])
    assert any("not contained in the generated context" in p.message for p in problems)


def test_dropped_rows_skip_containment_checks(run):
    # q04 abstained; its stored answers are not checked for containment.
    problems = validate_files([run["traced.jsonl"]])
    assert problems == []


def test_duplicate_traced_id(run):
    path = run["traced.jsonl"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[2]]) + "\n")
    problems = validate_files([path])
    assert any("duplicate traced id" in p.message and p.line == len(lines) + 1
               for p in problems)


def test_classification_recomputed(run):
    path = run["eval.jsonl"]

    def flip(obj):
        assert obj["classification"] == "gen"
        obj["classification"] = "ret"
    _edit_jsonl(path, 2, flip)
    problems = validate_files([run["traced.jsonl"], path, run["report.csv"]])
    assert any("stored classification 'ret'" in p.message and p.line == 2
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
    assert any("record seed 5 != header seed 4" in p.message and p.line == 3
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
    assert any("stored diff_gr" in p.message and p.line == 3 for p in problems)


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
