"""File re-verification: every stored claim gets recomputed and compared."""
from __future__ import annotations

import json

import pytest

from ctxtrace.analysis import read_sim_csv, run_sim, run_slices
from ctxtrace.backends import BackendSpec, KeyedRetriever
from ctxtrace.jsonl import read_csv
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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_report_cell_is_a_problem(run, cell):
    # A NaN share once passed both the proportions sum and the recount.
    path = run["report.csv"]
    _edit_csv_cell(path, 3, 5, cell)  # others
    problems = validate_files(list(run.values()))
    assert [(p.line, p.message) for p in problems] == [
        (3, f"column 'others': {cell!r} is not finite")]


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
    assert by_path[str(sim)].line == 3 and "'sim_gen'" in by_path[str(sim)].message
    assert by_path[str(slices)].line == 3 and "'slice_index'" in by_path[str(slices)].message


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
    assert len(problems) == 1 and problems[0].line == 2
    assert "'answers'" in problems[0].message


SIM_HEADER = ("# manifest=feedbead12345678 seed=4\n"
              "example_id,sim_gen,sim_ret,metric,aggregation,delta_sim\n")


def test_csv_problems_name_their_line_after_a_blank_line(tmp_path):
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "\nq01,0.5,0.5,jaccard,max,0.0\nq02,high,0.5,jaccard,max,0.0\n")
    problems = validate_files([sim])
    assert [(p.line, "'sim_gen'" in p.message) for p in problems] == [(5, True)]


def test_every_malformed_row_is_a_problem_with_one_prefix(tmp_path):
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "\nq01,0.5,0.5,jaccard,max,0.0\nq02,high,0.5,jaccard,max,0.0\n"
                                "q03,0.5,low,jaccard,max,0.0\n")
    problems = validate_files([sim])
    assert [p.line for p in problems] == [5, 6]
    for problem in problems:
        assert str(problem) == f"{sim}:{problem.line}: {problem.message}"
        assert str(sim) not in problem.message


def test_every_malformed_jsonl_row_is_a_problem(run):
    path = run["traced.jsonl"]

    def unknown_subset(obj):
        obj["subset"] = "XYZ"
    _edit_jsonl(path, 2, unknown_subset)
    _edit_jsonl(path, 4, unknown_subset)
    problems = validate_files([path])
    assert [(p.line, "'subset'" in p.message) for p in problems] == [(2, True), (4, True)]


def test_every_unparsable_jsonl_line_is_a_problem(run):
    path = run["eval.jsonl"]

    def bogus_order(obj):
        obj["order"] = "bogus"
    _edit_jsonl(path, 4, bogus_order)
    lines = path.read_text().splitlines()
    lines[2] = "not json"
    path.write_text("\n".join(lines + ["[1, 2]"]) + "\n")
    by_line = {p.line: p.message for p in validate_files([path])}
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
    assert [(p.path, p.line, p.message) for p in problems] == [
        (str(contexts), contexts_line, "duplicate context id 'q01', source 'retrieved'"),
        (str(report), report_line, "duplicate report subset 'AIG'"),
        (str(sim), sim_line, "duplicate sim example_id 'q01'"),
    ]


def test_a_traced_id_repeated_across_files_is_one_problem_per_repeat(run, tmp_path):
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(run["traced.jsonl"].read_bytes())
    rows = len(copy.read_text().splitlines()) - 1
    problems = validate_files([run["traced.jsonl"], copy])
    assert [(p.path, p.line) for p in problems] == [(str(copy), n) for n in range(2, rows + 2)]
    assert all(p.message.startswith("duplicate traced id ") for p in problems)


def test_problems_of_one_file_come_out_in_line_order(run):
    path = run["eval.jsonl"]

    def bogus_order(obj):
        obj["order"] = "bogus"
    _edit_jsonl(path, 3, bogus_order)
    lines = path.read_text().splitlines()
    lines[3] = "not json"
    path.write_text("\n".join(lines) + "\n")
    assert [p.line for p in validate_files([path])] == [3, 4]


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
    assert [(p.line, p.message.split(":")[0]) for p in problems] == [
        (2, "unrecognized columns ['subset', 'n', 'surprise']"),
        (0, "mixed manifest hashes across inputs")]


def test_sim_rows_need_live_traced_samples(run, tmp_path):
    # q01 is live, q04 abstained, q99 was never traced.
    sim = tmp_path / "sim.csv"
    sim.write_text(SIM_HEADER + "q01,0.5,0.5,jaccard,max,0.0\nq04,0.5,0.5,jaccard,max,0.0\n"
                                "q99,0.5,0.5,jaccard,max,0.0\n")
    problems = validate_files([sim, run["traced.jsonl"]])
    assert [(p.path, p.line, p.message) for p in problems] == [
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
    assert [(p.line, p.message) for p in validate_files([sim])] == [
        (10, "column 'sim_gen': 'nan' is not finite"),
        (11, "column 'delta_sim': 'inf' is not finite"),
        (7, "stored delta_sim 0.5 != recomputed 0.333333"),
        (8, "jaccard similarity out of range [0, 1]"),
        (9, "stored delta_sim 0.2 != recomputed 0.000000"),
    ]


@pytest.fixture
def sliced(tmp_path):
    """A finished run plus its sim.csv and slices.csv, made as `analyze` makes them."""
    world = WorldBuilder(tmp_path)
    picks = ["gen", "ret", "ret", "gen", "gen", "ret"]
    for i, pick in enumerate(picks, 1):
        world.add_case(f"q{i:02d}", outcome="AIG" if i % 2 else "AIR", hybrid_pick=pick)
    world.write()
    paths = _finish_run(tmp_path, world)
    paths["sim.csv"], paths["slices.csv"] = tmp_path / "sim.csv", tmp_path / "slices.csv"
    _, samples = read_traced(paths["traced.jsonl"])
    run_sim(samples, "ALL", "jaccard", "max", None, paths["sim.csv"], "feedbead12345678", 4)
    _, _, sims = read_sim_csv(paths["sim.csv"])
    _, records = read_eval(paths["eval.jsonl"])
    run_slices(sims, records, 3, paths["slices.csv"], "feedbead12345678", 4)
    return paths


def _slice_problems(sliced):
    return [(p.line, p.message) for p in validate_files(list(sliced.values()))
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

