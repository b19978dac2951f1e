"""Command line behavior: flags, stage chaining, exit codes, and notes."""
from __future__ import annotations

import json
import re

import pytest

from ctxtrace.analysis import read_sim_csv
from ctxtrace.config import config_hash, load_config
from ctxtrace.errors import SchemaError, ValidationError
from ctxtrace.jsonl import read_csv, read_output_jsonl

from .conftest import write_jsonl

MANIFEST_RE = re.compile(r"\(manifest ([0-9a-f]{16})\)")


def _manifest_of(stdout):
    match = MANIFEST_RE.search(stdout)
    assert match, stdout
    return match.group(1)


def _standard_world(world):
    world.add_case("q01", outcome="AIG", hybrid_pick="gen")
    world.add_case("q02", outcome="AIR", hybrid_pick="ret")
    world.add_case("q03", outcome="AIG", hybrid_pick="other")
    world.add_case("q04", outcome="both")
    world.add_case("q05", outcome="abstained_gen")
    world.add_case("q06", outcome="not_in_ret")
    return world.write()


# ---------------------------------------------------------------------------
# parsing and exit codes


def test_version_and_help(run_cli):
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.startswith("ctxtrace ")
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "prepare" in out and "validate" in out


def test_usage_errors_exit_1(run_cli, tmp_path):
    code, _, err = run_cli()
    assert code == 1
    assert "usage error" in err
    code, _, err = run_cli("prepare", "--bogus-flag", "x")
    assert code == 1
    code, _, err = run_cli("prepare", "--questions", str(tmp_path / "q.jsonl"))
    assert code == 1  # --out is required
    code, _, err = run_cli("analyze")
    assert code == 1


def test_missing_input_exits_3(run_cli, tmp_path):
    code, _, err = run_cli("prepare", "--questions", str(tmp_path / "absent.jsonl"),
                           "--out", str(tmp_path / "c.jsonl"),
                           "--retriever.kind", "golden",
                           "--retriever.gold_path", str(tmp_path / "also-absent.jsonl"))
    assert code == 3
    assert "ctxtrace: error:" in err


def test_bad_order_value_exits_3(run_cli, world, tmp_path):
    _standard_world(world)
    code, _, err = run_cli("prepare", "--questions", world.questions_path,
                           "--out", str(tmp_path / "c.jsonl"),
                           "--order", "alphabetical", *world.config_args())
    assert code == 3
    assert "order" in err


def test_backend_misses_exit_2(run_cli, world, tmp_path):
    _standard_world(world)
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    run_cli("trace", "--questions", world.questions_path,
            "--contexts", world.path("contexts.jsonl"),
            "--out", world.path("traced.jsonl"), *world.config_args())
    # A reader script with no hybrid replies cannot serve evaluate.
    rows = [json.loads(line) for line in
            open(world.reader_path, encoding="utf-8")]
    gutted = write_jsonl(tmp_path / "gutted.jsonl",
                         [r for r in rows if r["mode"] != "hybrid"])
    code, _, err = run_cli("evaluate", "--traced", world.path("traced.jsonl"),
                           "--out", world.path("eval.jsonl"),
                           *world.config_args(),
                           "--reader.script_path", gutted)
    assert code == 2
    assert "ctxtrace: error:" in err


# ---------------------------------------------------------------------------
# stage chaining


def test_full_stage_chain(run_cli, world):
    _standard_world(world)
    code, out, err = run_cli("prepare", "--questions", world.questions_path,
                             "--out", world.path("contexts.jsonl"),
                             *world.config_args())
    assert code == 0, err
    assert "prepared 6 questions" in out
    assert "mean words: retrieved" in out
    assert "answer recall:" in out
    manifest = _manifest_of(out)

    code, out, err = run_cli("trace", "--questions", world.questions_path,
                             "--contexts", world.path("contexts.jsonl"),
                             "--out", world.path("traced.jsonl"),
                             *world.config_args())
    assert code == 0, err
    assert _manifest_of(out) == manifest
    assert "traced 6 questions" in out
    assert "kept 3 conflicting samples: AIG 2, AIR 1" in out
    assert "dropped 2: abstained_gen 1, not_in_ret 1" in out
    assert "non-exclusive (answer in both or neither): 1" in out
    assert err == ""  # same config, so no manifest note

    code, out, err = run_cli("evaluate", "--traced", world.path("traced.jsonl"),
                             "--out", world.path("eval.jsonl"),
                             *world.config_args())
    assert code == 0, err
    assert _manifest_of(out) == manifest
    aig_line = next(line for line in out.splitlines() if line.startswith("AIG:"))
    assert "n=2" in aig_line and "rho_llm=-" in aig_line

    # The report lands next to eval.jsonl by default.
    report_path = world.path("report.csv")
    _, _, columns, rows = read_csv(report_path)
    assert [row[0] for row in rows] == ["AIG", "AIR", "ALL"]

    code, out, _ = run_cli("report", report_path)
    assert code == 0
    assert out.startswith("## Exact match")
    assert "## Answer origin" in out

    code, out, err = run_cli("validate", world.path("contexts.jsonl"),
                             world.path("traced.jsonl"), world.path("eval.jsonl"),
                             report_path)
    assert code == 0, err
    assert out.strip() == "ok: 4 file(s) clean"


def test_evaluate_explicit_report_path(run_cli, world, tmp_path):
    _standard_world(world)
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    run_cli("trace", "--questions", world.questions_path,
            "--contexts", world.path("contexts.jsonl"),
            "--out", world.path("traced.jsonl"), *world.config_args())
    report = tmp_path / "elsewhere" / "named.csv"
    report.parent.mkdir()
    code, _, err = run_cli("evaluate", "--traced", world.path("traced.jsonl"),
                           "--out", world.path("eval.jsonl"),
                           "--report", str(report), *world.config_args())
    assert code == 0, err
    assert report.is_file()


def test_trace_parametric_flag(run_cli, world):
    world.add_case("q01", outcome="AIG", hybrid_pick="gen")
    world.add_case("q02", outcome="parametric")
    world.write()
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    code, out, _ = run_cli("trace", "--questions", world.questions_path,
                           "--contexts", world.path("contexts.jsonl"),
                           "--out", world.path("traced.jsonl"),
                           "--parametric", *world.config_args())
    assert code == 0
    assert "kept 1 conflicting samples: AIG 1, AIR 0" in out
    assert "dropped 1: parametric 1" in out


def test_manifest_note_on_config_drift(run_cli, world):
    _standard_world(world)
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    code, _, err = run_cli("trace", "--questions", world.questions_path,
                           "--contexts", world.path("contexts.jsonl"),
                           "--out", world.path("traced.jsonl"),
                           "--seed", "99", *world.config_args())
    assert code == 0  # drift is noted, not fatal
    assert "note:" in err and "carries manifest" in err


# ---------------------------------------------------------------------------
# config flags


def test_alias_and_dotted_flag_agree(run_cli, world):
    _standard_world(world)
    manifests = []
    for flag in ("--length_candidates", "--length-candidates"):
        code, out, err = run_cli("prepare", "--questions", world.questions_path,
                                 "--out", world.path(f"c{len(manifests)}.jsonl"),
                                 flag, "80,100", *world.config_args())
        assert code == 0, err
        manifests.append(_manifest_of(out))
    assert manifests[0] == manifests[1]


def test_flags_beat_config_file(run_cli, world, tmp_path):
    _standard_world(world)
    cfg_doc = {"seed": 7, "retriever": {"kind": "golden", "gold_path": world.gold_path},
               "reader": {"script_path": world.reader_path},
               "generator": {"script_path": world.gen_path}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    code, out, err = run_cli("prepare", "--questions", world.questions_path,
                             "--out", world.path("c.jsonl"),
                             "--config", str(cfg_path), "--seed", "9")
    assert code == 0, err
    expected = load_config(cfg_path, {"seed": "9"})
    assert expected.seed == 9
    assert _manifest_of(out) == config_hash(expected)


def test_order_flag_accepts_hyphens(run_cli, world):
    _standard_world(world)
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    run_cli("trace", "--questions", world.questions_path,
            "--contexts", world.path("contexts.jsonl"),
            "--out", world.path("traced.jsonl"), *world.config_args())
    code, _, err = run_cli("evaluate", "--traced", world.path("traced.jsonl"),
                           "--out", world.path("eval.jsonl"),
                           "--order", "generated-first", *world.config_args())
    assert code == 0, err


def test_prepare_with_ingested_retrieval(run_cli, world, tmp_path):
    _standard_world(world)
    hits = [dict(row, score=0.5) for row in world.annotations]
    results = write_jsonl(tmp_path / "results.jsonl", hits)
    scripts = ["--reader.script_path", world.reader_path,
               "--generator.script_path", world.gen_path]
    code, _, err = run_cli("prepare", "--questions", world.questions_path,
                           "--out", world.path("ingest.jsonl"),
                           "--retriever.kind", "ingest", "--retriever.results_path", results,
                           *scripts)
    assert code == 0, err
    code, _, err = run_cli("prepare", "--questions", world.questions_path,
                           "--out", world.path("golden.jsonl"), *world.config_args())
    assert code == 0, err
    assert open(world.path("ingest.jsonl"), encoding="utf-8").read().count(
        '"backend":"ingest"') == len(hits)
    # Same passages as the gold run; only the retrieved backend name differs.
    _, ingested = read_output_jsonl(world.path("ingest.jsonl"))
    _, golden = read_output_jsonl(world.path("golden.jsonl"))
    for (_, got), (_, want) in zip(ingested, golden):
        if want["source"] == "retrieved":
            assert (want["backend"], got["backend"]) == ("golden", "ingest")
            want = dict(want, backend="ingest")
        assert got == want

    duplicated = write_jsonl(tmp_path / "dup.jsonl", hits + hits[:1])
    code, _, err = run_cli("prepare", "--questions", world.questions_path,
                           "--out", world.path("dup_contexts.jsonl"),
                           "--retriever.kind", "ingest",
                           "--retriever.results_path", duplicated, *scripts)
    assert code == 3
    assert f"{duplicated}:{len(hits) + 1}: duplicate retrieval hit" in err


def _replace_cell(path, line_no, column, value):
    lines = open(path, encoding="utf-8").read().splitlines()
    cells = lines[line_no - 1].split(",")
    cells[column] = value
    lines[line_no - 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_malformed_report_cell_is_a_validation_failure(run_cli, world):
    _traced_world(run_cli, world)
    report = world.path("report.csv")
    _replace_cell(report, 4, 1, "x")
    code, out, err = run_cli("validate", report)
    assert code == 3
    assert f"{report}:4:" in out
    assert "'n'" in out and "'x'" in out
    code, _, err = run_cli("report", report)
    assert code == 3
    assert f"{report}:4:" in err


# ---------------------------------------------------------------------------
# analyses


def _traced_world(run_cli, world):
    _standard_world(world)
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    run_cli("trace", "--questions", world.questions_path,
            "--contexts", world.path("contexts.jsonl"),
            "--out", world.path("traced.jsonl"), *world.config_args())
    run_cli("evaluate", "--traced", world.path("traced.jsonl"),
            "--out", world.path("eval.jsonl"), *world.config_args())


def test_analyze_sim_and_slices(run_cli, world):
    # Hybrid picks stay on gen/ret so diff_gr is defined in every slice.
    world.add_case("q01", outcome="AIG", hybrid_pick="gen")
    world.add_case("q02", outcome="AIR", hybrid_pick="ret")
    world.add_case("q03", outcome="AIG", hybrid_pick="ret")
    world.write()
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    run_cli("trace", "--questions", world.questions_path,
            "--contexts", world.path("contexts.jsonl"),
            "--out", world.path("traced.jsonl"), *world.config_args())
    run_cli("evaluate", "--traced", world.path("traced.jsonl"),
            "--out", world.path("eval.jsonl"), *world.config_args())
    code, out, err = run_cli("analyze", "sim", "--traced", world.path("traced.jsonl"),
                             "--out", world.path("sim.csv"), "--subset", "ALL",
                             *world.config_args())
    assert code == 0, err
    assert "wrote 3 similarity rows" in out
    code, out, err = run_cli("analyze", "slices", "--sim", world.path("sim.csv"),
                             "--eval", world.path("eval.jsonl"),
                             "--out", world.path("slices.csv"),
                             "--slices", "3", *world.config_args())
    assert code == 0, err
    assert "wrote 3 slices" in out
    assert len([l for l in out.splitlines() if l.startswith("slice ")]) == 3
    # --slices changes the resolved config, so the drift note fires.
    assert "carries manifest" in err


def test_malformed_sim_cell_is_a_validation_failure(run_cli, world):
    _traced_world(run_cli, world)
    sim = world.path("sim.csv")
    code, _, err = run_cli("analyze", "sim", "--traced", world.path("traced.jsonl"),
                           "--out", sim, "--subset", "ALL", *world.config_args())
    assert code == 0, err
    _replace_cell(sim, 3, 1, "high")
    with pytest.raises(SchemaError) as exc:
        read_sim_csv(sim)
    assert exc.value.line_no == 3
    assert "'sim_gen'" in str(exc.value)
    code, _, err = run_cli("analyze", "slices", "--sim", sim,
                           "--eval", world.path("eval.jsonl"),
                           "--out", world.path("slices.csv"), *world.config_args())
    assert code == 3
    assert f"{sim}:3:" in err


def test_analyze_sim_external_scores(run_cli, world, tmp_path):
    _traced_world(run_cli, world)
    live = ("q01", "q02", "q03")
    scores = write_jsonl(tmp_path / "scores.jsonl", [
        {"example_id": qid, "key": key, "score": 0.5}
        for qid in live for key in ("generated", "retrieved")])
    code, out, err = run_cli("analyze", "sim", "--traced", world.path("traced.jsonl"),
                             "--out", world.path("sim.csv"), "--subset", "ALL",
                             "--sim-metric", "external", "--scores", scores,
                             *world.config_args())
    assert code == 0, err
    _, _, _, rows = read_csv(world.path("sim.csv"))
    assert all(row[3] == "external" for row in rows)


def test_analyze_order(run_cli, world):
    _traced_world(run_cli, world)
    code, out, err = run_cli("analyze", "order", "--traced", world.path("traced.jsonl"),
                             "--out", world.path("order.csv"), "--subset", "AIG",
                             *world.config_args())
    assert code == 0, err
    assert "wrote order sweep" in out
    for order in ("generated_first", "retrieved_first", "random"):
        assert f"{order}: rho_gen=" in out


def test_analyze_completeness(run_cli, world, tmp_path):
    gold = "gq01"
    unconstrained = (f"Every chronicle agrees that {gold} settled the matter of q01. "
                     f"The point was revisited often. Scholars kept arguing about "
                     f"the framing for many further decades without reaching anything.")
    world.add_case("q01", outcome="AIG", hybrid_pick="gen",
                   unconstrained=unconstrained)
    world.write()
    run_cli("prepare", "--questions", world.questions_path,
            "--out", world.path("contexts.jsonl"), *world.config_args())
    run_cli("trace", "--questions", world.questions_path,
            "--contexts", world.path("contexts.jsonl"),
            "--out", world.path("traced.jsonl"), *world.config_args())
    scores = write_jsonl(tmp_path / "scores.jsonl", [
        {"example_id": "q01", "key": key, "score": 0.7}
        for key in ("nature", "trunc", "strunc")])
    code, out, err = run_cli("analyze", "completeness",
                             "--traced", world.path("traced.jsonl"),
                             "--out", world.path("completeness.csv"),
                             "--subset", "AIG", "--sim-metric", "external",
                             "--scores", scores, "--order", "generated-first",
                             *world.config_args())
    assert code == 0, err
    assert "wrote completeness sweep" in out
    _, _, _, rows = read_csv(world.path("completeness.csv"))
    assert [row[0] for row in rows] == ["nature", "strunc", "trunc"]


def test_validate_cli_reports_problems(run_cli, world):
    _traced_world(run_cli, world)
    traced = world.path("traced.jsonl")
    lines = open(traced, encoding="utf-8").read().splitlines()
    row = json.loads(lines[1])
    row["subset"] = "AIR" if row["subset"] == "AIG" else "AIG"
    lines[1] = json.dumps(row)
    with open(traced, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    code, out, err = run_cli("validate", traced)
    assert code == 3
    assert f"{traced}:2:" in out
    assert "problem(s)" in err


# ---------------------------------------------------------------------------
# config loading (library-level checks backing the flags)


def test_load_config_rejects_unknown_fields(tmp_path):
    bad = tmp_path / "c.json"
    bad.write_text('{"speed": 3}')
    with pytest.raises(ValidationError):
        load_config(bad)
    nested = tmp_path / "n.json"
    nested.write_text('{"retriever": {"fuzz": 1}}')
    with pytest.raises(ValidationError):
        load_config(nested)
    broken = tmp_path / "b.json"
    broken.write_text("{nope")
    with pytest.raises(ValidationError):
        load_config(broken)
    with pytest.raises(ValidationError):
        load_config(tmp_path / "missing.json")


def _cfg(**extra):
    overrides = {"reader.script_path": "reader.jsonl",
                 "generator.script_path": "gen.jsonl"}
    overrides.update(extra)
    return load_config(None, overrides)


def test_load_config_coerces_override_strings():
    cfg = _cfg(**{"seed": "12", "workers": "3",
                  "length_candidates": "60, 90",
                  "abstention_set": "unknown, none given",
                  "match_threshold": "0.1"})
    assert cfg.seed == 12
    assert cfg.workers == 3
    assert cfg.length_candidates == (60, 90)
    assert cfg.abstention_set == ("unknown", "none given")
    assert cfg.match_threshold == 0.1
    with pytest.raises(ValidationError):
        _cfg(seed="twelve")
    with pytest.raises(ValidationError):
        _cfg(**{"nonsense.flag": "1"})


def test_config_hash_tracks_content():
    base = _cfg()
    assert config_hash(base) == config_hash(_cfg())
    assert config_hash(_cfg(seed="1")) != config_hash(base)
    assert config_hash(_cfg(**{"retriever.k1": "0.9"})) != config_hash(base)
    assert re.fullmatch(r"[0-9a-f]{16}", config_hash(base))


def test_config_hash_is_pinned():
    # Frozen values: any drift in defaults, field names or the hashed
    # document changes every manifest stamped into existing outputs.
    golden = load_config(None, {"reader.script_path": "r.jsonl",
                                "generator.script_path": "g.jsonl",
                                "retriever.kind": "golden",
                                "retriever.gold_path": "gold.jsonl"})
    assert config_hash(golden) == "b44a186595a7f7e5"
    http = load_config(None, {"reader.kind": "http", "reader.endpoint": "http://x",
                              "reader.model_name": "m",
                              "generator.script_path": "g.jsonl",
                              "retriever.corpus_path": "c.jsonl",
                              "length_candidates": "50,60",
                              "abstention_set": "no, idk",
                              "seed": "7", "retriever.k1": "0.9"})
    assert config_hash(http) == "1cde145737c59c50"
