"""Command line behavior: flags, stage chaining, exit codes, and notes."""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

from ctxtrace.analysis import read_sim_csv
from ctxtrace.cli import build_parser
from ctxtrace.config import CONFIG_FIELDS, coerce_override, config_hash, load_config
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


@pytest.mark.parametrize("data, message", [
    (b'{"seed": 1}\n{"\xff": 1}\n', ":2: not UTF-8"),
    (b"[" * 100_000, "invalid JSON: nested too deeply"),
], ids=["not-utf8", "too-deep"])
@pytest.mark.parametrize("flag", ["--questions", "--config"])
def test_an_input_json_cannot_read_exits_3(run_cli, world, tmp_path, flag, data, message):
    _standard_world(world)
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    inputs = {"--questions": world.questions_path, flag: str(bad)}
    code, _, err = run_cli("prepare", *[arg for pair in inputs.items() for arg in pair],
                           "--out", world.path("c.jsonl"), *world.config_args())
    assert code == 3
    assert err.startswith(f"ctxtrace: error: {bad}") and message in err


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
            Path(world.reader_path).read_text(encoding="utf-8").splitlines()]
    gutted = write_jsonl(tmp_path / "gutted.jsonl",
                         [r for r in rows if r["mode"] != "hybrid"])
    code, _, err = run_cli("evaluate", "--traced", world.path("traced.jsonl"),
                           "--out", world.path("eval.jsonl"),
                           *world.config_args(),
                           "--reader.script_path", gutted)
    assert code == 2
    assert "ctxtrace: error:" in err


def _subcommand(parser, *names):
    for name in names:
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subparsers.choices[name]
    return parser


PATH = (True, None)  # a required path flag
SUBSET = (False, "AIR")
# Each stage's own flags, in order, as (required, default); the config flags follow.
STAGE_FLAGS = {
    ("prepare",): {"--questions": PATH, "--out": PATH},
    ("trace",): {"--questions": PATH, "--contexts": PATH, "--out": PATH,
                 "--parametric": (False, False)},
    ("evaluate",): {"--traced": PATH, "--out": PATH, "--report": (False, None)},
    ("analyze", "sim"): {"--traced": PATH, "--out": PATH, "--scores": (False, None),
                         "--subset": SUBSET},
    ("analyze", "slices"): {"--sim": PATH, "--eval": PATH, "--out": PATH},
    ("analyze", "order"): {"--traced": PATH, "--out": PATH, "--subset": SUBSET},
    ("analyze", "completeness"): {"--traced": PATH, "--out": PATH, "--scores": (False, None),
                                  "--subset": SUBSET},
}


@pytest.mark.parametrize("command", list(STAGE_FLAGS), ids=" ".join)
def test_stage_flags_are_pinned(command):
    actions = _subcommand(build_parser(), *command)._actions
    config = ["--config"] + [f"--{dotted}" for dotted in CONFIG_FIELDS]
    own = [a for a in actions[1:] if a.option_strings[0] not in config]  # after --help
    assert {a.option_strings[0]: (a.required, a.default) for a in own} == STAGE_FLAGS[command]
    assert [a.option_strings[0] for a in own] == list(STAGE_FLAGS[command])
    assert [a.option_strings[0] for a in actions[len(own) + 1:]] == config
    assert all(a.choices == ("AIG", "AIR", "ALL") for a in own if a.dest == "subset")
    assert all(a.default is None and not a.required for a in actions[len(own) + 1:])


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


# prepare -> trace -> evaluate -> the four analyses, by file name; validate
# then rechecks the eight outputs.
CHAIN = [
    ["prepare", "--questions", "questions.jsonl", "--out", "contexts.jsonl"],
    ["trace", "--questions", "questions.jsonl", "--contexts", "contexts.jsonl",
     "--out", "traced.jsonl"],
    ["evaluate", "--traced", "traced.jsonl", "--out", "eval.jsonl"],
    ["analyze", "sim", "--traced", "traced.jsonl", "--out", "sim.csv", "--subset", "ALL"],
    ["analyze", "slices", "--sim", "sim.csv", "--eval", "eval.jsonl", "--out", "slices.csv"],
    ["analyze", "order", "--traced", "traced.jsonl", "--out", "order.csv", "--subset", "ALL"],
    ["analyze", "completeness", "--traced", "traced.jsonl", "--out", "completeness.csv",
     "--subset", "ALL"],
]
CHAIN_OUTPUTS = ["contexts.jsonl", "traced.jsonl", "eval.jsonl", "report.csv", "sim.csv",
                 "slices.csv", "order.csv", "completeness.csv"]


def test_each_stage_in_its_own_process_matches_the_in_process_chain(run_cli, world, tmp_path):
    # Every other chain test runs all stages in one process, so this is the
    # one that sees the process boundary: files are all that pass between stages.
    # CI's installed-package step validates the files left in "processes".
    for i, outcome in enumerate(["AIG", "AIR", "AIG", "AIR", "both", "not_in_gen"]):
        world.add_case(f"q{i:02d}", outcome, hybrid_pick=("gen", "ret", "other")[i % 3],
                       unconstrained=f"In the end gq{i:02d} settled it, and the record of "
                                     f"q{i:02d} says so at length in a good many words.")
    world.write()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    ours, theirs = tmp_path / "processes", tmp_path / "in_process"
    ours.mkdir()
    theirs.mkdir()
    for stage in CHAIN + [["validate", *CHAIN_OUTPUTS]]:
        args = [] if stage[0] == "validate" else [*world.config_args(), "--slices", "1",
                                                  "--match-threshold", "2"]
        argv = [world.questions_path if arg == "questions.jsonl" else arg for arg in stage]
        done = subprocess.run(
            [sys.executable, "-m", "ctxtrace.cli",
             *[str(ours / arg) if arg.endswith((".jsonl", ".csv")) else arg for arg in argv],
             *args], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        code, out, err = run_cli(
            *[str(theirs / arg) if arg.endswith((".jsonl", ".csv")) else arg for arg in argv],
            *args)
        assert (code, err) == (0, done.stderr)
        assert out == done.stdout.replace(str(ours), str(theirs))
    assert done.stdout == "ok: 8 file(s) clean\n"
    for name in CHAIN_OUTPUTS:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


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


# Stage commands (after the config arguments) whose output names an input or
# the other output; the expected usage error, with the world's folder as {}.
OVERWRITES = {
    "evaluate-over-traced": (["evaluate", "--traced", "traced.jsonl", "--out", "traced.jsonl"],
                             "--out {}/traced.jsonl would overwrite --traced {}/traced.jsonl"),
    "evaluate-default-report": (["evaluate", "--traced", "traced.jsonl", "--out", "report.csv"],
                                "--report {}/report.csv would overwrite --out {}/report.csv"),
    "report-over-out": (["evaluate", "--traced", "traced.jsonl", "--out", "eval.jsonl",
                         "--report", "sub/../eval.jsonl"],
                        "--report {}/sub/../eval.jsonl would overwrite --out {}/eval.jsonl"),
    "prepare-over-questions": (["prepare", "--questions", "questions.jsonl",
                                "--out", "questions.jsonl"],
                               "--out {}/questions.jsonl would overwrite "
                               "--questions {}/questions.jsonl"),
    "prepare-over-gold": (["prepare", "--questions", "questions.jsonl", "--out", "gold.jsonl"],
                          "--out {}/gold.jsonl would overwrite --retriever.gold_path "
                          "{}/gold.jsonl"),
    "trace-over-reader-script": (["trace", "--questions", "questions.jsonl", "--contexts",
                                  "contexts.jsonl", "--out", "reader_script.jsonl"],
                                 "--out {}/reader_script.jsonl would overwrite "
                                 "--reader.script_path {}/reader_script.jsonl"),
    "slices-over-eval": (["analyze", "slices", "--sim", "sim.csv", "--eval", "eval.jsonl",
                          "--out", "eval.jsonl"],
                         "--out {}/eval.jsonl would overwrite --eval {}/eval.jsonl"),
    "sim-over-scores": (["analyze", "sim", "--traced", "traced.jsonl", "--scores", "sim.csv",
                         "--out", "sim.csv"],
                        "--out {}/sim.csv would overwrite --scores {}/sim.csv"),
    "order-over-config": (["analyze", "order", "--traced", "traced.jsonl",
                           "--config", "run.json", "--out", "run.json"],
                          "--out {}/run.json would overwrite --config {}/run.json"),
    "symlink-to-input": (["evaluate", "--traced", "traced.jsonl", "--out", "link.jsonl"],
                         "--out {}/link.jsonl would overwrite --traced {}/traced.jsonl"),
}


def _in_world(world, *argv):
    """*argv* with each file name made a path in *world*'s folder."""
    return [world.path(arg) if arg.endswith((".jsonl", ".csv", ".json")) else arg
            for arg in argv]


@pytest.mark.parametrize("argv, message", OVERWRITES.values(), ids=OVERWRITES)
def test_an_output_that_names_an_input_exits_1_and_writes_nothing(run_cli, world, argv, message):
    _standard_world(world)
    for stage in (["prepare", "--questions", "questions.jsonl", "--out", "contexts.jsonl"],
                  ["trace", "--questions", "questions.jsonl", "--contexts", "contexts.jsonl",
                   "--out", "traced.jsonl"],
                  ["evaluate", "--traced", "traced.jsonl", "--out", "eval.jsonl"],
                  ["analyze", "sim", "--traced", "traced.jsonl", "--out", "sim.csv"]):
        assert run_cli(*_in_world(world, *stage), *world.config_args())[0] == 0
    Path(world.path("run.json")).write_text("{}")
    Path(world.path("link.jsonl")).symlink_to(world.path("traced.jsonl"))
    before = {p.name: p.read_bytes() for p in world.root.iterdir()}
    code, out, err = run_cli(*_in_world(world, *argv), *world.config_args())
    assert (code, out) == (1, "")
    assert err == f"ctxtrace: usage error: {message.format(world.root, world.root)}\n"
    assert {p.name: p.read_bytes() for p in world.root.iterdir()} == before


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


# Each manifest-bearing input: its file name, given a tag.
DRIFT_FILES = {"contexts": "contexts{}.jsonl", "traced": "traced{}.jsonl",
               "sim": "sim{}.csv", "eval": "eval{}.jsonl"}
# The stage that reads each of them, and that stage's manifest-bearing inputs.
DRIFT_READERS = {"contexts": ("trace", ["contexts"]), "traced": ("evaluate", ["traced"]),
                 "sim": ("analyze slices", ["sim", "eval"]),
                 "eval": ("analyze slices", ["sim", "eval"])}


def _chain_at(run_cli, world, tag, *extra):
    """Write every manifest-bearing file, its name tagged with *tag*; returns the
    run's manifest.  One slice, as the one AIR sample allows."""
    args = [*world.config_args(), "--slices", "1", *extra]
    contexts, traced, sim, evals = (world.path(DRIFT_FILES[name].format(tag))
                                    for name in ("contexts", "traced", "sim", "eval"))
    manifests = set()
    for argv in (["prepare", "--questions", world.questions_path, "--out", contexts],
                 ["trace", "--questions", world.questions_path, "--contexts", contexts,
                  "--out", traced],
                 ["evaluate", "--traced", traced, "--out", evals],
                 ["analyze", "sim", "--traced", traced, "--out", sim]):
        code, out, err = run_cli(*argv, *args)
        assert code == 0, err
        manifests.add(_manifest_of(out))
    (manifest,) = manifests
    return manifest


@pytest.mark.parametrize("flag", list(DRIFT_FILES))
def test_drift_note_names_each_manifest_bearing_input(run_cli, world, flag):
    _standard_world(world)
    base = _chain_at(run_cli, world, "")
    drifted = _chain_at(run_cli, world, "99", "--seed", "99")
    assert base != drifted
    # Only *flag*'s file comes from the base run.
    command, inputs = DRIFT_READERS[flag]
    argv = command.split()
    if command == "trace":
        argv += ["--questions", world.questions_path]
    for name in inputs:
        argv += [f"--{name}", world.path(DRIFT_FILES[name].format("" if name == flag else "99"))]
    code, _, err = run_cli(*argv, "--out", world.path("stage.out"), *world.config_args(),
                           "--slices", "1", "--seed", "99")
    assert code == 0, err
    stale = world.path(DRIFT_FILES[flag].format(""))
    assert err == f"note: {stale} carries manifest {base}, this run is {drifted}\n"


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


@pytest.mark.parametrize("flag, raw", [
    ("--retriever.k1", "nan"), ("--reader.timeout", "inf"), ("--match-threshold", "NaN"),
    ("--reader.temperature", "-inf"), ("--retriever.b", "1e999"),
])
def test_a_non_finite_number_flag_exits_3(run_cli, world, flag, raw):
    _standard_world(world)
    code, out, err = run_cli("prepare", "--questions", world.questions_path,
                             "--out", world.path("contexts.jsonl"), f"{flag}={raw}",
                             *world.config_args())
    assert (code, out) == (3, "")
    dotted = "match_threshold" if flag == "--match-threshold" else flag[2:]
    assert err == f"ctxtrace: error: cannot parse {raw!r} for config field {dotted!r}\n"
    assert not Path(world.path("contexts.jsonl")).exists()


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
    assert Path(world.path("ingest.jsonl")).read_text(encoding="utf-8").count(
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
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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


def test_repeated_sim_row_is_a_validation_failure(run_cli, world):
    _traced_world(run_cli, world)
    sim = world.path("sim.csv")
    code, _, err = run_cli("analyze", "sim", "--traced", world.path("traced.jsonl"),
                           "--out", sim, "--subset", "ALL", *world.config_args())
    assert code == 0, err
    with open(sim, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(sim, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:3] + lines[2:]) + "\n")
    code, _, err = run_cli("analyze", "slices", "--sim", sim,
                           "--eval", world.path("eval.jsonl"),
                           "--out", world.path("slices.csv"), *world.config_args())
    assert code == 3
    assert f"{sim}:4: duplicate sim example_id 'q01'" in err
    code, out, _ = run_cli("validate", sim)
    assert code == 3
    assert out.splitlines() == [f"{sim}:4: duplicate sim example_id 'q01'"]


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
    lines = Path(traced).read_text(encoding="utf-8").splitlines()
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


@pytest.mark.parametrize("text, line_no, message", [
    ('{"retriever": {"k1": NaN}}', 1, "invalid JSON: NaN is not a finite number"),
    ('{\n  "seed": 3,\n  "retriever": {"b": 0.5, "k1": -1e999}\n}\n', 3,
     "invalid JSON: -1e999 is not a finite number"),
    ('{\n  "seed": 3,\n  "order": "random"\n  "workers": 2\n}\n', 4,
     "invalid JSON: Expecting ',' delimiter"),
    ('{\n  "seed": 3,\n', 2, "invalid JSON: Expecting property name enclosed in double quotes"),
    ('[1]\n', 1, "expected a JSON object"),
    # A string of digits is no integer, so the error is on the line after it.
    ('{\n  "seed": "' + "9" * 5000 + '",\n  "workers": ' + "9" * 5000 + '\n}\n', 3,
     f"invalid JSON: integer of more than {sys.get_int_max_str_digits()} digits"),
], ids=["nan", "overflow", "delimiter", "truncated", "not-an-object", "long-integer"])
def test_a_config_json_error_names_its_line(tmp_path, text, line_no, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert (err.value.path, err.value.line_no, err.value.message) == (str(path), line_no, message)


def test_a_nan_config_is_refused_before_bm25_runs(run_cli, world, tmp_path):
    _standard_world(world)
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [{"doc_id": "d1", "title": "t", "text": "x"}])
    path = tmp_path / "c.json"
    path.write_text('{"retriever": {"k1": NaN}}')
    code, out, err = run_cli("prepare", "--questions", world.questions_path,
                             "--out", world.path("contexts.jsonl"), "--config", str(path),
                             "--corpus", corpus, "--generator.script_path", world.gen_path)
    assert (code, out) == (3, "")
    assert err == f"ctxtrace: error: {path}:1: invalid JSON: NaN is not a finite number\n"


def test_prepare_retrieves_from_a_bm25_corpus(run_cli, world, tmp_path):
    _standard_world(world)
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [
        {"doc_id": f"d{n}", "title": f"Record q0{n}", "text": f"The ledger for q0{n} lists a seal."}
        for n in range(1, 7)])
    out = world.path("contexts.jsonl")
    code, _, err = run_cli("prepare", "--questions", world.questions_path, "--out", out,
                           "--corpus", corpus, "--reader.script_path", world.reader_path,
                           "--generator.script_path", world.gen_path)
    assert code == 0, err
    _, rows = read_output_jsonl(out)
    retrieved = [(obj["id"], obj["backend"], obj["title"]) for _, obj in rows
                 if obj["source"] == "retrieved"]
    assert retrieved == [(f"q0{n}", "bm25", f"Record q0{n}") for n in range(1, 7)]


CONFIG_TYPE_CASES = [
    ({"workers": "two"}, "'workers' must be an integer: 'two'"),
    ({"seed": True}, "'seed' must be an integer: True"),
    ({"seed": 1.5}, "'seed' must be an integer: 1.5"),
    ({"length_candidates": 5}, "'length_candidates' must be a list of integers: 5"),
    ({"length_candidates": [80, True]},
     "'length_candidates' must be a list of integers: [80, True]"),
    ({"match_threshold": "x"}, "'match_threshold' must be a number: 'x'"),
    ({"reader": {"temperature": "hot"}}, "'reader.temperature' must be a number: 'hot'"),
    ({"abstention_set": "no answer"}, "'abstention_set' must be a list of strings: 'no answer'"),
    ({"order": None}, "'order' must be a string: None"),
    ({"retriever": {"corpus_path": 7}}, "'retriever.corpus_path' must be a string: 7"),
]


@pytest.mark.parametrize("doc,message", CONFIG_TYPE_CASES,
                         ids=[message.split("'")[1] for _, message in CONFIG_TYPE_CASES])
def test_load_config_checks_value_types(tmp_path, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_config(path, {"reader.script_path": "r.jsonl", "generator.script_path": "g.jsonl"})
    assert str(err.value) == "config field " + message


CONFIG_RANGE_CASES = [
    ({"order": "sideways"}, "order must be one of ('random', 'generated_first', 'retrieved_first')"),
    ({"workers": 0}, "workers must be >= 1: 0"),
    ({"slice_count": 0}, "slice_count must be >= 1: 0"),
    ({"sim_metric": "cosine"}, "sim_metric must be one of ('jaccard', 'external')"),
    ({"aggregation": "median"}, "aggregation must be one of ('max', 'mean')"),
    ({"length_candidates": []}, "length_candidates must be positive integers"),
    ({"length_candidates": [80, 0]}, "length_candidates must be positive integers"),
    ({"match_threshold": 0}, "match_threshold out of range (0, 2]: 0"),
    ({"match_threshold": 2.5}, "match_threshold out of range (0, 2]: 2.5"),
    ({"retriever": {"kind": "dense"}}, "retriever kind must be one of ('bm25', 'golden', 'ingest')"),
    ({"retriever": {"k1": 0}}, "k1 must be positive: 0"),
    ({"retriever": {"b": 1.5}}, "b out of range [0, 1]: 1.5"),
    ({}, "bm25 retriever needs its input path configured"),
    ({"retriever": {"kind": "golden"}}, "golden retriever needs its input path configured"),
    ({"retriever": {"kind": "ingest", "gold_path": "gold.jsonl"}},
     "ingest retriever needs its input path configured"),
]


@pytest.mark.parametrize("doc,message", CONFIG_RANGE_CASES,
                         ids=[f"{message.split()[0]}-{n}" for n, (_, message)
                              in enumerate(CONFIG_RANGE_CASES)])
def test_load_config_checks_value_ranges(tmp_path, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        # A stage asks for the retriever's input path when it builds the retriever.
        load_config(path, {"reader.script_path": "r.jsonl", "generator.script_path": "g.jsonl"},
                    ).retriever.require_path()
    assert str(err.value) == message


def test_load_config_accepts_ints_for_floats_and_nulls_for_optional_paths(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"match_threshold": 1, "reader": {"temperature": 1},
                                "retriever": {"corpus_path": None}}))
    cfg = load_config(path, {"reader.script_path": "r.jsonl", "generator.script_path": "g.jsonl"})
    assert (cfg.match_threshold, cfg.reader.temperature, cfg.retriever.corpus_path) == (1, 1, None)


def test_wrongly_typed_config_value_exits_3(run_cli, world, tmp_path):
    _standard_world(world)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workers": "two"}))
    code, out, err = run_cli("prepare", "--questions", world.questions_path,
                             "--out", world.path("contexts.jsonl"), "--config", str(path),
                             *world.config_args())
    assert (code, out) == (3, "")
    assert err == "ctxtrace: error: config field 'workers' must be an integer: 'two'\n"


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


def test_config_hash_pins_every_leaf(tmp_path):
    # Every one of the 33 leaves away from its default, some from the file and
    # some from flags, including an int standing for a float (hashed as 1).
    doc = {"reader": {"kind": "http", "endpoint": "http://r", "model_name": "rm",
                      "temperature": 0.5},
           "generator": {"kind": "http", "endpoint": "http://g", "model_name": "gm",
                         "temperature": 1, "timeout": 9.5, "max_retries": 0,
                         "script_path": "g.jsonl"},
           "retriever": {"kind": "ingest", "corpus_path": "c.jsonl", "k1": 0.9},
           "prompts": {"generation": "G {#question} {#n}", "reading": "R {#contexts} {#question}"},
           "order": "retrieved_first", "seed": 7, "length_candidates": [50, 70],
           "slice_count": 3, "aggregation": "mean", "match_threshold": 1}
    flags = {"reader.timeout": "12", "reader.max_retries": "5", "reader.script_path": "r.jsonl",
             "retriever.b": "0.5", "retriever.gold_path": "gold.jsonl",
             "retriever.results_path": "res.jsonl",
             "prompts.generation_unconstrained": "U {#question}",
             "prompts.closed_book": "C {#question}", "workers": "4",
             "abstention_set": "nope, idk", "sim_metric": "external"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path, flags)
    default = _cfg()
    moved = [dotted for dotted in CONFIG_FIELDS
             if attrgetter(dotted)(cfg) != attrgetter(dotted)(default)]
    assert moved == list(CONFIG_FIELDS)
    assert config_hash(cfg) == "a747316826454230"


def test_flag_beats_file_leaf_in_the_same_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"reader": {"script_path": "file.jsonl", "temperature": 0.5},
                                "generator": {"script_path": "g.jsonl"}}))
    cfg = load_config(path, {"reader.script_path": "flag.jsonl"})
    assert (cfg.reader.script_path, cfg.reader.temperature) == ("flag.jsonl", 0.5)
    assert cfg.generator.script_path == "g.jsonl"


def test_file_leaf_beats_the_default(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"workers": 3, "retriever": {"k1": 0.9}}))
    cfg = load_config(path, {"reader.script_path": "r.jsonl", "generator.script_path": "g.jsonl"})
    assert (cfg.workers, cfg.retriever.k1) == (3, 0.9)
    # Leaves set nowhere keep their dataclass defaults.
    assert (cfg.seed, cfg.retriever.b, cfg.reader.timeout) == (0, 0.75, 30.0)


@pytest.mark.parametrize("text,field", [
    ('{"reader": {"fuzz": 1}, "speed": 3}', "reader.fuzz"),
    ('{"speed": 3, "reader": {"fuzz": 1}}', "speed"),
    ('{"seed": 1, "prompts": {"reading": "x", "tone": "y"}, "speed": 3}', "prompts.tone"),
])
def test_unknown_config_keys_are_reported_in_file_order(tmp_path, text, field):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_config(path, {"seed": "not a number"})  # files are checked before flags parse
    assert str(err.value) == f"unknown config field {field!r}"


def test_non_object_section_exits_3_before_flags_apply(run_cli, world, tmp_path):
    _standard_world(world)
    path = tmp_path / "c.json"
    path.write_text('{"reader": 5}')
    code, out, err = run_cli("prepare", "--questions", world.questions_path,
                             "--out", world.path("contexts.jsonl"), "--config", str(path),
                             "--reader.kind", "http")
    assert (code, out) == (3, "")
    assert err == "ctxtrace: error: config field 'reader' must be an object\n"


def test_hyphenated_order_flag_reaches_the_config(run_cli, world):
    _traced_world(run_cli, world)
    code, out, err = run_cli("evaluate", "--traced", world.path("traced.jsonl"),
                             "--out", world.path("eval.jsonl"),
                             "--order", "generated-first", *world.config_args())
    assert code == 0, err
    args = world.config_args()
    overrides = dict(zip((flag[2:] for flag in args[::2]), args[1::2]))
    expected = load_config(None, {**overrides, "order": "generated_first"})
    assert _manifest_of(out) == config_hash(expected)
    _, records = read_output_jsonl(world.path("eval.jsonl"))
    assert {row["order"] for _, row in records} == {"generated_first"}


def test_library_overrides_may_spell_order_with_a_hyphen():
    assert coerce_override("order", "retrieved-first") == "retrieved_first"
    assert _cfg(order="generated-first").order == "generated_first"


def test_readme_lists_every_default():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` +\| `([^`]*)`", section, re.M)
    assert len(rows) == 12
    default = _cfg()
    for dotted, shown in rows:
        value = coerce_override(dotted, shown)
        want = attrgetter(dotted)(default)
        assert (tuple(value) if isinstance(want, tuple) else value) == want, dotted
