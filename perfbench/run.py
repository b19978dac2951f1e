"""ctxtrace benchmark: one command runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the inputs (same seed, same
inputs); the program receives only the generated files.  Repetitions of the
workload then run one after another, each in a fresh process
(``worker.py``), until ``--seconds`` have passed.  Every end-to-end metric is
reported as the median and quartiles over the repetitions and, in the result
line, as the best repetition (``setup_s``: the median set-up): this host's CPU
speed swings by up to half with other tenants' load, and the best repetition
is the least disturbed one.  With
``--trace 1`` untraced and traced repetitions alternate; the traced ones give
the per-layer metrics (medians) and the tracing overhead.

Outputs are checked against the outcomes planted in the inputs, the
validator must find no problem, and every repetition must write
byte-identical files.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its quartiles, and the output digests.  Work files
go to ``.perfbench_work/`` in the checkout; the full results of a run stay in
``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0
HTTP_ENDPOINT = "http://127.0.0.1:9/v1/chat/completions"  # never contacted: the session is fake

# Input sizes.  Each repetition should take a few seconds, so that a run of
# --seconds holds several repetitions and their median is steady.
CHAIN_QUESTIONS = 150
HTTP_QUESTIONS = 200
BM25_DOCS = 3000
BM25_QUERIES = 200

WORKLOADS = ("scripted_chain", "bm25_prepare", "http_analyze")
STAGES = {
    "scripted_chain": ("prepare", "trace", "evaluate", "analyze", "validate"),
    "bm25_prepare": ("prepare", "validate"),
    "http_analyze": ("prepare", "trace", "evaluate", "analyze"),
}
# Gated end-to-end metrics, which every workload reports: unit, and how one
# run's value is drawn from its repetitions (set-up: the median set-up).
END_TO_END = {
    "setup_s": ("s", statistics.median), "questions_per_s": ("1/s", max), "prepare_s": ("s", min),
    "peak_rss_mb": ("MB", min), "backend_calls_per_question": ("count", min),
}


def load_program():
    """Import ctxtrace and the input generator from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import ctxtrace

    if not Path(ctxtrace.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"ctxtrace imported from {ctxtrace.__file__}, not from {ROOT / 'src'}")
    import checks
    import worldgen

    return checks, worldgen


def make_inputs(worldgen, workload: str, seed: int, inputs: Path) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    rel = inputs.relative_to(ROOT).as_posix()
    scripted = lambda name: {"kind": "scripted", "script_path": f"{rel}/{name}"}  # noqa: E731
    golden = {"kind": "golden", "gold_path": f"{rel}/gold.jsonl"}
    if workload == "scripted_chain":
        expected = worldgen.build_qa_world(inputs, rng, CHAIN_QUESTIONS, "scripted")
        cfg = {"reader": scripted("reader.jsonl"), "generator": scripted("generation.jsonl"),
               "retriever": golden, "workers": 1}
    elif workload == "bm25_prepare":
        expected = worldgen.build_bm25_world(inputs, rng, BM25_DOCS, BM25_QUERIES)
        cfg = {"reader": scripted("reader.jsonl"), "generator": scripted("generation.jsonl"),
               "retriever": {"kind": "bm25", "corpus_path": f"{rel}/corpus.jsonl"},
               "workers": 1}
    else:
        expected = worldgen.build_qa_world(inputs, rng, HTTP_QUESTIONS, "http")
        http = lambda model: {"kind": "http", "endpoint": HTTP_ENDPOINT,  # noqa: E731
                              "model_name": model}
        cfg = {"reader": http("bench-reader"), "generator": http("bench-generator"),
               "retriever": golden, "workers": min(2, os.cpu_count() or 1)}
    cfg["seed"] = seed
    (inputs / "config.json").write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return expected


def run_worker(workload: str, inputs: Path, rep_dir: Path, traced: bool,
               timeout: float) -> dict:
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--inputs", str(inputs.relative_to(ROOT)), "--out", str(rep_dir / "out"),
           "--result", str(result_path), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"repetition timed out after {timeout:.0f}s"}
    if not result_path.is_file():
        return {"ok": False, "error": proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    return json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def questions_per_s(rep: dict, n: int) -> float:
    return n / sum(t for name, t in rep["stages"].items() if name != "setup")


def end_to_end(reps: list[dict], workload: str, n: int) -> dict[str, list[float]]:
    """Every end-to-end metric, gated or printed, of each untraced repetition."""
    values = {
        "setup_s": [r["stages"]["setup"] for r in reps],
        "questions_per_s": [questions_per_s(r, n) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "backend_calls_per_question": [r["backend_calls"] / n for r in reps],
    }
    for stage in STAGES[workload]:
        values[f"{stage}_s"] = [r["stages"][stage] for r in reps]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    started = time.monotonic()

    checks, worldgen = load_program()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    expected = make_inputs(worldgen, args.workload, args.seed, inputs)
    n = expected["n"]
    print(f"{args.workload}: seed {args.seed}, {n} questions, inputs made in "
          f"{time.monotonic() - started:.1f}s")

    # Repetitions: untraced only, or untraced and traced alternating.
    check = checks.Checker()
    reps: list[tuple[bool, dict]] = []
    deadline = time.monotonic() + args.seconds
    minimum = 4 if args.trace else 3
    while len(reps) < minimum or time.monotonic() < deadline:
        left = HARD_LIMIT_S - (time.monotonic() - started)
        if left < 10:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_worker(args.workload, inputs, work / f"rep{len(reps)}", traced, left)
        reps.append((traced, rep))
        check.expect(rep["ok"], f"repetition {len(reps) - 1} failed: {rep.get('error')}")
        if not rep["ok"]:
            break
        for problem in rep["validate_problems"]:
            check.expect(False, f"validate: {problem}")
        check.attempted += len(rep["stages"])
        check.expect(not rep["http"].get("unknown_prompts"),
                     f"fake session got {rep['http'].get('unknown_prompts')} unplanned prompts")
        for problem in rep.get("trace_problems", []):
            check.expect(False, f"tracing: {problem}")

    good = [rep for _, rep in reps if rep["ok"]]
    plain = [rep for traced, rep in reps if rep["ok"] and not traced]
    traced_reps = [rep for traced, rep in reps if rep["ok"] and traced]
    if good:
        out = work / "rep0" / "out"
        try:
            if args.workload == "bm25_prepare":
                checks.check_contexts(check, out, expected["questions"])
            else:
                analyses = ("sim",) if args.workload == "scripted_chain" else ()
                checks.check_qa(check, out, expected, analyses)
            if args.workload == "http_analyze":
                from ctxtrace.validate import validate_files

                for problem in validate_files([str(out / name) for name in
                                               ("contexts.jsonl", "traced.jsonl",
                                                "eval.jsonl", "report.csv")]):
                    check.expect(False, f"validate: {problem}")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            check.expect(False, f"outputs of repetition 0 could not be recounted: {exc!r}")
        checks.check_digests(check, good)

    # Report.
    print(f"repetitions: {len(plain)} untraced, {len(traced_reps)} traced, "
          f"{time.monotonic() - started:.1f}s in all")
    metrics: dict[str, dict] = {}
    summary: dict[str, dict] = {}
    if plain:
        picks = dict(END_TO_END, **{f"{s}_s": ("s", min) for s in STAGES[args.workload]})
        for name, values in end_to_end(plain, args.workload, n).items():
            q1, median, q3 = quartiles(values)
            unit, pick = picks[name]
            summary[name] = {"median": median, "q1": q1, "q3": q3, "reported": pick(values),
                             "runs": len(values)}
            print(f"  {name:28s} median {median:12.4f} {unit:5s} (q1 {q1:.4f}, q3 {q3:.4f}, "
                  f"reported {pick(values):.4f}, {len(values)} repetitions)")
        if not args.trace:
            metrics = {name: {"value": summary[name]["reported"], "unit": unit}
                       for name, (unit, _) in END_TO_END.items()}
    if args.trace and traced_reps and plain:
        layers = {name: statistics.median(rep["layers"][name] for rep in traced_reps)
                  for name in traced_reps[0]["layers"]}
        traced_qps = statistics.median(questions_per_s(r, n) for r in traced_reps)
        layers["tracing.overhead_frac"] = summary["questions_per_s"]["median"] / traced_qps - 1
        print(f"  traced questions_per_s {traced_qps:.4f} against "
              f"{summary['questions_per_s']['median']:.4f} untraced")
        for name, value in layers.items():
            print(f"  {name:42s} {value:14.6f}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    error_frac = len(check.failures) / max(check.attempted, 1)
    print(f"  error_frac {error_frac:.6f} ({len(check.failures)} of {check.attempted} operations)")
    for failure in check.failures[:20]:
        print(f"  FAILED: {failure}")
    digests = good[0]["digests"] if good else {}
    for name, digest in digests.items():
        print(f"  sha256 {name} {digest}")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    first_traced = next((i for i, (traced, _) in enumerate(reps) if traced), None)
    if first_traced is not None and (work / f"rep{first_traced}" / "spans.jsonl").is_file():
        shutil.move(work / f"rep{first_traced}" / "spans.jsonl", results / f"{stem}-spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "questions": n,
              "summary": summary, "metrics": metrics, "error_frac": error_frac,
              "failures": check.failures, "digests": digests,
              "repetitions": [dict(rep, traced=traced) for traced, rep in reps]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    correct = bool(good) and not check.failures and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": check.attempted,
                      "failed": len(check.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
