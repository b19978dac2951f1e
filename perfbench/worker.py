"""One repetition of one workload, in a process of its own.

A fresh process per repetition keeps module-level caches (such as the
punctuation cache in ``textnorm``) from carrying warm state into the next
repetition, and makes ``peak_rss_mb`` this repetition's own value.  The
stages call the same public functions, with the same file reads and writes,
as the ``cmd_*`` functions in ``ctxtrace.cli``.  Library-style, the config,
questions, retriever and backends are loaded once, in the timed set-up.

Usage: python3 perfbench/worker.py --workload NAME --inputs DIR --out DIR
       --result FILE [--trace 0|1]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ctxtrace import analysis, backends, cli, config, metrics, pipeline, validate  # noqa: E402

from fakehttp import FakeSession  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ANALYSIS_SUBSET = "ALL"
QA_OUTPUTS = ("contexts.jsonl", "traced.jsonl", "eval.jsonl", "report.csv")
HTTP_SERVICE_S = 0.002


def count_backend_calls() -> list:
    """Count reader and generator calls; one list append per call."""
    calls: list = []
    for cls, name in ((pipeline.Reader, "answer"), (pipeline.Generator, "generate")):
        original = getattr(cls, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(None)
            return _original(*args, **kwargs)

        setattr(cls, name, counted)
    return calls


def run(workload: str, inputs: Path, out: Path, stage, session) -> list[str]:
    """Run the workload's stages; returns the validator's problems."""

    def transport(spec):
        return backends.HttpBackend(spec, session=session) if spec.kind == "http" else None

    with stage("setup"):
        cfg = config.load_config(inputs / "config.json")
        run_id = config.config_hash(cfg)
        examples = pipeline.read_questions(inputs / "questions.jsonl")
        retriever = cli.build_retriever(cfg.retriever)
        generator = pipeline.Generator(cfg.generator, cfg.prompts,
                                       transport=transport(cfg.generator))
        reader = None
        if workload != "bm25_prepare":
            reader = pipeline.Reader(cfg.reader, cfg.prompts, transport=transport(cfg.reader))

    contexts_path = out / "contexts.jsonl"
    with stage("prepare"):
        contexts, _ = pipeline.run_prepare(examples, retriever, generator, cfg.length_candidates,
                                           contexts_path, run_id, cfg.seed, cfg.workers)
        by_id = {e.id: e for e in examples}
        for source in ("retrieved", "generated"):
            metrics.recall({c.id: c for c in contexts if c.source == source}, by_id)

    if workload == "bm25_prepare":
        with stage("validate"):
            return validate.validate_files([str(contexts_path)])

    traced_path, eval_path, report_path = (out / n for n in QA_OUTPUTS[1:])
    with stage("trace"):
        _, contexts_by_id = pipeline.read_contexts(contexts_path)
        pipeline.run_trace(examples, contexts_by_id, reader, cfg.abstention_set, True,
                           traced_path, run_id, cfg.seed, cfg.workers)

    with stage("evaluate"):
        _, samples = pipeline.read_traced(traced_path)
        pipeline.run_evaluate(samples, reader, cfg.order, cfg.seed, eval_path, report_path,
                              run_id, cfg.workers)

    with stage("analyze"):
        if workload == "scripted_chain":
            _, samples = pipeline.read_traced(traced_path)
            analysis.run_sim(samples, ANALYSIS_SUBSET, cfg.sim_metric, cfg.aggregation, None,
                             out / "sim.csv", run_id, cfg.seed)
            _, _, sim_records = analysis.read_sim_csv(out / "sim.csv")
            _, eval_records = pipeline.read_eval(eval_path)
            analysis.run_slices(sim_records, eval_records, cfg.slice_count, out / "slices.csv",
                                run_id, cfg.seed)
        _, samples = pipeline.read_traced(traced_path)
        analysis.run_order(samples, reader, ANALYSIS_SUBSET, cfg.seed, out / "order.csv",
                           run_id, cfg.workers)
        _, samples = pipeline.read_traced(traced_path)
        analysis.run_completeness(samples, reader, generator, ANALYSIS_SUBSET, cfg.order,
                                  cfg.seed, cfg.sim_metric, cfg.aggregation, None,
                                  cfg.match_threshold, cfg.abstention_set,
                                  out / "completeness.csv", run_id, cfg.workers)

    if workload == "scripted_chain":
        with stage("validate"):
            return validate.validate_files([str(p) for p in sorted(out.iterdir())])
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    result: dict = {"ok": False, "stages": {}}
    tracer = session = None
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
        calls = count_backend_calls()
        if args.workload == "http_analyze":
            session = FakeSession(args.inputs / "http_table.jsonl", HTTP_SERVICE_S)

        @contextmanager
        def stage(name: str):
            start = time.perf_counter()
            if tracer is None:
                yield
            else:
                with tracer.span(f"stage.{name}"):
                    yield
            result["stages"][name] = time.perf_counter() - start

        args.out.mkdir(parents=True, exist_ok=True)
        problems = run(args.workload, args.inputs, args.out, stage, session)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["backend_calls"] = len(calls)
        result["validate_problems"] = [str(p) for p in problems]
        result["http"] = session.stats() if session else {}
        result["digests"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(args.out.iterdir())}
        if tracer is not None:
            stage_names = [f"stage.{name}" for name in result["stages"]]
            result["layers"], result["trace_problems"] = layer_metrics(
                tracer.spans, result["http"], stage_names)
            tracer.dump(args.out.parent / "spans.jsonl")
        result["ok"] = True
    except Exception:  # run.py counts the failure and reports it
        result["error"] = traceback.format_exc()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
