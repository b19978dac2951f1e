"""Command line front end.

Stages chain through files: prepare writes contexts.jsonl, trace writes
traced.jsonl, evaluate writes eval.jsonl plus report.csv, and the analyze
subcommands produce one CSV each.  Every leaf of the run config can be set
with a flag of the same dotted name (--reader.kind, --retriever.k1, ...);
the common knobs also have short aliases listed in the help.  Flags beat
the --config file, which beats built-in defaults.

Exit codes: 0 success, 1 usage, 2 backend failure, 3 validation failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .analysis import (
    ingest_similarity,
    read_sim_csv,
    run_completeness,
    run_order,
    run_sim,
    run_slices,
)
from .backends import Bm25Index, Bm25Params, KeyedRetriever
from .config import CONFIG_FIELDS, RetrieverConfig, RunConfig, config_hash, load_config
from .errors import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, CtxTraceError
from .jsonl import MANIFEST_KEY
from .metrics import read_report_csv, recall, render_markdown
from .pipeline import (
    DROP_REASONS,
    Generator,
    Reader,
    TracedSample,
    read_contexts,
    read_eval,
    read_questions,
    read_traced,
    run_evaluate,
    run_prepare,
    run_trace,
)
from .validate import validate_files

PROG = "ctxtrace"

# Short spellings for the knobs people reach for; each maps onto the same
# destination as its dotted flag, so the two forms cannot disagree.
_ALIASES: dict[str, list[str]] = {
    "length_candidates": ["--length-candidates"],
    "abstention_set": ["--abstention-set"],
    "slice_count": ["--slices"],
    "sim_metric": ["--sim-metric"],
    "match_threshold": ["--match-threshold"],
    "retriever.corpus_path": ["--corpus"],
}

_HELP: dict[str, str] = {
    "seed": "seed feeding order randomization and the run manifest",
    "order": "hybrid context order: random, generated_first, retrieved_first",
    "workers": "threads used for backend calls",
    "length_candidates": "comma-separated word targets tried per generation",
    "abstention_set": "comma-separated reader replies treated as abstentions",
    "slice_count": "number of quantile slices",
    "sim_metric": "question-context similarity: jaccard or external",
    "aggregation": "sentence score aggregation: max or mean",
    "match_threshold": "largest similarity spread the matched filter allows",
    "retriever.kind": "retrieval source: bm25, golden, ingest",
    "retriever.corpus_path": "passage corpus (jsonl) for bm25 retrieval",
    "reader.kind": "reader backend: scripted or http",
    "reader.script_path": "reply table for the scripted reader",
    "generator.kind": "generator backend: scripted or http",
    "generator.script_path": "text table for the scripted generator",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose failures turn into exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("run configuration")
    group.add_argument("--config", metavar="PATH", default=None,
                       help="JSON run config file; flags override its fields")
    for dotted in CONFIG_FIELDS:
        options = ["--" + dotted] + _ALIASES.get(dotted, [])
        group.add_argument(*options, dest=dotted, metavar="VALUE", default=None,
                           help=_HELP.get(dotted, argparse.SUPPRESS))


def _overrides(ns: argparse.Namespace) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for dotted in CONFIG_FIELDS:
        value = getattr(ns, dotted, None)
        if value is None:
            continue
        if dotted == "order" and isinstance(value, str):
            value = value.replace("-", "_")
        out[dotted] = value
    return out


def _load(ns: argparse.Namespace) -> tuple[RunConfig, str]:
    cfg = load_config(ns.config, _overrides(ns))
    return cfg, config_hash(cfg)


def build_retriever(cfg: RetrieverConfig):
    path = cfg.require_path()
    if cfg.kind == "bm25":
        return Bm25Index.from_corpus_file(path, Bm25Params(cfg.k1, cfg.b))
    return KeyedRetriever.load(path, cfg.kind)


def _note_mismatch(found: str, run_id: str, path: str) -> None:
    if found != run_id:
        print(f"note: {path} carries manifest {found}, this run is {run_id}",
              file=sys.stderr)


def _load_traced(ns: argparse.Namespace) -> tuple[RunConfig, str, list[TracedSample]]:
    """Config, run id, and the --traced samples, noting a manifest mismatch."""
    cfg, run_id = _load(ns)
    header, samples = read_traced(ns.traced)
    _note_mismatch(header[MANIFEST_KEY], run_id, ns.traced)
    return cfg, run_id, samples


def cmd_prepare(ns: argparse.Namespace) -> int:
    cfg, run_id = _load(ns)
    examples = read_questions(ns.questions)
    retriever = build_retriever(cfg.retriever)
    generator = Generator(cfg.generator, cfg.prompts)
    contexts, stats = run_prepare(examples, retriever, generator, cfg.length_candidates,
                                  ns.out, run_id, cfg.seed, cfg.workers)
    by_id = {e.id: e for e in examples}
    ret = {c.id: c for c in contexts if c.source == "retrieved"}
    gen = {c.id: c for c in contexts if c.source == "generated"}
    print(f"prepared {len(examples)} questions -> {ns.out} (manifest {run_id})")
    print(f"mean words: retrieved {stats.mean_retrieved:.1f}, "
          f"generated {stats.mean_generated:.1f}, discrepancy {stats.discrepancy:.4f}")
    print(f"answer recall: retrieved {recall(ret, by_id):.4f}, "
          f"generated {recall(gen, by_id):.4f}")
    if stats.warn:
        print(f"warning: length discrepancy {stats.discrepancy:.4f} exceeds 0.03",
              file=sys.stderr)
    return EXIT_OK


def cmd_trace(ns: argparse.Namespace) -> int:
    cfg, run_id = _load(ns)
    examples = read_questions(ns.questions)
    header, contexts_by_id = read_contexts(ns.contexts)
    _note_mismatch(header[MANIFEST_KEY], run_id, ns.contexts)
    reader = Reader(cfg.reader, cfg.prompts)
    samples = run_trace(examples, contexts_by_id, reader, cfg.abstention_set,
                        ns.parametric, ns.out, run_id, cfg.seed, cfg.workers)
    live = [s for s in samples if s.live]
    aig = sum(1 for s in live if s.subset == "AIG")
    air = len(live) - aig
    print(f"traced {len(samples)} questions -> {ns.out} (manifest {run_id})")
    print(f"kept {len(live)} conflicting samples: AIG {aig}, AIR {air}")
    drops = {reason: 0 for reason in DROP_REASONS}
    neutral = 0
    for sample in samples:
        if sample.dropped is not None:
            drops[sample.dropped] += 1
        elif not sample.live:
            neutral += 1
    dropped_total = sum(drops.values())
    if dropped_total:
        detail = ", ".join(f"{reason} {n}" for reason, n in drops.items() if n)
        print(f"dropped {dropped_total}: {detail}")
    if neutral:
        print(f"non-exclusive (answer in both or neither): {neutral}")
    return EXIT_OK


def cmd_evaluate(ns: argparse.Namespace) -> int:
    cfg, run_id, samples = _load_traced(ns)
    reader = Reader(cfg.reader, cfg.prompts)
    report_path = ns.report if ns.report else str(Path(ns.out).with_name("report.csv"))
    reports = run_evaluate(samples, reader, cfg.order, cfg.seed, ns.out, report_path,
                           run_id, cfg.workers)
    print(f"evaluated -> {ns.out} and {report_path} (manifest {run_id})")
    for rep in reports:
        llm = "-" if rep.rho_llm is None else f"{rep.rho_llm:.4f}"
        print(f"{rep.subset}: n={rep.n} rho_gen={rep.rho_gen:.4f} "
              f"rho_ret={rep.rho_ret:.4f} rho_llm={llm} others={rep.others:.4f} "
              f"diff_gr={rep.diff_gr:.4f} em={rep.em_percent:.2f}%")
    return EXIT_OK


def cmd_analyze_sim(ns: argparse.Namespace) -> int:
    cfg, run_id, samples = _load_traced(ns)
    scores = ingest_similarity(ns.scores) if ns.scores else None
    records = run_sim(samples, ns.subset, cfg.sim_metric, cfg.aggregation, scores,
                      ns.out, run_id, cfg.seed)
    print(f"wrote {len(records)} similarity rows -> {ns.out} (manifest {run_id})")
    return EXIT_OK


def cmd_analyze_slices(ns: argparse.Namespace) -> int:
    cfg, run_id = _load(ns)
    sim_manifest, _, records = read_sim_csv(ns.sim)
    _note_mismatch(sim_manifest, run_id, ns.sim)
    eval_header, eval_records = read_eval(ns.eval)
    _note_mismatch(eval_header[MANIFEST_KEY], run_id, ns.eval)
    slices = run_slices(records, eval_records, cfg.slice_count, ns.out, run_id, cfg.seed)
    print(f"wrote {len(slices)} slices -> {ns.out} (manifest {run_id})")
    for piece in slices:
        print(f"slice {piece.index}: n={len(piece.example_ids)} "
              f"mean_delta_sim={piece.mean_delta_sim:.4f} diff_gr={piece.diff_gr:.4f}")
    return EXIT_OK


def cmd_analyze_order(ns: argparse.Namespace) -> int:
    cfg, run_id, samples = _load_traced(ns)
    reader = Reader(cfg.reader, cfg.prompts)
    reports = run_order(samples, reader, ns.subset, cfg.seed, ns.out, run_id, cfg.workers)
    print(f"wrote order sweep -> {ns.out} (manifest {run_id})")
    for order, rep in reports.items():
        print(f"{order}: rho_gen={rep.rho_gen:.4f} rho_ret={rep.rho_ret:.4f} "
              f"diff_gr={rep.diff_gr:.4f} em={rep.em_percent:.2f}%")
    return EXIT_OK


def cmd_analyze_completeness(ns: argparse.Namespace) -> int:
    cfg, run_id, samples = _load_traced(ns)
    reader = Reader(cfg.reader, cfg.prompts)
    generator = Generator(cfg.generator, cfg.prompts)
    scores = ingest_similarity(ns.scores) if ns.scores else None
    reports = run_completeness(samples, reader, generator, ns.subset, cfg.order,
                               cfg.seed, cfg.sim_metric, cfg.aggregation, scores,
                               cfg.match_threshold, cfg.abstention_set, ns.out,
                               run_id, cfg.workers)
    print(f"wrote completeness sweep -> {ns.out} (manifest {run_id})")
    for variant, rep in reports.items():
        print(f"{variant}: n={rep.n} rho_gen={rep.rho_gen:.4f} "
              f"rho_ret={rep.rho_ret:.4f} diff_gr={rep.diff_gr:.4f}")
    return EXIT_OK


def cmd_validate(ns: argparse.Namespace) -> int:
    problems = validate_files(ns.paths)
    for problem in problems:
        print(str(problem))
    if problems:
        print(f"{len(problems)} problem(s) in {len(ns.paths)} file(s)", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"ok: {len(ns.paths)} file(s) clean")
    return EXIT_OK


def cmd_report(ns: argparse.Namespace) -> int:
    _, _, reports = read_report_csv(ns.path)
    sys.stdout.write(render_markdown(reports))
    return EXIT_OK


def _subset_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--subset", choices=("AIG", "AIR", "ALL"), default="AIR",
                        help="which conflicting subset to analyze (default AIR)")


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0],
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    prepare = commands.add_parser(
        "prepare", help="retrieve and generate one context pair per question")
    prepare.add_argument("--questions", required=True, metavar="PATH",
                         help="questions jsonl: id, question, answers")
    prepare.add_argument("--out", required=True, metavar="PATH",
                         help="where to write contexts.jsonl")
    _add_config_flags(prepare)
    prepare.set_defaults(func=cmd_prepare)

    trace = commands.add_parser(
        "trace", help="single-context reads plus traceability and exclusivity filters")
    trace.add_argument("--questions", required=True, metavar="PATH")
    trace.add_argument("--contexts", required=True, metavar="PATH",
                       help="contexts.jsonl from prepare")
    trace.add_argument("--out", required=True, metavar="PATH",
                       help="where to write traced.jsonl")
    trace.add_argument("--parametric", action="store_true",
                       help="also drop questions the reader answers closed-book")
    _add_config_flags(trace)
    trace.set_defaults(func=cmd_trace)

    evaluate = commands.add_parser(
        "evaluate", help="hybrid reads over conflicting samples; metric report")
    evaluate.add_argument("--traced", required=True, metavar="PATH",
                          help="traced.jsonl from trace")
    evaluate.add_argument("--out", required=True, metavar="PATH",
                          help="where to write eval.jsonl")
    evaluate.add_argument("--report", metavar="PATH", default=None,
                          help="where to write report.csv (default: next to --out)")
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    analyze = commands.add_parser("analyze", help="controlled-variable analyses")
    analyses = analyze.add_subparsers(dest="analysis", required=True, metavar="KIND")

    sim = analyses.add_parser("sim", help="question-context similarity per sample")
    sim.add_argument("--traced", required=True, metavar="PATH")
    sim.add_argument("--out", required=True, metavar="PATH",
                     help="where to write sim.csv")
    sim.add_argument("--scores", metavar="PATH", default=None,
                     help="external similarity scores jsonl (with --sim-metric external)")
    _subset_flag(sim)
    _add_config_flags(sim)
    sim.set_defaults(func=cmd_analyze_sim)

    slices = analyses.add_parser("slices", help="quantile slices of the similarity gap")
    slices.add_argument("--sim", required=True, metavar="PATH", help="sim.csv from sim")
    slices.add_argument("--eval", required=True, metavar="PATH",
                        help="eval.jsonl from evaluate")
    slices.add_argument("--out", required=True, metavar="PATH",
                        help="where to write slices.csv")
    _add_config_flags(slices)
    slices.set_defaults(func=cmd_analyze_slices)

    order = analyses.add_parser("order", help="metric sweep over context orders")
    order.add_argument("--traced", required=True, metavar="PATH")
    order.add_argument("--out", required=True, metavar="PATH",
                       help="where to write order.csv")
    _subset_flag(order)
    _add_config_flags(order)
    order.set_defaults(func=cmd_analyze_order)

    completeness = analyses.add_parser(
        "completeness", help="nature vs truncated generated contexts")
    completeness.add_argument("--traced", required=True, metavar="PATH")
    completeness.add_argument("--out", required=True, metavar="PATH",
                              help="where to write completeness.csv")
    completeness.add_argument("--scores", metavar="PATH", default=None,
                              help="external similarity scores jsonl")
    _subset_flag(completeness)
    _add_config_flags(completeness)
    completeness.set_defaults(func=cmd_analyze_completeness)

    validate = commands.add_parser("validate", help="recheck pipeline output files")
    validate.add_argument("paths", nargs="+", metavar="PATH",
                          help="contexts/traced/eval jsonl or report csv files")
    validate.set_defaults(func=cmd_validate)

    report = commands.add_parser("report", help="render report.csv as markdown")
    report.add_argument("path", metavar="PATH", help="report.csv from evaluate")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help and --version exit through argparse with code 0.
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return ns.func(ns)
    except CtxTraceError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
