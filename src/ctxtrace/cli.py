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
from collections import Counter
from functools import partial
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .analysis import (
    SimilarityRecord,
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
    REPORT_SUBSETS,
    Context,
    Generator,
    HybridRecord,
    QaExample,
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
    "workers": "most HTTP requests in flight at once",
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


def build_retriever(cfg: RetrieverConfig):
    path = cfg.require_path()
    if cfg.kind == "bm25":
        return Bm25Index.from_corpus_file(path, Bm25Params(cfg.k1, cfg.b))
    return KeyedRetriever.load(path, cfg.kind)


def _manifested(read: Callable[[str], tuple[dict[str, Any], Any]],
                ) -> Callable[[str], tuple[str, Any]]:
    """*read* of a JSONL output file, returning its manifest in place of its header."""
    def read_input(path: str) -> tuple[str, Any]:
        header, contents = read(path)
        return header[MANIFEST_KEY], contents
    return read_input


# Each stage input flag: its help, and a reader returning the file's manifest
# (None for the user-written questions file) and its contents.
_INPUTS: dict[str, tuple[str, Callable[[str], tuple[str | None, Any]]]] = {
    "questions": ("questions jsonl: id, question, answers",
                  lambda path: (None, read_questions(path))),
    "contexts": ("contexts.jsonl from prepare", _manifested(read_contexts)),
    "traced": ("traced.jsonl from trace", _manifested(read_traced)),
    "sim": ("sim.csv from sim", lambda path: itemgetter(0, 2)(read_sim_csv(path))),
    "eval": ("eval.jsonl from evaluate", _manifested(read_eval)),
}


def _refuse_overwrites(ns: argparse.Namespace, cfg: RunConfig, inputs: tuple[str, ...]) -> None:
    """Refuse an output path that resolves to a path the stage reads, or to
    its other output."""
    named = {"--" + flag: getattr(ns, flag) for flag in inputs}
    named.update({"--config": ns.config, "--scores": getattr(ns, "scores", None)})
    named.update({"--" + dotted: attrgetter(dotted)(cfg) for dotted in CONFIG_FIELDS
                  if dotted.endswith("_path")})
    seen = {Path(path).resolve(): f"{flag} {path}" for flag, path in named.items() if path}
    for flag in ("--out", "--report"):
        path = getattr(ns, flag[2:], None)
        if path is None:
            continue
        where = Path(path).resolve()
        if where in seen:
            raise _UsageError(f"{flag} {path} would overwrite {seen[where]}")
        seen[where] = f"{flag} {path}"


def _run_stage(run: Callable[..., None], inputs: tuple[str, ...], ns: argparse.Namespace) -> int:
    """Load the config, refuse an output that would overwrite an input, read
    *inputs* in order with a note for each one another run wrote, and pass
    them to *run* after the namespace, config and run id."""
    cfg = load_config(ns.config, {dotted: getattr(ns, dotted) for dotted in CONFIG_FIELDS
                                  if getattr(ns, dotted) is not None})
    if "report" in ns and ns.report is None:
        ns.report = str(Path(ns.out).with_name("report.csv"))
    _refuse_overwrites(ns, cfg, inputs)
    run_id = config_hash(cfg)
    contents = []
    for flag in inputs:
        path = getattr(ns, flag)
        manifest, content = _INPUTS[flag][1](path)
        if manifest not in (None, run_id):
            print(f"note: {path} carries manifest {manifest}, this run is {run_id}",
                  file=sys.stderr)
        contents.append(content)
    run(ns, cfg, run_id, *contents)
    return EXIT_OK


def _prepare(ns: argparse.Namespace, cfg: RunConfig, run_id: str,
             examples: list[QaExample]) -> None:
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


def _trace(ns: argparse.Namespace, cfg: RunConfig, run_id: str, examples: list[QaExample],
           contexts_by_id: dict[str, dict[str, Context]]) -> None:
    reader = Reader(cfg.reader, cfg.prompts)
    samples = run_trace(examples, contexts_by_id, reader, cfg.abstention_set,
                        ns.parametric, ns.out, run_id, cfg.seed, cfg.workers)
    kept = Counter(s.subset for s in samples if s.live)
    print(f"traced {len(samples)} questions -> {ns.out} (manifest {run_id})")
    print(f"kept {kept.total()} conflicting samples: AIG {kept['AIG']}, AIR {kept['AIR']}")
    drops = Counter(s.dropped for s in samples if s.dropped is not None)
    neutral = sum(1 for s in samples if s.dropped is None and not s.live)
    if drops:
        detail = ", ".join(f"{reason} {drops[reason]}" for reason in DROP_REASONS if drops[reason])
        print(f"dropped {drops.total()}: {detail}")
    if neutral:
        print(f"non-exclusive (answer in both or neither): {neutral}")


def _evaluate(ns: argparse.Namespace, cfg: RunConfig, run_id: str,
              samples: list[TracedSample]) -> None:
    reader = Reader(cfg.reader, cfg.prompts)
    reports = run_evaluate(samples, reader, cfg.order, cfg.seed, ns.out, ns.report,
                           run_id, cfg.workers)
    print(f"evaluated -> {ns.out} and {ns.report} (manifest {run_id})")
    for rep in reports.values():
        llm = "-" if rep.rho_llm is None else f"{rep.rho_llm:.4f}"
        print(f"{rep.subset}: n={rep.n} rho_gen={rep.rho_gen:.4f} "
              f"rho_ret={rep.rho_ret:.4f} rho_llm={llm} others={rep.others:.4f} "
              f"diff_gr={rep.diff_gr:.4f} em={rep.em_percent:.2f}%")


def _sim(ns: argparse.Namespace, cfg: RunConfig, run_id: str,
         samples: list[TracedSample]) -> None:
    scores = ingest_similarity(ns.scores) if ns.scores else None
    records = run_sim(samples, ns.subset, cfg.sim_metric, cfg.aggregation, scores,
                      ns.out, run_id, cfg.seed)
    print(f"wrote {len(records)} similarity rows -> {ns.out} (manifest {run_id})")


def _slices(ns: argparse.Namespace, cfg: RunConfig, run_id: str,
            records: list[SimilarityRecord], eval_records: list[HybridRecord]) -> None:
    slices = run_slices(records, eval_records, cfg.slice_count, ns.out, run_id, cfg.seed)
    print(f"wrote {len(slices)} slices -> {ns.out} (manifest {run_id})")
    for piece in slices:
        print(f"slice {piece.index}: n={len(piece.example_ids)} "
              f"mean_delta_sim={piece.mean_delta_sim:.4f} diff_gr={piece.diff_gr:.4f}")


def _order(ns: argparse.Namespace, cfg: RunConfig, run_id: str,
           samples: list[TracedSample]) -> None:
    reader = Reader(cfg.reader, cfg.prompts)
    reports = run_order(samples, reader, ns.subset, cfg.seed, ns.out, run_id, cfg.workers)
    print(f"wrote order sweep -> {ns.out} (manifest {run_id})")
    for order, rep in reports.items():
        print(f"{order}: rho_gen={rep.rho_gen:.4f} rho_ret={rep.rho_ret:.4f} "
              f"diff_gr={rep.diff_gr:.4f} em={rep.em_percent:.2f}%")


def _completeness(ns: argparse.Namespace, cfg: RunConfig, run_id: str,
                  samples: list[TracedSample]) -> None:
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


# Hand-declared stage flags beyond the inputs, --out, --subset and the config.
_SCORES = {"--scores": dict(metavar="PATH", default=None,
                            help="external similarity scores jsonl (with --sim-metric external)")}


def _add_stage(commands: Any, name: str, summary: str, run: Callable[..., None],
               inputs: tuple[str, ...], out: str, flags: dict[str, dict[str, Any]] | None = None,
               subset: bool = False) -> None:
    """The subcommand running stage *run*: one required flag per input, --out,
    the hand-declared *flags*, --subset when asked, then the config flags."""
    stage = commands.add_parser(name, help=summary)
    for flag in inputs:
        stage.add_argument("--" + flag, required=True, metavar="PATH", help=_INPUTS[flag][0])
    stage.add_argument("--out", required=True, metavar="PATH", help=f"where to write {out}")
    for option, kwargs in (flags or {}).items():
        stage.add_argument(option, **kwargs)
    if subset:
        stage.add_argument("--subset", choices=REPORT_SUBSETS, default="AIR",
                           help="which conflicting subset to analyze (default AIR)")
    _add_config_flags(stage)
    stage.set_defaults(func=partial(_run_stage, run, inputs))


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0],
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    _add_stage(commands, "prepare", "retrieve and generate one context pair per question",
               _prepare, ("questions",), "contexts.jsonl")
    _add_stage(commands, "trace", "single-context reads plus traceability and exclusivity filters",
               _trace, ("questions", "contexts"), "traced.jsonl",
               {"--parametric": dict(action="store_true",
                                     help="also drop questions the reader answers closed-book")})
    _add_stage(commands, "evaluate", "hybrid reads over conflicting samples; metric report",
               _evaluate, ("traced",), "eval.jsonl",
               {"--report": dict(metavar="PATH", default=None,
                                 help="where to write report.csv (default: next to --out)")})

    analyze = commands.add_parser("analyze", help="controlled-variable analyses")
    analyses = analyze.add_subparsers(dest="analysis", required=True, metavar="KIND")
    _add_stage(analyses, "sim", "question-context similarity per sample",
               _sim, ("traced",), "sim.csv", _SCORES, subset=True)
    _add_stage(analyses, "slices", "quantile slices of the similarity gap",
               _slices, ("sim", "eval"), "slices.csv")
    _add_stage(analyses, "order", "metric sweep over context orders",
               _order, ("traced",), "order.csv", subset=True)
    _add_stage(analyses, "completeness", "nature vs truncated generated contexts",
               _completeness, ("traced",), "completeness.csv", _SCORES, subset=True)

    validate = commands.add_parser("validate", help="recheck pipeline output files")
    validate.add_argument("paths", nargs="+", metavar="PATH",
                          help="pipeline output files, jsonl or csv")
    validate.set_defaults(func=cmd_validate)

    report = commands.add_parser("report", help="render report.csv as markdown")
    report.add_argument("path", metavar="PATH", help="report.csv from evaluate")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except _UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help and --version exit through argparse with code 0.
        return exc.code if isinstance(exc.code, int) else 0
    except CtxTraceError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
