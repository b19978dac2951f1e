"""Re-verification of pipeline outputs from the files alone.

The validator re-derives every checkable claim a file makes: stored word
counts, traceability containment, exclusivity labels, hybrid classifications,
and report-row arithmetic.  It never trusts pipeline state; everything is
recomputed from the stored strings, so a file edited by hand or produced by
a broken run fails here with its line number.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from . import metrics, pipeline, textnorm
from .errors import CtxTraceError, SchemaError
from .jsonl import CSV_FIRST_ROW_LINE, MANIFEST_KEY, read_csv, read_output_jsonl

PROPORTION_SUM_TOLERANCE = 1e-9
FRACTION_CELL_TOLERANCE = 5e-7  # report cells carry six decimals
EM_CELL_TOLERANCE = 5e-5


@dataclass(frozen=True)
class Problem:
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


class _Collector:
    def __init__(self) -> None:
        self.problems: list[Problem] = []

    def add(self, path: str | Path, line: int, message: str) -> None:
        self.problems.append(Problem(str(path), line, message))


def _check_context_row(context: pipeline.Context, path: str | Path, line: int,
                       out: _Collector, expect_id: str | None = None) -> None:
    if expect_id is not None and context.id != expect_id:
        out.add(path, line, f"context id {context.id!r} does not match sample id {expect_id!r}")
    recount = textnorm.word_count(context.text)
    if context.word_count != recount:
        out.add(path, line,
                f"stored word_count {context.word_count} != recomputed {recount}")
    if context.source == "retrieved" and context.variant != "retrieved":
        out.add(path, line, "retrieved contexts must carry the retrieved variant")
    if context.source == "generated" and context.variant == "retrieved":
        out.add(path, line, "generated contexts cannot carry the retrieved variant")


def _check_traced_row(sample: pipeline.TracedSample, path: str | Path, line: int,
                      out: _Collector) -> None:
    _check_context_row(sample.retrieved, path, line, out, sample.example.id)
    _check_context_row(sample.generated, path, line, out, sample.example.id)
    if sample.retrieved.source != "retrieved" or sample.generated.source != "generated":
        out.add(path, line, "traced contexts are attached under the wrong sources")
        return
    if sample.dropped is not None:
        return
    if not textnorm.contains_candidate(sample.generated.text, sample.answer_from_generated):
        out.add(path, line, "generated candidate is not contained in the generated context")
    if not textnorm.contains_candidate(sample.retrieved.text, sample.answer_from_retrieved):
        out.add(path, line, "retrieved candidate is not contained in the retrieved context")
    label = pipeline.exclusivity_label(sample.answer_from_generated,
                                       sample.answer_from_retrieved,
                                       sample.example.answers)
    if sample.subset != label:
        out.add(path, line, f"stored subset {sample.subset!r} != recomputed {label!r}")


def _check_eval_row(record: pipeline.HybridRecord, samples: dict[str, pipeline.TracedSample],
                    header_seed: int, path: str | Path, line: int, out: _Collector) -> None:
    sample = samples.get(record.example_id)
    if sample is None:
        out.add(path, line, f"eval record for unknown example {record.example_id!r}")
        return
    if not sample.live:
        out.add(path, line, f"eval record for non-live example {record.example_id!r}")
        return
    if record.seed != header_seed:
        out.add(path, line, f"record seed {record.seed} != header seed {header_seed}")
    recomputed = pipeline.classify_answer(record.answer, sample)
    if record.classification != recomputed:
        out.add(path, line,
                f"stored classification {record.classification!r} != recomputed {recomputed!r}")


def _check_report_rows(path: str | Path, reports: Sequence[metrics.MetricsReport],
                       out: _Collector) -> None:
    for line, report in enumerate(reports, start=CSV_FIRST_ROW_LINE):
        total = report.rho_gen + report.rho_ret + (report.rho_llm or 0.0) + report.others
        if abs(total - 1.0) > PROPORTION_SUM_TOLERANCE + FRACTION_CELL_TOLERANCE * 4:
            out.add(path, line, f"proportions sum to {total!r}, not 1")
        g, r, h = report.rho_gen, report.rho_ret, FRACTION_CELL_TOLERANCE
        try:
            expected = metrics.diff_gr(g, r)
            # g and r are six-decimal cells; the quotient can move by far
            # more than one cell ulp when g + r is small, so bound diff_gr
            # over every value the rounded cells could have come from.
            low = metrics.diff_gr(max(g - h, 0.0), r + h)
            high = metrics.diff_gr(g + h, max(r - h, 0.0))
        except CtxTraceError:
            out.add(path, line, "diff_gr row with zero gen and ret proportions")
            continue
        if not low - h <= report.diff_gr <= high + h:
            out.add(path, line,
                    f"stored diff_gr {report.diff_gr} != recomputed {expected:.6f}")
        if not -1.0 <= report.diff_gr <= 1.0:
            out.add(path, line, f"diff_gr out of range [-1, 1]: {report.diff_gr}")


def _check_report_against_eval(path: str | Path, reports: Sequence[metrics.MetricsReport],
                               samples: dict[str, pipeline.TracedSample],
                               records: Sequence[pipeline.HybridRecord],
                               out: _Collector) -> None:
    live = [s for s in samples.values() if s.live]
    recounted = {r.subset: r for r in pipeline.subset_reports(live, list(records))}
    for line, report in enumerate(reports, start=CSV_FIRST_ROW_LINE):
        expected = recounted.get(report.subset)
        if expected is None:
            out.add(path, line, f"report row for empty subset {report.subset!r}")
            continue
        if report.n != expected.n:
            out.add(path, line, f"subset {report.subset}: stored n {report.n} != {expected.n}")
            continue
        pairs = [
            ("rho_gen", report.rho_gen, expected.rho_gen, FRACTION_CELL_TOLERANCE),
            ("rho_ret", report.rho_ret, expected.rho_ret, FRACTION_CELL_TOLERANCE),
            ("others", report.others, expected.others, FRACTION_CELL_TOLERANCE),
            ("diff_gr", report.diff_gr, expected.diff_gr, FRACTION_CELL_TOLERANCE),
            ("em_percent", report.em_percent, expected.em_percent, EM_CELL_TOLERANCE),
        ]
        if (report.rho_llm is None) != (expected.rho_llm is None):
            out.add(path, line, f"subset {report.subset}: rho_llm tracking mismatch")
        elif report.rho_llm is not None:
            pairs.append(("rho_llm", report.rho_llm, expected.rho_llm,
                          FRACTION_CELL_TOLERANCE))
        for name, stored, fresh, tolerance in pairs:
            if abs(stored - fresh) > tolerance:
                out.add(path, line,
                        f"subset {report.subset}: stored {name} {stored} != recount {fresh}")


def _sniff_jsonl(path: str | Path, rows: list[tuple[int, dict[str, Any]]]) -> str:
    if not rows:
        return "empty"
    first = rows[0][1]
    if "classification" in first:
        return "eval"
    if "retrieved" in first:
        return "traced"
    if "source" in first:
        return "contexts"
    raise SchemaError(path, rows[0][0], "unrecognized row shape")


def validate_files(paths: Sequence[str | Path]) -> list[Problem]:
    """Validate any mix of pipeline outputs; returns all problems found."""
    out = _Collector()
    manifests: dict[str, str] = {}
    traced_samples: dict[str, pipeline.TracedSample] = {}
    eval_sets: list[tuple[str, int, list[tuple[int, pipeline.HybridRecord]]]] = []
    report_sets: list[tuple[str, list[metrics.MetricsReport]]] = []

    for path in paths:
        name = str(path)
        try:
            if not Path(path).is_file():
                out.add(path, 0, "missing file")
                continue
            if name.endswith(".csv"):
                manifest_hash, _, columns, rows = read_csv(path)
                manifests[name] = manifest_hash
                if columns == metrics.REPORT_COLUMNS:
                    reports = metrics.reports_from_rows(rows, path)
                    report_sets.append((name, reports))
                    _check_report_rows(name, reports, out)
                continue
            header, rows = read_output_jsonl(path)
            manifests[name] = header[MANIFEST_KEY]
            kind = _sniff_jsonl(path, rows)
            if kind == "traced":
                for line_no, obj in rows:
                    sample = pipeline.traced_from_row(obj, path, line_no)
                    if sample.example.id in traced_samples:
                        out.add(path, line_no, f"duplicate traced id {sample.example.id!r}")
                        continue
                    traced_samples[sample.example.id] = sample
                    _check_traced_row(sample, path, line_no, out)
            elif kind == "contexts":
                for line_no, obj in rows:
                    context = pipeline.context_from_row(obj, path, line_no)
                    _check_context_row(context, path, line_no, out)
            elif kind == "eval":
                numbered = []
                seen: set[str] = set()
                for line_no, obj in rows:
                    record = pipeline.hybrid_from_row(obj, path, line_no)
                    if record.example_id in seen:
                        out.add(path, line_no, f"duplicate eval id {record.example_id!r}")
                        continue
                    seen.add(record.example_id)
                    numbered.append((line_no, record))
                eval_sets.append((name, header["seed"], numbered))
        except CtxTraceError as exc:
            line = exc.line_no if isinstance(exc, SchemaError) else 0
            out.add(name, line, str(exc))

    if len(set(manifests.values())) > 1:
        listing = ", ".join(f"{p}={h}" for p, h in sorted(manifests.items()))
        out.add(sorted(manifests)[0], 0, f"mixed manifest hashes across inputs: {listing}")

    for name, header_seed, numbered in eval_sets:
        if traced_samples:
            for line_no, record in numbered:
                _check_eval_row(record, traced_samples, header_seed, name, line_no, out)
            records = [record for _, record in numbered]
            for report_name, reports in report_sets:
                _check_report_against_eval(report_name, reports, traced_samples, records, out)

    return out.problems
