"""Re-verification of pipeline outputs from the files alone.

The validator re-derives every checkable claim a file makes: stored word
counts, traceability containment, exclusivity labels, hybrid classifications,
report rows and quantile slices.  It never trusts pipeline state; everything
is recomputed from the stored strings, so a file edited by hand or produced
by a broken run fails here with its line number.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Sequence

from . import analysis, metrics, pipeline, textnorm
from .errors import CtxTraceError, SchemaError
from .jsonl import MANIFEST_KEY, RowSchema, read_csv, read_output_jsonl

PROPORTION_SUM_TOLERANCE = 1e-9
FRACTION_CELL_TOLERANCE = 5e-7  # report cells carry six decimals


@dataclass(frozen=True)
class Problem:
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


class _Collector(list):
    def add(self, path: str | Path, line: int, message: str) -> None:
        self.append(Problem(str(path), line, message))


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
    if not textnorm.contains_answer(sample.generated.text, sample.answer_from_generated):
        out.add(path, line, "generated candidate is not contained in the generated context")
    if not textnorm.contains_answer(sample.retrieved.text, sample.answer_from_retrieved):
        out.add(path, line, "retrieved candidate is not contained in the retrieved context")
    label = pipeline.exclusivity_label(sample.answer_from_generated,
                                       sample.answer_from_retrieved,
                                       sample.example.answers)
    if sample.subset != label:
        out.add(path, line, f"stored subset {sample.subset!r} != recomputed {label!r}")


def _check_eval_row(record: pipeline.HybridRecord, samples: dict[str, pipeline.TracedSample],
                    header_seed: int, path: str | Path, line: int, out: _Collector) -> bool:
    sample = samples.get(record.example_id)
    if sample is None:
        out.add(path, line, f"eval record for unknown example {record.example_id!r}")
        return False
    if not sample.live:
        out.add(path, line, f"eval record for non-live example {record.example_id!r}")
        return False
    if record.seed != header_seed:
        out.add(path, line, f"record seed {record.seed} != header seed {header_seed}")
    recomputed = pipeline.classify_answer(record.answer, sample)
    if record.classification != recomputed:
        out.add(path, line,
                f"stored classification {record.classification!r} != recomputed {recomputed!r}")
    return True


def _gap_range(g: float, r: float) -> tuple[float, float]:
    """The range of (g - r) / (g + r), plus one cell ulp, over all values the
    six-decimal cells g and r could have come from; it is wide if g + r is small."""
    h = FRACTION_CELL_TOLERANCE
    return metrics.diff_gr(max(g - h, 0.0), r + h) - h, metrics.diff_gr(g + h, max(r - h, 0.0)) + h


def _check_report_rows(path: str | Path, reports: Sequence[tuple[int, metrics.MetricsReport]],
                       out: _Collector) -> None:
    for line, report in reports:
        total = report.rho_gen + report.rho_ret + (report.rho_llm or 0.0) + report.others
        if abs(total - 1.0) > PROPORTION_SUM_TOLERANCE + FRACTION_CELL_TOLERANCE * 4:
            out.add(path, line, f"proportions sum to {total!r}, not 1")
        try:
            expected = metrics.diff_gr(report.rho_gen, report.rho_ret)
            low, high = _gap_range(report.rho_gen, report.rho_ret)
        except CtxTraceError:
            out.add(path, line, "diff_gr row with zero gen and ret proportions")
            continue
        if not low <= report.diff_gr <= high:
            out.add(path, line,
                    f"stored diff_gr {report.diff_gr} != recomputed {expected:.6f}")
        if not -1.0 <= report.diff_gr <= 1.0:
            out.add(path, line, f"diff_gr out of range [-1, 1]: {report.diff_gr}")


def _check_sim_rows(path: str | Path, records: Sequence[tuple[int, analysis.SimilarityRecord]],
                    samples: dict[str, pipeline.TracedSample], out: _Collector) -> None:
    for line, record in records:
        if samples and not getattr(samples.get(record.example_id), "live", False):
            out.add(path, line, f"similarity row for non-live example {record.example_id!r}")
        g, r, stored = record.sim_gen, record.sim_ret, record.delta_sim
        if record.metric == "jaccard" and not (0.0 <= g <= 1.0 and 0.0 <= r <= 1.0):
            out.add(path, line, "jaccard similarity out of range [0, 1]")
        elif record.metric == "jaccard":
            # analysis stores 0.0 when both sides are zero.
            low, high = _gap_range(g, r) if g or r else (0.0, 0.0)
            if not low <= stored <= high:
                expected = analysis.delta_sim(g, r) if g or r else 0.0
                out.add(path, line, f"stored delta_sim {stored} != recomputed {expected:.6f}")


def _check_report_against_eval(path: str | Path,
                               reports: Sequence[tuple[int, metrics.MetricsReport]],
                               samples: dict[str, pipeline.TracedSample],
                               records: Sequence[pipeline.HybridRecord],
                               out: _Collector) -> None:
    live = [s for s in samples.values() if s.live]
    recounted = {r.subset: r for r in pipeline.subset_reports(live, list(records))}
    for line, report in reports:
        expected = recounted.get(report.subset)
        if expected is None:
            out.add(path, line, f"report row for empty subset {report.subset!r}")
            continue
        _check_recount(metrics.REPORT, report, expected, f"subset {report.subset}",
                       path, line, out)


def _check_slices(path: str | Path, rows: Sequence[tuple[int, analysis.SliceRow]],
                  sims: Sequence[tuple[int, analysis.SimilarityRecord]],
                  evals: Sequence[tuple[int, pipeline.HybridRecord]], out: _Collector) -> None:
    total = sum(row.n for _, row in rows)
    if total != len(sims):
        out.add(path, 0, f"slice sizes sum to {total}, not to the {len(sims)} similarity rows")
    try:
        fresh = analysis.slice_report(analysis.quantile_slices([s for _, s in sims], len(rows)),
                                      [record for _, record in evals])
    except CtxTraceError as exc:
        out.add(path, 0, str(exc))
        return
    for (line, row), piece in zip(rows, fresh):
        _check_recount(analysis.SLICES, row, piece.row(), f"slice {row.slice_index}",
                       path, line, out)


def _check_recount(schema: RowSchema, row: Any, recount: Any, label: str,
                   path: str | Path, line: int, out: _Collector) -> None:
    """Each cell of a stored *row* against its *recount*, a float within its cell's rounding."""
    for col, stored, fresh in zip(schema.cols, schema.values(row), schema.values(recount)):
        tolerance = 0.5 * 10.0 ** -int(col.fmt[1:-1]) if col.kind is float else 0
        if (stored is None) != (fresh is None):
            out.add(path, line, f"{label}: {col.key} tracking mismatch")
        elif col.kind is not str and stored is not None and abs(stored - fresh) > tolerance:
            out.add(path, line, f"{label}: stored {col.key} {stored} != recount {fresh}")


# The file kinds validate recognises: a JSONL file by the exact key set of
# its first row, a CSV file by its column row.
_JSONL_KINDS = {frozenset(s.keys): s for s in (pipeline.CONTEXT, pipeline.TRACED, pipeline.HYBRID)}
_CSV_KINDS = {tuple(s.keys): s for s in (metrics.REPORT, analysis.SIM, analysis.SLICES,
                                         analysis.ORDER, analysis.COMPLETENESS)}


def _load_file(path: str | Path, problems: list[SchemaError],
               ) -> tuple[str, int, RowSchema | None, list[tuple[int, Any]]]:
    """(manifest hash, seed, schema, (line, record) pairs) of one output file;
    the schema is None for no rows or rows of no known kind.  Each problem
    below the header goes to *problems*; a malformed header raises."""
    if str(path).endswith(".csv"):
        manifest_hash, seed, columns, table = read_csv(path)
        schema = _CSV_KINDS.get(tuple(columns))
        if schema is None:
            problems.append(SchemaError(path, columns.line_no, f"unrecognized columns {columns}"))
        rows = [(row.line_no, row) for row in table]
    else:
        header, rows = read_output_jsonl(path, problems)
        manifest_hash, seed = header[MANIFEST_KEY], header["seed"]
        schema = _JSONL_KINDS.get(frozenset(rows[0][1])) if rows else None
        if rows and schema is None:
            problems.append(SchemaError(path, rows[0][0], "unrecognized row shape"))
    return manifest_hash, seed, schema, schema.load_rows(rows, path, problems) if schema else []


def validate_files(paths: Sequence[str | Path]) -> list[Problem]:
    """Validate any mix of pipeline outputs; returns all problems found."""
    out = _Collector()
    manifests: dict[str, str] = {}
    traced_samples: dict[str, pipeline.TracedSample] = {}
    # Files the cross-file checks below need, by kind: path, header seed, (line, record) pairs.
    files: dict[RowSchema, list[tuple[str | Path, int, list]]] = defaultdict(list)

    for path in paths:
        if not Path(path).is_file():
            out.add(path, 0, "missing file")
            continue
        problems: list[SchemaError] = []
        try:
            manifests[str(path)], seed, schema, loaded = _load_file(path, problems)
        except SchemaError as exc:
            problems.append(exc)
            continue
        finally:
            for exc in sorted(problems, key=attrgetter("line_no")):
                out.add(path, exc.line_no, exc.message)
        if schema in (analysis.SIM, analysis.SLICES, pipeline.HYBRID, metrics.REPORT):
            files[schema].append((path, seed, loaded))
        if schema is pipeline.TRACED:
            for line_no, sample in loaded:
                # A repeat inside one file failed to load; this is one across files.
                if traced_samples.setdefault(sample.example.id, sample) is not sample:
                    out.add(path, line_no, f"duplicate traced id {sample.example.id!r}")
                else:
                    _check_traced_row(sample, path, line_no, out)
        elif schema is pipeline.CONTEXT:
            for line_no, context in loaded:
                _check_context_row(context, path, line_no, out)
        elif schema is not None and schema.cls is metrics.MetricsReport:
            _check_report_rows(path, loaded, out)

    if len(set(manifests.values())) > 1:
        listing = ", ".join(f"{p}={h}" for p, h in sorted(manifests.items()))
        out.add(sorted(manifests)[0], 0, f"mixed manifest hashes across inputs: {listing}")

    sims, evals = files[analysis.SIM], files[pipeline.HYBRID]
    for path, _, loaded in sims:
        _check_sim_rows(path, loaded, traced_samples, out)

    if len(sims) == len(evals) == 1:
        # Slices re-derive from the one sim file and every record of the one eval file.
        for path, _, loaded in files[analysis.SLICES]:
            _check_slices(path, loaded, sims[0][2], evals[0][2], out)

    for path, header_seed, loaded in evals:
        if traced_samples:
            # Only the records of live samples are recounted into reports.
            records = []
            for line_no, record in loaded:
                if _check_eval_row(record, traced_samples, header_seed, path, line_no, out):
                    records.append(record)
            evaluated = {record.example_id for record in records}
            for qid, sample in traced_samples.items():
                if sample.live and qid not in evaluated:
                    out.add(path, 0, f"no eval record for live example {qid!r}")
            for report_name, _, reports in files[metrics.REPORT]:
                _check_report_against_eval(report_name, reports, traced_samples, records, out)

    return list(out)
