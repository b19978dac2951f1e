"""Re-verification of pipeline outputs from the files alone.

The validator re-derives every checkable claim a file makes: stored word
counts, traced contexts against their contexts rows, each traced row's subset
and drop reason by trace's own :func:`pipeline.trace_decision` (except the
abstention reasons, whose set is config), hybrid classifications, report rows
and quantile slices.  It never trusts pipeline state; everything is recomputed
from the stored strings, so a file edited by hand or produced by a broken run
fails here with its line number.  Each problem is the :class:`SchemaError`
the readers raise, ``path:line: message`` as a string.

Each file is read once, top to bottom, into one cross-file state, its rows
loaded and checked one at a time; the checks across files run once all are
read.  Memory is bounded by one row at a time plus a little state per key: a
traced row keeps its example, candidates and verdict and a digest of each
context, a contexts row only its digest; the eval, sim and table rows, which
are small, are kept whole.
"""
from __future__ import annotations

import hashlib
from collections import defaultdict, deque
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterator, NamedTuple, Sequence

from . import analysis, metrics, pipeline, textnorm
from .errors import CtxTraceError, SchemaError
from .jsonl import MANIFEST_KEY, RowSchema, iter_output_jsonl, read_csv

PROPORTION_SUM_TOLERANCE = 1e-9
FRACTION_CELL_TOLERANCE = 5e-7  # report cells carry six decimals


class _Collector(list):
    def add(self, path: str | Path, line: int, message: str) -> None:
        self.append(SchemaError(path, line, message))


def _check_context_row(context: pipeline.Context, path: str | Path, line: int,
                       out: _Collector, expect_id: str | None = None) -> None:
    recount = textnorm.word_count(context.text)
    if expect_id is not None and context.id != expect_id:
        out.add(path, line, f"context id {context.id!r} does not match sample id {expect_id!r}")
    if context.word_count != recount:
        out.add(path, line, f"stored word_count {context.word_count} != recomputed {recount}")
    if context.source == "retrieved" and context.variant != "retrieved":
        out.add(path, line, "retrieved contexts must carry the retrieved variant")
    if context.source == "generated" and context.variant == "retrieved":
        out.add(path, line, "generated contexts cannot carry the retrieved variant")


def _check_traced_row(sample: pipeline.TracedSample, path: str | Path, line: int,
                      out: _Collector) -> None:
    for context in (sample.retrieved, sample.generated):
        _check_context_row(context, path, line, out, sample.example.id)
    if sample.retrieved.source != "retrieved" or sample.generated.source != "generated":
        out.add(path, line, "traced contexts are attached under the wrong sources")
        return
    if sample.dropped in ("abstained_gen", "abstained_ret"):
        # The abstention set is config, so only the row's shape is checked.
        if sample.subset != "none" or sample.closed_book is not None:
            out.add(path, line, f"{sample.dropped} row must have subset 'none' and no closed_book")
        return
    # An empty reply abstains under any abstention set, so with none given
    # this is trace's own verdict on a row it did not drop as an abstention.
    subset, dropped = pipeline.trace_decision(sample, ())
    if (sample.subset, sample.dropped) != (subset, dropped):
        out.add(path, line, f"stored subset {sample.subset!r}, dropped {sample.dropped!r} "
                            f"!= recomputed {subset!r}, {dropped!r}")


def _check_eval_row(record: pipeline.HybridRecord, samples: dict[str, _Kept],
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


def _check_row_counts(path: str | Path, schema: RowSchema,
                      reports: Sequence[tuple[int, metrics.MetricsReport]],
                      out: _Collector) -> None:
    """The row counts that need no record file: every order reads the same
    samples, and each live sample is in exactly one of AIG and AIR."""
    if schema is analysis.ORDER and reports:
        first = reports[0][1]
        for line, report in reports[1:]:
            if report.n != first.n:
                out.add(path, line, f"order {report.subset} n {report.n} != "
                                    f"order {first.subset} n {first.n}")
    elif schema is metrics.REPORT:
        parts = sum(report.n for _, report in reports if report.subset != "ALL")
        for line, report in reports:
            if report.subset == "ALL" and report.n != parts:
                out.add(path, line, f"ALL n {report.n} != {parts}, the sum of the subset rows")


def _check_sim_rows(path: str | Path, records: Sequence[tuple[int, analysis.SimilarityRecord]],
                    samples: dict[str, _Kept], out: _Collector) -> None:
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
                               samples: dict[str, _Kept],
                               records: Sequence[pipeline.HybridRecord],
                               out: _Collector) -> None:
    live = [s for s in samples.values() if s.live]
    try:
        recounted = pipeline.build_reports(live, pipeline.subset_groups(live, records))
    except CtxTraceError as exc:
        out.add(path, 0, f"cannot recount the report: {exc}")
        return
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
    """Each cell of a stored *row* against its *recount*, both as the writer stores them."""
    for col, stored, fresh, stored_cell, fresh_cell in zip(
            schema.cols, schema.values(row), schema.values(recount),
            schema.cells(row), schema.cells(recount)):
        if (stored is None) != (fresh is None):
            out.add(path, line, f"{label}: {col.key} tracking mismatch")
        elif col.kind is not str and stored_cell != fresh_cell:
            out.add(path, line, f"{label}: stored {col.key} {stored} != recount {fresh}")


# The file kinds validate recognises: a JSONL file by the exact key set of
# its first row of a known kind, which every later row must share (each row
# before it is unrecognized), a CSV file by its column row.
_JSONL_KINDS = {s.exact: s for s in (pipeline.CONTEXT, pipeline.TRACED, pipeline.HYBRID)}
_CSV_KINDS = {tuple(s.keys): s for s in (metrics.REPORT, analysis.SIM, analysis.SLICES,
                                         analysis.ORDER, analysis.COMPLETENESS)}


class _Kept(NamedTuple):
    """What the eval, report and sim checks read of a traced row: all of it
    but its two contexts, with its answers in their normalized forms alone."""

    example: pipeline.QaExample
    normalized_generated: str
    normalized_retrieved: str
    normalized_closed_book: str | None
    closed_book: str | None
    subset: str
    dropped: str | None

    live = pipeline.TracedSample.live  # trace's own rule, over these same fields


_kept_fields = attrgetter(*_Kept._fields)


# Every field of a context but its text, in field order.
_context_head = attrgetter(*(col.attr for col in pipeline.CONTEXT.cols if col.attr != "text"))


def _digest(context: pipeline.Context) -> bytes:
    """16 bytes that two contexts share exactly when they are equal: the
    repr of every other field, which reads back as the same values and ends
    where the tuple closes, then the text."""
    digest = hashlib.sha256(repr(_context_head(context)).encode())
    digest.update(context.text.encode("utf-8", "surrogatepass"))
    return digest.digest()[:16]


def _load_file(path: str | Path, bad_lines: list[SchemaError], problems: list[SchemaError],
               ) -> tuple[str, int, RowSchema | None, Iterator[tuple[Any, int, Any]]]:
    """(manifest hash, seed, schema, records) of one output file, where
    *records* yields (key, line, record) as each row loads; the schema is None
    for no rows or rows of no known kind.  A line that is not a JSON object
    goes to *bad_lines* and each other problem below the header to
    *problems*; a malformed header, or a byte that is not UTF-8, raises."""
    if str(path).endswith(".csv"):
        manifest_hash, seed, columns, table = read_csv(path)
        schema = _CSV_KINDS.get(tuple(columns))
        if schema is None:
            problems.append(SchemaError(path, columns.line_no, f"unrecognized columns {columns}"))
        rows: Iterator[tuple[int, Any]] = ((row.line_no, row) for row in table)
    else:
        rows = iter_output_jsonl(path, bad_lines)
        header = next(rows)[1]
        manifest_hash, seed = header[MANIFEST_KEY], header["seed"]
        schema = None
        for first in rows:
            schema = _JSONL_KINDS.get(frozenset(first[1]))
            if schema is not None:
                rows = chain([first], rows)
                break
            problems.append(SchemaError(path, first[0], "unrecognized row shape"))
    if schema is None:
        deque(rows, maxlen=0)  # the lines after may still be bad
        return manifest_hash, seed, None, iter(())
    return manifest_hash, seed, schema, schema.iter_keyed(rows, path, problems)


class _Inputs:
    """What the checks across files read of one call's files: a :class:`_Kept`
    per traced id no earlier file had and (path, line, id, source, digest) per
    traced context, a digest per contexts row's (id, source), and any other
    known kind's path, seed and (line, record) pairs.  Each id and source kept
    is the one string in *canon* of its value."""

    def __init__(self) -> None:
        self.manifests: dict[str, str] = {}
        self.traced: dict[str, _Kept] = {}
        self.traced_contexts: list[tuple[str | Path, int, str, str, bytes]] = []
        self.contexts: dict[tuple[str, str], bytes] = {}
        self.files: dict[RowSchema, list[tuple[str | Path, int, list]]] = defaultdict(list)
        self.canon: dict[str, str] = {}

    def read(self, path: str | Path) -> list[SchemaError]:
        """The problems of one output file: those below its header in line
        order, then those of its rows' own checks, which run as each row
        loads.  A file that fails to read adds nothing, not even its manifest."""
        if not Path(path).is_file():
            return [SchemaError(path, 0, "missing file")]
        bad_lines: list[SchemaError] = []
        problems: list[SchemaError] = []
        checks = _Collector()
        try:
            manifest_hash, seed, schema, records = _load_file(path, bad_lines, problems)
            if schema is pipeline.TRACED:
                kept, contexts = {}, []
                for qid, line_no, sample in records:
                    contexts += [(path, line_no, self.canon.setdefault(c.id, c.id),
                                  self.canon.setdefault(c.source, c.source), _digest(c))
                                 for c in (sample.retrieved, sample.generated)]
                    # A repeat inside one file failed to load; this is one across files.
                    if qid in self.traced:
                        checks.add(path, line_no, f"duplicate traced id {qid!r}")
                        continue
                    _check_traced_row(sample, path, line_no, checks)
                    kept[qid] = _Kept(*_kept_fields(sample))
                self.traced.update(kept)
                self.traced_contexts += contexts
            elif schema is pipeline.CONTEXT:
                digests = {}
                for (qid, source), line_no, context in records:
                    _check_context_row(context, path, line_no, checks)
                    key = self.canon.setdefault(qid, qid), self.canon.setdefault(source, source)
                    digests[key] = _digest(context)
                self.contexts.update(digests)
            elif schema is not None:
                rows = [(line_no, record) for _, line_no, record in records]
                self.files[schema].append((path, seed, rows))
                if schema.cls is metrics.MetricsReport:
                    _check_report_rows(path, rows, checks)
                    if not problems:  # a row that failed to load has no n to count
                        _check_row_counts(path, schema, rows, checks)
            self.manifests[str(path)] = manifest_hash
        except SchemaError as exc:
            # As if the file were read whole before any row loads: only its
            # unparsable lines and this error count.
            problems, checks = [exc], _Collector()
        found = sorted(bad_lines + problems, key=attrgetter("line_no"))
        for exc in found:  # keep no frame, and so no row, of the read alive
            exc.__traceback__ = exc.__cause__ = exc.__context__ = None
        return found + checks


def validate_files(paths: Sequence[str | Path]) -> list[SchemaError]:
    """Validate any mix of pipeline outputs; returns all problems found."""
    out = _Collector()
    inputs = _Inputs()
    for path in paths:
        out += inputs.read(path)

    if len(set(inputs.manifests.values())) > 1:
        listing = ", ".join(f"{p}={h}" for p, h in sorted(inputs.manifests.items()))
        out.add(min(inputs.manifests), 0, f"mixed manifest hashes across inputs: {listing}")

    if inputs.contexts:
        for path, line_no, qid, source, digest in inputs.traced_contexts:
            if inputs.contexts.get((qid, source)) != digest:
                out.add(path, line_no, f"{source} context differs from the contexts row of {qid!r}")

    traced, files = inputs.traced, inputs.files
    sims, evals = files[analysis.SIM], files[pipeline.HYBRID]
    for path, _, loaded in sims:
        _check_sim_rows(path, loaded, traced, out)

    if len(sims) == len(evals) == 1:
        # Slices re-derive from the one sim file and every record of the one eval file.
        for path, _, loaded in files[analysis.SLICES]:
            _check_slices(path, loaded, sims[0][2], evals[0][2], out)

    for path, header_seed, loaded in evals:
        if traced:
            # Only the records of live samples are recounted into reports.
            records = []
            for line_no, record in loaded:
                if _check_eval_row(record, traced, header_seed, path, line_no, out):
                    records.append(record)
            evaluated = {record.example_id for record in records}
            for qid, sample in traced.items():
                if sample.live and qid not in evaluated:
                    out.add(path, 0, f"no eval record for live example {qid!r}")
            for report_name, _, reports in files[metrics.REPORT]:
                _check_report_against_eval(report_name, reports, traced, records, out)

    return list(out)
