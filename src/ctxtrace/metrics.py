"""Bias and quality metrics over classified hybrid reads.

The headline number is diff_gr, the normalized gap between how often the
hybrid answer reproduced the generated candidate versus the retrieved one:
(rho_gen - rho_ret) / (rho_gen + rho_ret), in [-1, 1], positive when the
reader leans on generated contexts.  rho_llm (closed-book matches) is only
reported when closed-book answers were traced; in that case the "others"
bucket excludes them, otherwise such replies simply land in "others".
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

from . import textnorm
from .errors import SchemaError, UndefinedMetricError, ValidationError
from .jsonl import CSV_FIRST_ROW_LINE, parse_cell, read_csv, write_csv

if TYPE_CHECKING:  # import cycle guard; pipeline imports this module
    from .pipeline import Context, HybridRecord, QaExample

REPORT_COLUMNS = ["subset", "n", "rho_gen", "rho_ret", "rho_llm", "others",
                  "diff_gr", "em_percent"]
LENGTH_WARN_THRESHOLD = 0.03


class Proportions(NamedTuple):
    rho_gen: float
    rho_ret: float
    rho_llm: float | None
    others: float


@dataclass(frozen=True)
class MetricsReport:
    """One report.csv row."""

    subset: str
    n: int
    rho_gen: float
    rho_ret: float
    rho_llm: float | None
    others: float
    diff_gr: float
    em_percent: float


@dataclass(frozen=True)
class LengthStats:
    mean_retrieved: float
    mean_generated: float
    discrepancy: float

    @property
    def warn(self) -> bool:
        return self.discrepancy > LENGTH_WARN_THRESHOLD


def proportions(records: Sequence["HybridRecord"],
                llm_tracked: bool | None = None) -> Proportions:
    """Fractions of hybrid answers per classification. Sums to 1.

    When *llm_tracked* is None it is inferred from the records (any "llm"
    classification implies closed-book answers were present).
    """
    if not records:
        raise UndefinedMetricError("proportions over an empty record set")
    n = len(records)
    counts = {"gen": 0, "ret": 0, "llm": 0, "other": 0}
    for record in records:
        counts[record.classification] += 1
    if llm_tracked is None:
        llm_tracked = counts["llm"] > 0
    if not llm_tracked and counts["llm"]:
        raise ValidationError("llm classifications present but closed-book not tracked")
    rho_llm = counts["llm"] / n if llm_tracked else None
    others = counts["other"] / n
    return Proportions(counts["gen"] / n, counts["ret"] / n, rho_llm, others)


def diff_gr(rho_gen: float, rho_ret: float) -> float:
    """Normalized generated-vs-retrieved gap; undefined when both are zero."""
    denominator = rho_gen + rho_ret
    if denominator == 0:
        raise UndefinedMetricError("diff_gr undefined: no gen or ret matches at all")
    return (rho_gen - rho_ret) / denominator


def em_score(records: Sequence["HybridRecord"],
             examples: Mapping[str, "QaExample"]) -> float:
    """Percentage of hybrid answers matching any gold answer."""
    if not records:
        raise UndefinedMetricError("em_score over an empty record set")
    hits = 0
    for record in records:
        example = examples.get(record.example_id)
        if example is None:
            raise ValidationError(f"no gold answers for example {record.example_id!r}")
        if textnorm.matches_any(record.answer, list(example.answers)):
            hits += 1
    return 100.0 * hits / len(records)


def recall(contexts: Mapping[str, "Context"],
           examples: Mapping[str, "QaExample"]) -> float:
    """Fraction of contexts containing at least one gold answer."""
    if not contexts:
        raise UndefinedMetricError("recall over an empty context set")
    hits = 0
    for qid, context in contexts.items():
        example = examples.get(qid)
        if example is None:
            raise ValidationError(f"no gold answers for example {qid!r}")
        if any(textnorm.contains_candidate(context.text, gold) for gold in example.answers):
            hits += 1
    return hits / len(contexts)


def length_stats(contexts: Sequence["Context"]) -> LengthStats:
    """Mean rendered word counts per source and their relative gap.

    The discrepancy is |mean_generated - mean_retrieved| / mean_retrieved;
    anything above 0.03 should be surfaced as a warning by callers.
    """
    retrieved = [c.word_count for c in contexts if c.source == "retrieved"]
    generated = [c.word_count for c in contexts if c.source == "generated"]
    if not retrieved or not generated:
        raise ValidationError("length_stats needs contexts from both sources")
    mean_ret = sum(retrieved) / len(retrieved)
    mean_gen = sum(generated) / len(generated)
    if mean_ret == 0:
        raise UndefinedMetricError("mean retrieved length is zero")
    return LengthStats(mean_ret, mean_gen, abs(mean_gen - mean_ret) / mean_ret)


def build_report(subset: str, records: Sequence["HybridRecord"],
                 examples: Mapping[str, "QaExample"], llm_tracked: bool) -> MetricsReport:
    parts = proportions(records, llm_tracked)
    return MetricsReport(
        subset=subset,
        n=len(records),
        rho_gen=parts.rho_gen,
        rho_ret=parts.rho_ret,
        rho_llm=parts.rho_llm,
        others=parts.others,
        diff_gr=diff_gr(parts.rho_gen, parts.rho_ret),
        em_percent=em_score(records, examples),
    )


def fmt_frac(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def report_to_cells(report: MetricsReport) -> list[str]:
    return [
        report.subset,
        str(report.n),
        fmt_frac(report.rho_gen),
        fmt_frac(report.rho_ret),
        fmt_frac(report.rho_llm),
        fmt_frac(report.others),
        fmt_frac(report.diff_gr),
        f"{report.em_percent:.4f}",
    ]


def report_from_cells(cells: Sequence[str], path: str | Path, line_no: int = 0) -> MetricsReport:
    if len(cells) != len(REPORT_COLUMNS):
        raise SchemaError(path, line_no, f"report row has {len(cells)} cells")

    def cell(i: int, kind: type = float) -> Any:
        return parse_cell(cells[i], kind, REPORT_COLUMNS[i], path, line_no)

    return MetricsReport(
        subset=cells[0],
        n=cell(1, int),
        rho_gen=cell(2),
        rho_ret=cell(3),
        rho_llm=cell(4) if cells[4] else None,
        others=cell(5),
        diff_gr=cell(6),
        em_percent=cell(7),
    )


def reports_from_rows(rows: Sequence[Sequence[str]], path: str | Path) -> list[MetricsReport]:
    """Parse the data rows :func:`jsonl.read_csv` returned for a report."""
    return [report_from_cells(row, path, line_no)
            for line_no, row in enumerate(rows, start=CSV_FIRST_ROW_LINE)]


def write_report_csv(path: str | Path, reports: Sequence[MetricsReport],
                     manifest_hash: str, seed: int) -> None:
    write_csv(path, REPORT_COLUMNS, [report_to_cells(r) for r in reports],
              manifest_hash, seed)


def read_report_csv(path: str | Path) -> tuple[str, int, list[MetricsReport]]:
    manifest_hash, seed, columns, rows = read_csv(path)
    if columns != REPORT_COLUMNS:
        raise ValidationError(f"{path}: unexpected report columns {columns}")
    return manifest_hash, seed, reports_from_rows(rows, path)


def render_markdown(reports: Sequence[MetricsReport]) -> str:
    """Two summary tables: exact match by subset, then answer origins."""
    lines = ["## Exact match", "", "| Subset | n | EM (%) |", "| --- | ---: | ---: |"]
    for r in reports:
        lines.append(f"| {r.subset} | {r.n} | {r.em_percent:.2f} |")
    lines += [
        "",
        "## Answer origin",
        "",
        "| Subset | rho_gen (%) | rho_ret (%) | rho_llm (%) | others (%) | DiffGR |",
        "| --- | ---: | ---: | ---: | ---: | ---: |",
    ]
    for r in reports:
        llm_cell = "-" if r.rho_llm is None else f"{100 * r.rho_llm:.2f}"
        lines.append(
            f"| {r.subset} | {100 * r.rho_gen:.2f} | {100 * r.rho_ret:.2f} "
            f"| {llm_cell} | {100 * r.others:.2f} | {r.diff_gr:.4f} |"
        )
    lines.append("")
    return "\n".join(lines)
