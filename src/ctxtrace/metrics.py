"""Bias and quality metrics over classified hybrid reads.

The headline number is diff_gr, the normalized gap between how often the
hybrid answer reproduced the generated candidate versus the retrieved one:
(rho_gen - rho_ret) / (rho_gen + rho_ret), in [-1, 1], positive when the
reader leans on generated contexts.  rho_llm (closed-book matches) is only
reported when closed-book answers were traced; in that case the "others"
bucket excludes them, otherwise such replies simply land in "others".
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import textnorm
from .errors import UndefinedMetricError, ValidationError
from .jsonl import RowSchema

if TYPE_CHECKING:  # import cycle guard; pipeline imports this module
    from .pipeline import Context, HybridRecord, QaExample

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


def report_schema(first_column: str, labels: tuple[str, ...] | None) -> RowSchema:
    """The report row format, its label column named *first_column* and
    holding one of *labels* (any label when None)."""
    return RowSchema(MetricsReport, "report", (first_column,), keys={"subset": first_column},
                     choices={"subset": labels}, fmt={"em_percent": ".4f"})


# Any label: besides evaluate's subsets, a report.csv may hold one row per
# retriever, assembled from several runs for the retriever comparison table.
REPORT = report_schema("subset", None)
read_report_csv = REPORT.read_table
write_report_csv = REPORT.write_table


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
    counts = Counter(record.classification for record in records)
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
        if record.normalized in example.normalized_answers:
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
        if any(textnorm.contains_normalized(context.normalized, gold)
               for gold in example.normalized_answers):
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
