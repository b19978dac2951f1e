"""Controlled-variable analyses over traced samples.

Four facets: question-context similarity (native sentence-level Jaccard or
ingested external scores), quantile slices of the similarity gap against the
bias metric, completeness variants of the generated context (nature, hard
truncation, sentence-boundary truncation), and presentation-order sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import metrics, pipeline, textnorm
from .errors import MissingScoreError, SchemaError, UndefinedMetricError, ValidationError
from .jsonl import (
    CSV_FIRST_ROW_LINE,
    iter_jsonl,
    parse_cell,
    read_csv,
    require_field,
    require_finite,
    write_csv,
)
from .metrics import fmt_frac

SIM_METRICS = ("jaccard", "external")
AGGREGATIONS = ("max", "mean")
SCORE_KEYS = ("generated", "retrieved", "nature", "trunc", "strunc")
COMPLETENESS_VARIANTS = ("nature", "strunc", "trunc")
DEFAULT_MATCH_THRESHOLD = 0.05
DEFAULT_SLICES = 5

SIM_COLUMNS = ["example_id", "sim_gen", "sim_ret", "metric", "aggregation", "delta_sim"]
SLICE_COLUMNS = ["slice_index", "n", "mean_delta_sim", "diff_gr"]
ORDER_COLUMNS = ["order"] + metrics.REPORT_COLUMNS[1:]
COMPLETENESS_COLUMNS = ["variant"] + metrics.REPORT_COLUMNS[1:]


@dataclass(frozen=True)
class SimilarityRecord:
    example_id: str
    sim_gen: float
    sim_ret: float
    metric: str
    aggregation: str
    delta_sim: float


@dataclass(frozen=True)
class Slice:
    index: int
    example_ids: tuple[str, ...]
    mean_delta_sim: float
    diff_gr: float | None


def jaccard(a: set[str], b: set[str]) -> float:
    """Set overlap in [0, 1]; two empty sets count as identical."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def sentence_jaccard(question: str, context_text: str, aggregation: str = "max") -> float:
    """Question-context similarity: Jaccard per sentence, then max or mean."""
    if aggregation not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    spans = textnorm.split_sentences(context_text)
    if not spans:
        return 0.0
    question_tokens = set(textnorm.tokens(question))
    scores = [jaccard(question_tokens, set(textnorm.tokens(s.text))) for s in spans]
    return max(scores) if aggregation == "max" else sum(scores) / len(scores)


def context_similarity(question: str, context_text: str, metric: str = "jaccard",
                       aggregation: str = "max",
                       external_scores: Mapping[tuple[str, str], float] | None = None,
                       score_key: tuple[str, str] | None = None) -> float:
    """Similarity under the chosen metric.

    The external metric never touches the texts: it looks up an ingested
    (example_id, key) score and fails loudly when it is missing.
    """
    if metric == "jaccard":
        return sentence_jaccard(question, context_text, aggregation)
    if metric != "external":
        raise ValidationError(f"unknown similarity metric {metric!r}")
    if external_scores is None or score_key is None:
        raise MissingScoreError("external similarity needs ingested scores and a key")
    try:
        return external_scores[score_key]
    except KeyError:
        raise MissingScoreError(f"no ingested score for {score_key!r}") from None


def delta_sim(sim_gen: float, sim_ret: float) -> float:
    """Normalized similarity gap; undefined when both sides are zero."""
    denominator = sim_gen + sim_ret
    if denominator == 0:
        raise UndefinedMetricError("delta_sim undefined: both similarities are zero")
    return (sim_gen - sim_ret) / denominator


def ingest_similarity(path: str | Path) -> dict[tuple[str, str], float]:
    """Load external similarity scores keyed by (example_id, key).

    Rows hold {"example_id", "key", "score"} with key one of generated,
    retrieved, nature, trunc, strunc and score in [-1, 1].
    """
    scores: dict[tuple[str, str], float] = {}
    for line_no, obj in iter_jsonl(path):
        example_id = require_field(obj, "example_id", str, path, line_no)
        key = require_field(obj, "key", str, path, line_no)
        if key not in SCORE_KEYS:
            raise SchemaError(path, line_no, f"unknown score key {key!r}")
        score = require_field(obj, "score", (int, float), path, line_no)
        score = require_finite(float(score), "score", path, line_no)
        if not -1.0 <= score <= 1.0:
            raise SchemaError(path, line_no, f"score out of range [-1, 1]: {score}")
        pair = (example_id, key)
        if pair in scores:
            raise SchemaError(path, line_no, f"duplicate score for {pair!r}")
        scores[pair] = score
    return scores


def build_similarity_records(samples: Sequence[pipeline.TracedSample], metric: str = "jaccard",
                             aggregation: str = "max",
                             external_scores: Mapping[tuple[str, str], float] | None = None,
                             ) -> list[SimilarityRecord]:
    """One similarity record per live sample.

    A degenerate pair with zero similarity on both sides gets delta_sim 0.0
    rather than killing the whole analysis.
    """
    records = []
    for sample in samples:
        qid = sample.example.id
        sim_gen = context_similarity(sample.example.question, sample.generated.text,
                                     metric, aggregation, external_scores, (qid, "generated"))
        sim_ret = context_similarity(sample.example.question, sample.retrieved.text,
                                     metric, aggregation, external_scores, (qid, "retrieved"))
        delta = delta_sim(sim_gen, sim_ret) if sim_gen + sim_ret else 0.0
        records.append(SimilarityRecord(qid, sim_gen, sim_ret, metric, aggregation, delta))
    return records


def quantile_slices(records: Sequence[SimilarityRecord], n: int) -> list[Slice]:
    """Contiguous slices of the records sorted by (delta_sim, example_id).

    Slice sizes differ by at most one; when the count is not divisible the
    first slices take the extra records.
    """
    if not records:
        raise ValidationError("cannot slice an empty record set")
    if n < 1 or n > len(records):
        raise ValidationError(f"slice count {n} out of range 1..{len(records)}")
    ordered = sorted(records, key=lambda r: (r.delta_sim, r.example_id))
    base, extra = divmod(len(ordered), n)
    slices: list[Slice] = []
    position = 0
    for index in range(n):
        size = base + (1 if index < extra else 0)
        chunk = ordered[position:position + size]
        position += size
        slices.append(Slice(
            index=index,
            example_ids=tuple(r.example_id for r in chunk),
            mean_delta_sim=sum(r.delta_sim for r in chunk) / len(chunk),
            diff_gr=None,
        ))
    return slices


def slice_report(slices: Sequence[Slice],
                 eval_records: Sequence[pipeline.HybridRecord]) -> list[Slice]:
    """Fill each slice's diff_gr from the hybrid classifications."""
    by_id = {r.example_id: r for r in eval_records}
    out = []
    for piece in slices:
        chosen = []
        for example_id in piece.example_ids:
            record = by_id.get(example_id)
            if record is None:
                raise ValidationError(f"no eval record for sliced example {example_id!r}")
            chosen.append(record)
        parts = metrics.proportions(chosen)
        out.append(replace(piece, diff_gr=metrics.diff_gr(parts.rho_gen, parts.rho_ret)))
    return out


def trunc(text: str, target_words: int) -> str:
    """First *target_words* words, punctuation staying glued to its word.

    Inputs at or under the target come back unchanged; truncated output is
    single-spaced. Idempotent at a fixed target.
    """
    if target_words <= 0:
        raise ValidationError(f"target_words must be positive: {target_words}")
    if textnorm.word_count(text) <= target_words:
        return text
    kept: list[str] = []
    words = 0
    for token in text.split():
        kept.append(token)
        if textnorm.word_count(token):
            words += 1
            if words == target_words:
                break
    return " ".join(kept)


def s_trunc(text: str, target_words: int) -> str:
    """Longest whole-sentence prefix within *target_words* words.

    A first sentence already over the target is returned whole, so the
    result never breaks mid-sentence. Idempotent at a fixed target.
    """
    if target_words <= 0:
        raise ValidationError(f"target_words must be positive: {target_words}")
    sentences = textnorm.split_sentences(text)
    if not sentences:
        return text
    total = 0
    end: int | None = None
    for span in sentences:
        count = textnorm.word_count(span.text)
        if total + count > target_words:
            break
        total += count
        end = span.end
    else:
        return text
    if end is None:
        return text[:sentences[0].end]
    return text[:end]


@dataclass(frozen=True)
class CompletenessVariants:
    """The three generated-context variants for one sample, plus the
    per-variant similarity scores used for the matched filter."""

    example_id: str
    nature: pipeline.Context
    trunc: pipeline.Context
    strunc: pipeline.Context
    sim_scores: dict[str, float]

    def context(self, variant: str) -> pipeline.Context:
        return {"nature": self.nature, "trunc": self.trunc, "strunc": self.strunc}[variant]


def similarity_matched(sim_scores: Mapping[str, float],
                       threshold: float = DEFAULT_MATCH_THRESHOLD) -> bool:
    """True when all pairwise score gaps across variants stay under the
    threshold, so completeness comparisons are not confounded by relevance."""
    values = [sim_scores[k] for k in COMPLETENESS_VARIANTS]
    widest = max(abs(x - y) for x in values for y in values)
    return widest < threshold


def build_completeness_variants(sample: pipeline.TracedSample, unconstrained_text: str,
                                metric: str = "jaccard", aggregation: str = "max",
                                external_scores: Mapping[tuple[str, str], float] | None = None,
                                ) -> CompletenessVariants:
    """Derive trunc/strunc contexts from one unconstrained generation.

    Both truncations target the word count of the sample's retrieved
    context; nature is the length-prompted generation already on the sample.
    """
    if not unconstrained_text.strip():
        raise ValidationError(f"empty unconstrained generation for {sample.example.id!r}")
    target = sample.retrieved.word_count
    nature = sample.generated
    contexts = {"nature": nature}
    for variant, text in (("trunc", trunc(unconstrained_text, target)),
                          ("strunc", s_trunc(unconstrained_text, target))):
        contexts[variant] = replace(
            nature,
            text=text,
            word_count=textnorm.word_count(text),
            gen_target_words=None,
            variant=variant,
        )
    qid = sample.example.id
    sim_scores = {
        variant: context_similarity(sample.example.question, context.text, metric,
                                    aggregation, external_scores, (qid, variant))
        for variant, context in contexts.items()
    }
    return CompletenessVariants(qid, contexts["nature"], contexts["trunc"],
                                contexts["strunc"], sim_scores)


# ---------------------------------------------------------------------------
# Analyze runners backing the CLI.

def select_subset(samples: Sequence[pipeline.TracedSample], subset: str,
                  ) -> list[pipeline.TracedSample]:
    """Live samples of one subset (AIG, AIR or ALL); empty is an error."""
    if subset not in ("AIG", "AIR", "ALL"):
        raise ValidationError(f"unknown subset {subset!r}")
    chosen = [s for s in samples if s.live and subset in ("ALL", s.subset)]
    if not chosen:
        raise ValidationError(f"no live samples in subset {subset!r}")
    return chosen


def run_sim(samples: Sequence[pipeline.TracedSample], subset: str, metric: str,
            aggregation: str, external_scores: Mapping[tuple[str, str], float] | None,
            out_path: str | Path, manifest_hash: str, seed: int) -> list[SimilarityRecord]:
    chosen = select_subset(samples, subset)
    records = build_similarity_records(chosen, metric, aggregation, external_scores)
    rows = [[r.example_id, fmt_frac(r.sim_gen), fmt_frac(r.sim_ret), r.metric, r.aggregation,
             fmt_frac(r.delta_sim)] for r in records]
    write_csv(out_path, SIM_COLUMNS, rows, manifest_hash, seed)
    return records


def read_sim_csv(path: str | Path) -> tuple[str, int, list[SimilarityRecord]]:
    manifest_hash, seed, columns, rows = read_csv(path)
    if columns != SIM_COLUMNS:
        raise ValidationError(f"{path}: unexpected similarity columns {columns}")
    records = []
    for line_no, row in enumerate(rows, start=CSV_FIRST_ROW_LINE):
        if len(row) != len(SIM_COLUMNS):
            raise SchemaError(path, line_no, f"similarity row has {len(row)} cells")
        sim_gen, sim_ret, delta = (parse_cell(row[i], float, SIM_COLUMNS[i], path, line_no)
                                   for i in (1, 2, 5))
        records.append(SimilarityRecord(row[0], sim_gen, sim_ret, row[3], row[4], delta))
    return manifest_hash, seed, records


def run_slices(sim_records: Sequence[SimilarityRecord],
               eval_records: Sequence[pipeline.HybridRecord], n: int,
               out_path: str | Path, manifest_hash: str, seed: int) -> list[Slice]:
    filled = slice_report(quantile_slices(sim_records, n), eval_records)
    rows = [[str(s.index), str(len(s.example_ids)), fmt_frac(s.mean_delta_sim),
             fmt_frac(s.diff_gr)] for s in filled]
    write_csv(out_path, SLICE_COLUMNS, rows, manifest_hash, seed)
    return filled


def run_order(samples: Sequence[pipeline.TracedSample], reader: pipeline.Reader,
              subset: str, seed: int, out_path: str | Path, manifest_hash: str,
              workers: int = 1) -> dict[str, metrics.MetricsReport]:
    """Sweep all three presentation orders over one subset."""
    chosen = select_subset(samples, subset)
    examples = {s.example.id: s.example for s in chosen}
    llm_tracked = any(s.closed_book is not None for s in chosen)
    rows = []
    reports: dict[str, metrics.MetricsReport] = {}
    for order in ("generated_first", "retrieved_first", "random"):
        records = pipeline.map_examples(
            lambda s, order=order: pipeline.hybrid_answer(reader, s, order, seed),
            chosen, workers)
        report = metrics.build_report(subset, records, examples, llm_tracked)
        reports[order] = report
        rows.append([order] + metrics.report_to_cells(report)[1:])
    write_csv(out_path, ORDER_COLUMNS, rows, manifest_hash, seed)
    return reports


def run_completeness(samples: Sequence[pipeline.TracedSample], reader: pipeline.Reader,
                     generator: pipeline.Generator, subset: str, order: str, seed: int,
                     metric: str, aggregation: str,
                     external_scores: Mapping[tuple[str, str], float] | None,
                     threshold: float, abstentions: Sequence[str],
                     out_path: str | Path, manifest_hash: str,
                     workers: int = 1) -> dict[str, metrics.MetricsReport]:
    """Compare nature/strunc/trunc generated variants against retrieval.

    Each sample gets one unconstrained generation; variants whose similarity
    scores diverge beyond the threshold are filtered out so only completeness
    varies.  Every surviving variant is re-traced (fresh candidate answer,
    abstention and containment checks) and then read in hybrid with the
    retrieved context.
    """
    chosen = select_subset(samples, subset)

    def build(sample: pipeline.TracedSample) -> CompletenessVariants:
        unconstrained = generator.generate(sample.example, None)
        return build_completeness_variants(sample, unconstrained, metric, aggregation,
                                           external_scores)

    variants = pipeline.map_examples(build, chosen, workers)
    matched = [(s, v) for s, v in zip(chosen, variants)
               if similarity_matched(v.sim_scores, threshold)]
    if not matched:
        raise ValidationError("similarity-matched filter removed every sample")

    examples = {s.example.id: s.example for s, _ in matched}
    llm_tracked = any(s.closed_book is not None for s, _ in matched)
    rows = []
    reports: dict[str, metrics.MetricsReport] = {}
    for variant in COMPLETENESS_VARIANTS:

        def eval_one(pair: tuple[pipeline.TracedSample, CompletenessVariants],
                     ) -> pipeline.HybridRecord | None:
            sample, built = pair
            context = built.context(variant)
            if variant == "nature":
                candidate = sample.answer_from_generated
            else:
                candidate = pipeline.candidate_answer(reader, sample.example, context)
                if pipeline.is_abstention(candidate, abstentions) or not textnorm.contains_answer(
                        context.text, candidate):
                    return None
            stand_in = replace(sample, generated=context, answer_from_generated=candidate)
            return pipeline.hybrid_answer(reader, stand_in, order, seed)

        records = [r for r in pipeline.map_examples(eval_one, matched, workers)
                   if r is not None]
        if not records:
            raise ValidationError(f"no evaluable samples for variant {variant!r}")
        report = metrics.build_report(variant, records, examples, llm_tracked)
        reports[variant] = report
        rows.append([variant] + metrics.report_to_cells(report)[1:])
    write_csv(out_path, COMPLETENESS_COLUMNS, rows, manifest_hash, seed)
    return reports
