"""Controlled-variable analyses over traced samples.

Four facets: question-context similarity (native sentence-level Jaccard or
ingested external scores), quantile slices of the similarity gap against the
bias metric, completeness variants of the generated context (nature, hard
truncation, sentence-boundary truncation), and presentation-order sweeps.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

from . import metrics, pipeline, textnorm
from .errors import MissingScoreError, UndefinedMetricError, ValidationError
from .jsonl import RowSchema

SIM_METRICS = ("jaccard", "external")
AGGREGATIONS = ("max", "mean")
SCORE_KEYS = ("generated", "retrieved", "nature", "trunc", "strunc")
COMPLETENESS_VARIANTS = ("nature", "strunc", "trunc")
DEFAULT_MATCH_THRESHOLD = 0.05
DEFAULT_SLICES = 5

ORDER = metrics.report_schema("order", pipeline.ORDERS)
COMPLETENESS = metrics.report_schema("variant", COMPLETENESS_VARIANTS)


@dataclass(frozen=True)
class SimilarityRecord:
    example_id: str
    sim_gen: float
    sim_ret: float
    metric: str
    aggregation: str
    delta_sim: float


SIM = RowSchema(SimilarityRecord, "sim", ("example_id",),
                choices={"metric": SIM_METRICS, "aggregation": AGGREGATIONS})
read_sim_csv = SIM.read_table


@dataclass(frozen=True)
class Slice:
    index: int
    example_ids: tuple[str, ...]
    mean_delta_sim: float
    diff_gr: float | None

    def row(self) -> SliceRow:
        return SliceRow(self.index, len(self.example_ids), self.mean_delta_sim, self.diff_gr)


@dataclass(frozen=True)
class SliceRow:
    """One slices.csv row: a filled slice, counted."""

    slice_index: int
    n: int
    mean_delta_sim: float
    diff_gr: float | None


SLICES = RowSchema(SliceRow, "slice", ("slice_index",))


def jaccard(a: set[str], b: set[str]) -> float:
    """Set overlap in [0, 1]; two empty sets count as identical."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def sentence_jaccard(question: str, context_text: str, aggregation: str = "max") -> float:
    """Question-context similarity: Jaccard per sentence, then max or mean,
    over the :func:`textnorm.tokens` of the question and of each sentence."""
    words = textnorm.split_words(context_text)
    return _words_jaccard(set(textnorm.tokens(question)), words, len(words.words), aggregation)


def _words_jaccard(question_tokens: set[str], words: textnorm.Words, stop: int,
                   aggregation: str) -> float:
    """:func:`sentence_jaccard` over the sentences of the first *stop* of
    *words*, with the question already tokenized."""
    if aggregation not in AGGREGATIONS:
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    scores = [jaccard(question_tokens, words.token_set(start, end))
              for start, end in words.sentences(stop)]
    if not scores:
        return 0.0
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


@dataclass(slots=True)
class ExternalScore:
    example_id: str
    key: str
    score: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.score <= 1.0:
            raise ValueError(f"score out of range [-1, 1]: {self.score}")


EXTERNAL_SCORE = RowSchema(ExternalScore, "score", ("example_id", "key"),
                           choices={"key": SCORE_KEYS})


def ingest_similarity(path: str | Path) -> dict[tuple[str, str], float]:
    """The score of each :data:`EXTERNAL_SCORE` row, keyed by (example_id, key)."""
    return {pair: row.score for pair, _, row in EXTERNAL_SCORE.read(path)}


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
    return _truncations(textnorm.split_words(text), target_words)["trunc"][0]


def s_trunc(text: str, target_words: int) -> str:
    """Longest whole-sentence prefix within *target_words* words.

    A first sentence already over the target is returned whole, so the
    result never breaks mid-sentence. Idempotent at a fixed target.
    """
    return _truncations(textnorm.split_words(text), target_words)["strunc"][0]


def _truncations(words: textnorm.Words, target_words: int) -> dict[str, tuple[str, int, int]]:
    """{variant: (text, word count, words kept)} for :func:`trunc` and
    :func:`s_trunc` of the text of *words*, cut from its one split."""
    if target_words <= 0:
        raise ValidationError(f"target_words must be positive: {target_words}")
    # Positions of the words word_count counts, those not punctuation only.
    counted = list(compress(range(len(words.words)), words.normalized))
    if len(counted) <= target_words:
        whole = (words.text, len(counted), len(words.words))
        return {"trunc": whole, "strunc": whole}
    cut = counted[target_words - 1] + 1
    # strunc keeps the first k sentences, k the most whose counted words stay
    # within the target: those that end at or before the first counted word
    # past it.  A first sentence already over the target is kept whole.
    kept = words.ends[max(bisect_right(words.ends, counted[target_words]), 1) - 1]
    return {"trunc": (" ".join(words.words[:cut]), target_words, cut),
            "strunc": (words.prefix(kept), bisect_left(counted, kept), kept)}


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
                                ) -> tuple[dict[str, pipeline.Context], dict[str, float]]:
    """{variant: Context} for one sample, and each variant's similarity score.

    trunc and strunc cut one unconstrained generation to the word count of the
    sample's retrieved context; nature is the generation already on the sample.
    The generation goes through one :func:`textnorm.split_words` pass: both
    cuts, their word counts and, under the jaccard metric, their scores come
    from it.
    """
    if not unconstrained_text.strip():
        raise ValidationError(f"empty unconstrained generation for {sample.example.id!r}")
    words = textnorm.split_words(unconstrained_text)
    cuts = _truncations(words, sample.retrieved.word_count)
    qid = sample.example.id
    question = sample.example.question
    nature = sample.generated
    contexts = {"nature": nature}
    sim_scores = {"nature": context_similarity(question, nature.text, metric, aggregation,
                                               external_scores, (qid, "nature"))}
    question_tokens = set(textnorm.tokens(question))
    for variant, (text, word_count, kept) in cuts.items():
        contexts[variant] = replace(nature, text=text, word_count=word_count,
                                    gen_target_words=None, variant=variant)
        sim_scores[variant] = (_words_jaccard(question_tokens, words, kept, aggregation)
                               if metric == "jaccard" else
                               context_similarity(question, text, metric, aggregation,
                                                  external_scores, (qid, variant)))
    return contexts, sim_scores


# ---------------------------------------------------------------------------
# Analyze runners backing the CLI.

def run_sim(samples: Sequence[pipeline.TracedSample], subset: str, metric: str,
            aggregation: str, external_scores: Mapping[tuple[str, str], float] | None,
            out_path: str | Path, manifest_hash: str, seed: int) -> list[SimilarityRecord]:
    chosen = pipeline.select_subset(samples, subset)
    records = build_similarity_records(chosen, metric, aggregation, external_scores)
    SIM.write_table(out_path, records, manifest_hash, seed)
    # The records as sim.csv stores them, so run_slices gives what validate re-derives.
    return [SIM.parse(SIM.cells(r), out_path) for r in records]


def run_slices(sim_records: Sequence[SimilarityRecord],
               eval_records: Sequence[pipeline.HybridRecord], n: int,
               out_path: str | Path, manifest_hash: str, seed: int) -> list[Slice]:
    filled = slice_report(quantile_slices(sim_records, n), eval_records)
    SLICES.write_table(out_path, [s.row() for s in filled], manifest_hash, seed)
    return filled


def run_order(samples: Sequence[pipeline.TracedSample], reader: pipeline.Reader,
              subset: str, seed: int, out_path: str | Path, manifest_hash: str,
              workers: int = 1) -> dict[str, metrics.MetricsReport]:
    """Sweep all three presentation orders over one subset; each report's
    subset field names its order.

    Only the two fixed orders are read: each sample's random-order record is
    its record under the order :func:`pipeline.resolve_order` draws for it.
    """
    chosen = pipeline.select_subset(samples, subset)
    fixed = {order: pipeline.read_hybrid(reader, chosen, order, seed, workers)
             for order in ("generated_first", "retrieved_first")}
    drawn = [replace(fixed[pipeline.resolve_order("random", seed, s.example.id)][i],
                     order="random") for i, s in enumerate(chosen)]
    reports = pipeline.build_reports(chosen, [*fixed.items(), ("random", drawn)])
    ORDER.write_table(out_path, reports.values(), manifest_hash, seed)
    return reports


def run_completeness(samples: Sequence[pipeline.TracedSample], reader: pipeline.Reader,
                     generator: pipeline.Generator, subset: str, order: str, seed: int,
                     metric: str, aggregation: str,
                     external_scores: Mapping[tuple[str, str], float] | None,
                     threshold: float, abstentions: Sequence[str],
                     out_path: str | Path, manifest_hash: str,
                     workers: int = 1) -> dict[str, metrics.MetricsReport]:
    """Compare nature/strunc/trunc generated variants against retrieval.

    One pass does each sample's work: one unconstrained generation, and a
    sample whose variants' similarity scores diverge beyond the threshold is
    filtered out so only completeness varies.  Each truncated variant is read
    alone for a fresh candidate (nature keeps the stored one) and re-traced by
    :func:`pipeline.trace_decision`; it is read in hybrid with the retrieved
    context only if it keeps the subset.
    """
    abstained = frozenset(map(textnorm.normalize_answer, abstentions))

    def sweep(sample: pipeline.TracedSample) -> dict[str, pipeline.HybridRecord] | None:
        """{variant: hybrid record} of the variants kept; None if filtered out."""
        contexts, sim_scores = build_completeness_variants(
            sample, generator.generate(sample.example, None), metric, aggregation, external_scores)
        if not similarity_matched(sim_scores, threshold):
            return None
        records = {}
        for variant in COMPLETENESS_VARIANTS:
            # nature is the sample's own generation and candidate, so the
            # sample stands for it, with the normalized forms it has cached.
            stand_in = sample if variant == "nature" else replace(
                sample, generated=contexts[variant],
                answer_from_generated=reader.answer(sample.example, [contexts[variant]]))
            if pipeline.trace_decision(stand_in, abstained) == (sample.subset, None):
                records[variant] = pipeline.hybrid_answer(reader, stand_in, order, seed)
        return records

    chosen = pipeline.select_subset(samples, subset)
    swept = pipeline.map_examples(sweep, chosen, workers)
    matched = [s for s, records in zip(chosen, swept) if records is not None]
    if not matched:
        raise ValidationError("similarity-matched filter removed every sample")
    groups = [(variant, [records[variant] for records in swept
                         if records is not None and variant in records])
              for variant in COMPLETENESS_VARIANTS]
    for variant, records in groups:
        if not records:
            raise ValidationError(f"no evaluable samples for variant {variant!r}")
    reports = pipeline.build_reports(matched, groups)
    COMPLETENESS.write_table(out_path, reports.values(), manifest_hash, seed)
    return reports
