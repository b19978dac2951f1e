"""Controlled-variable analyses over traced samples.

Four facets: question-context similarity (native sentence-level Jaccard or
ingested external scores), quantile slices of the similarity gap against the
bias metric, completeness variants of the generated context (nature, hard
truncation, sentence-boundary truncation), and presentation-order sweeps.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

from . import metrics, pipeline, textnorm
from .errors import MissingScoreError, UndefinedMetricError, ValidationError
from .jsonl import RowSchema, iter_jsonl

SIM_METRICS = ("jaccard", "external")
AGGREGATIONS = ("max", "mean")
SCORE_KEYS = ("generated", "retrieved", "nature", "trunc", "strunc")
COMPLETENESS_VARIANTS = ("nature", "strunc", "trunc")
DEFAULT_MATCH_THRESHOLD = 0.05
DEFAULT_SLICES = 5

ORDER = metrics.report_schema("order")
COMPLETENESS = metrics.report_schema("variant")


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
    loaded = EXTERNAL_SCORE.load_keyed(iter_jsonl(path), path)
    return {pair: row.score for pair, (_, row) in loaded.items()}


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
    tokens = text.split()
    # Positions of the tokens word_count counts, those not punctuation only.
    # Tokens hold no whitespace, so one pass over them joined by spaces
    # strips each token on its own.
    stripped = textnorm.strip_punct(" ".join(tokens)).split(" ")
    counted = list(compress(range(len(tokens)), stripped))
    if len(counted) <= target_words:
        return text
    return " ".join(tokens[:counted[target_words - 1] + 1])


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
    SIM.write_table(out_path, records, manifest_hash, seed)
    return records


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
    subset field names its order."""
    chosen = select_subset(samples, subset)
    groups = []
    for order in ("generated_first", "retrieved_first", "random"):
        groups.append((order, pipeline.map_examples(
            lambda s, order=order: pipeline.hybrid_answer(reader, s, order, seed),
            chosen, workers)))
    reports = {r.subset: r for r in pipeline.build_reports(chosen, groups)}
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

    groups = []
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
        groups.append((variant, records))
    reports = {r.subset: r for r in pipeline.build_reports([s for s, _ in matched], groups)}
    COMPLETENESS.write_table(out_path, reports.values(), manifest_hash, seed)
    return reports
