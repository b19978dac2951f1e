"""Context-conflicting dataset construction and hybrid-context evaluation.

A sample pairs one retrieved passage and one generated passage for the same
question.  Candidate answers are read from each context alone; samples
survive only when each candidate actually appears in its own context
(traceability) and exactly one candidate matches the gold answers
(exclusivity).  Surviving samples split into two subsets: AIG (answer only
in the generated context is correct) and AIR (answer only in the retrieved
context is correct).  A hybrid read then shows both contexts at once, and
the reply is classified by which candidate it reproduces.
"""
from __future__ import annotations

import random
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import metrics, textnorm
from .backends import (
    BackendSpec,
    GenerationScript,
    HttpBackend,
    ReaderScript,
    RetrievedHit,
    context_fingerprint,
)
from .errors import EmptyResponseError, SchemaError, ValidationError
from .jsonl import header_obj, iter_jsonl, read_output_jsonl, require_field, write_jsonl

SOURCES = ("retrieved", "generated")
VARIANTS = ("nature", "trunc", "strunc", "retrieved")
ORDERS = ("random", "generated_first", "retrieved_first")
SUBSETS = ("AIG", "AIR", "none")
CLASSIFICATIONS = ("gen", "ret", "llm", "other")
DROP_REASONS = ("abstained_gen", "abstained_ret", "not_in_gen", "not_in_ret", "parametric")

GENERATION_PROMPT = (
    "Generate a background context from Wikipedia to answer the given "
    "question {#question}. Keep the length of the document around {#n} words."
)
GENERATION_PROMPT_UNCONSTRAINED = (
    "Generate a background context from Wikipedia to answer the given "
    "question {#question}."
)
READING_PROMPT = (
    "Refer to the context below and answer the following question with "
    "just one entity. context: {#contexts} Question: {#question} The answer is"
)
CLOSED_BOOK_PROMPT = (
    "Answer the following question with just one entity. "
    "Question: {#question} The answer is"
)

DEFAULT_ABSTENTIONS = ("unknown", "i dont know", "not enough information", "no answer")
DEFAULT_LENGTH_CANDIDATES = (80, 100, 120)
CONTEXT_JOIN = "\n"

_PLACEHOLDER_RE = re.compile(r"\{#(question|contexts|n)\}")


def render_template(template: str, **values: Any) -> str:
    """Substitute {#question}/{#contexts}/{#n} placeholders in one pass."""

    def sub(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in values:
            raise ValidationError(f"template placeholder {{#{name}}} has no value here")
        return str(values[name])

    return _PLACEHOLDER_RE.sub(sub, template)


@dataclass(frozen=True)
class PromptSet:
    generation: str = GENERATION_PROMPT
    generation_unconstrained: str = GENERATION_PROMPT_UNCONSTRAINED
    reading: str = READING_PROMPT
    closed_book: str = CLOSED_BOOK_PROMPT


@dataclass(frozen=True)
class QaExample:
    id: str
    question: str
    answers: tuple[str, ...]


@dataclass(frozen=True)
class Context:
    """One passage as handed to readers, with its bookkeeping.

    ``text`` is the rendered form: retrieved passages arrive wrapped as
    "Title: {title} Content: {body}", generated ones verbatim.  ``word_count``
    always counts the rendered text.
    """

    id: str
    source: str
    backend: str
    title: str | None
    text: str
    word_count: int
    gen_target_words: int | None
    variant: str


@dataclass(frozen=True)
class TracedSample:
    example: QaExample
    retrieved: Context
    generated: Context
    answer_from_retrieved: str
    answer_from_generated: str
    closed_book: str | None
    subset: str
    dropped: str | None

    @property
    def live(self) -> bool:
        return self.dropped is None and self.subset in ("AIG", "AIR")


@dataclass(frozen=True)
class HybridRecord:
    example_id: str
    order: str
    seed: int
    answer: str
    classification: str


def render_passage(title: str, body: str) -> str:
    return f"Title: {title} Content: {body}"


class _Backend:
    """Scripted-or-HTTP construction shared by readers and generators.

    Scripted backends load their table from ``spec.script_path`` unless one
    is passed in; HTTP backends build a client unless a transport is passed.
    """

    _script_type: Any

    def __init__(self, spec: BackendSpec, prompts: PromptSet,
                 transport: HttpBackend | None = None, script: Any = None) -> None:
        self.spec = spec
        self.prompts = prompts
        if spec.kind == "scripted":
            self._script = script if script is not None else self._script_type.load(spec.script_path)
            self._transport = None
        else:
            self._script = None
            self._transport = transport if transport is not None else HttpBackend(spec)

    @property
    def name(self) -> str:
        return self.spec.name


class Reader(_Backend):
    """Question answering over zero, one, or two contexts.

    HTTP readers build prompts from the template set; scripted readers look
    up (question_id, mode, context fingerprint) in their table.
    """

    _script_type = ReaderScript

    def answer(self, example: QaExample, context_texts: Sequence[str] | None, mode: str) -> str:
        if mode == "closed_book":
            if self._script is not None:
                return self._script.answer(example.id, mode, None)
            prompt = render_template(self.prompts.closed_book, question=example.question)
            return self._transport.complete(prompt)
        if not context_texts:
            raise ValidationError(f"{mode} read needs at least one context")
        block = CONTEXT_JOIN.join(context_texts)
        if self._script is not None:
            fingerprint = context_fingerprint(context_texts[0] if mode == "single_context" else block)
            return self._script.answer(example.id, mode, fingerprint)
        prompt = render_template(self.prompts.reading, contexts=block, question=example.question)
        return self._transport.complete(prompt)


class Generator(_Backend):
    """Context generation, length-constrained or free-running."""

    _script_type = GenerationScript

    def generate(self, example: QaExample, target_words: int | None) -> str:
        if self._script is not None:
            return self._script.text_for(example.id, target_words)
        if target_words is None:
            prompt = render_template(self.prompts.generation_unconstrained,
                                     question=example.question)
        else:
            prompt = render_template(self.prompts.generation,
                                     question=example.question, n=target_words)
        return self._transport.complete(prompt)


def prepare_retrieved(retriever: Any, example: QaExample) -> Context:
    """Fetch and render the top retrieved passage for one question."""
    hit: RetrievedHit = retriever.retrieve(example.id, example.question)
    text = render_passage(hit.title, hit.body)
    return Context(
        id=example.id,
        source="retrieved",
        backend=retriever.name,
        title=hit.title,
        text=text,
        word_count=textnorm.word_count(text),
        gen_target_words=None,
        variant="retrieved",
    )


def generate_length_matched(generator: Generator, example: QaExample, target: int,
                            candidates: Sequence[int]) -> Context:
    """Generate once per candidate length and keep the closest to *target*.

    Closeness is measured on the actual word count; ties go to the smaller
    requested length.  Empty generations are skipped; all-empty is an
    empty-response error.
    """
    if not candidates:
        raise ValidationError("length_candidates must not be empty")
    best: tuple[tuple[int, int], int, str, int] | None = None
    for n in candidates:
        text = generator.generate(example, n)
        if not text.strip():
            continue
        wc = textnorm.word_count(text)
        key = (abs(wc - target), n)
        if best is None or key < best[0]:
            best = (key, n, text, wc)
    if best is None:
        raise EmptyResponseError(f"all generations empty for question {example.id!r}")
    _, n, text, wc = best
    return Context(
        id=example.id,
        source="generated",
        backend=generator.name,
        title=None,
        text=text,
        word_count=wc,
        gen_target_words=n,
        variant="nature",
    )


def is_abstention(answer: str, abstentions: Sequence[str]) -> bool:
    """Abstention check on normalized forms; empty replies abstain too."""
    norm = textnorm.normalize_answer(answer)
    if not norm:
        return True
    return any(norm == textnorm.normalize_answer(a) for a in abstentions)


def candidate_answer(reader: Reader, example: QaExample, context: Context) -> str:
    """Read the answer from one context alone."""
    return reader.answer(example, [context.text], "single_context")


def closed_book(reader: Reader, example: QaExample) -> str:
    """Read the answer with no context at all."""
    return reader.answer(example, None, "closed_book")


def traceability_drop_reason(answer_from_generated: str, answer_from_retrieved: str,
                             generated: Context, retrieved: Context,
                             abstentions: Sequence[str]) -> str | None:
    """Why a sample leaves the pool, or None to keep it.

    Checked in a fixed order: generated abstention, retrieved abstention,
    generated containment, retrieved containment.
    """
    if is_abstention(answer_from_generated, abstentions):
        return "abstained_gen"
    if is_abstention(answer_from_retrieved, abstentions):
        return "abstained_ret"
    if not textnorm.contains_answer(generated.text, answer_from_generated):
        return "not_in_gen"
    if not textnorm.contains_answer(retrieved.text, answer_from_retrieved):
        return "not_in_ret"
    return None


def exclusivity_label(answer_from_generated: str, answer_from_retrieved: str,
                      golds: Sequence[str]) -> str:
    """AIG, AIR, or none, depending on which candidate alone is correct."""
    gen_ok = textnorm.matches_any(answer_from_generated, list(golds))
    ret_ok = textnorm.matches_any(answer_from_retrieved, list(golds))
    if gen_ok and not ret_ok:
        return "AIG"
    if ret_ok and not gen_ok:
        return "AIR"
    return "none"


def parametric_keep(closed_book_answer: str, answer_from_generated: str,
                    answer_from_retrieved: str) -> bool:
    """Keep only samples whose three answers are pairwise distinct."""
    return not (
        textnorm.exact_match(closed_book_answer, answer_from_generated)
        or textnorm.exact_match(closed_book_answer, answer_from_retrieved)
        or textnorm.exact_match(answer_from_generated, answer_from_retrieved)
    )


def resolve_order(order: str, seed: int, example_id: str) -> str:
    """Concrete presentation order for one sample.

    The random mode draws one coin per sample from a generator seeded with
    (seed, example_id), so a record is reproducible in isolation.
    """
    if order == "generated_first" or order == "retrieved_first":
        return order
    if order != "random":
        raise ValidationError(f"unknown order {order!r}")
    rng = random.Random(f"{seed}:{example_id}")
    return "generated_first" if rng.random() < 0.5 else "retrieved_first"


def classify_answer(answer: str, sample: TracedSample) -> str:
    """gen, ret, llm, or other; checked in that priority order."""
    if textnorm.exact_match(answer, sample.answer_from_generated):
        return "gen"
    if textnorm.exact_match(answer, sample.answer_from_retrieved):
        return "ret"
    if sample.closed_book is not None and textnorm.exact_match(answer, sample.closed_book):
        return "llm"
    return "other"


def hybrid_answer(reader: Reader, sample: TracedSample, order: str, seed: int) -> HybridRecord:
    """Show both contexts at once and classify where the reply came from."""
    concrete = resolve_order(order, seed, sample.example.id)
    if concrete == "generated_first":
        texts = [sample.generated.text, sample.retrieved.text]
    else:
        texts = [sample.retrieved.text, sample.generated.text]
    answer = reader.answer(sample.example, texts, "hybrid")
    return HybridRecord(
        example_id=sample.example.id,
        order=order,
        seed=seed,
        answer=answer,
        classification=classify_answer(answer, sample),
    )


# ---------------------------------------------------------------------------
# Row (de)serialization for the declared JSONL schemas.

def read_questions(path: str | Path) -> list[QaExample]:
    examples: list[QaExample] = []
    seen: set[str] = set()
    for line_no, obj in iter_jsonl(path):
        qid = require_field(obj, "id", str, path, line_no)
        question = require_field(obj, "question", str, path, line_no)
        answers = require_field(obj, "answers", list, path, line_no)
        if not qid:
            raise SchemaError(path, line_no, "id must not be empty")
        if not question:
            raise SchemaError(path, line_no, "question must not be empty")
        if not answers or not all(isinstance(a, str) and a for a in answers):
            raise SchemaError(path, line_no, "answers must be a non-empty list of strings")
        if qid in seen:
            raise SchemaError(path, line_no, f"duplicate question id {qid!r}")
        seen.add(qid)
        examples.append(QaExample(qid, question, tuple(answers)))
    if not examples:
        raise ValidationError(f"no questions in {path}")
    return examples


def context_to_row(context: Context) -> dict[str, Any]:
    return {
        "id": context.id,
        "source": context.source,
        "backend": context.backend,
        "title": context.title,
        "text": context.text,
        "word_count": context.word_count,
        "gen_target_words": context.gen_target_words,
        "variant": context.variant,
    }


def context_from_row(obj: dict[str, Any], path: str | Path, line_no: int) -> Context:
    source = require_field(obj, "source", str, path, line_no)
    variant = require_field(obj, "variant", str, path, line_no)
    if source not in SOURCES:
        raise SchemaError(path, line_no, f"unknown source {source!r}")
    if variant not in VARIANTS:
        raise SchemaError(path, line_no, f"unknown variant {variant!r}")
    text = require_field(obj, "text", str, path, line_no)
    if not text:
        raise SchemaError(path, line_no, "context text must not be empty")
    return Context(
        id=require_field(obj, "id", str, path, line_no),
        source=source,
        backend=require_field(obj, "backend", str, path, line_no),
        title=require_field(obj, "title", str, path, line_no, allow_none=True),
        text=text,
        word_count=require_field(obj, "word_count", int, path, line_no),
        gen_target_words=require_field(obj, "gen_target_words", int, path, line_no,
                                       allow_none=True),
        variant=variant,
    )


def traced_to_row(sample: TracedSample) -> dict[str, Any]:
    return {
        "id": sample.example.id,
        "question": sample.example.question,
        "answers": list(sample.example.answers),
        "retrieved": context_to_row(sample.retrieved),
        "generated": context_to_row(sample.generated),
        "answer_from_retrieved": sample.answer_from_retrieved,
        "answer_from_generated": sample.answer_from_generated,
        "closed_book": sample.closed_book,
        "subset": sample.subset,
        "dropped": sample.dropped,
    }


def traced_from_row(obj: dict[str, Any], path: str | Path, line_no: int) -> TracedSample:
    qid = require_field(obj, "id", str, path, line_no)
    question = require_field(obj, "question", str, path, line_no)
    answers = require_field(obj, "answers", list, path, line_no)
    if not answers or not all(isinstance(a, str) for a in answers):
        raise SchemaError(path, line_no, "answers must be a non-empty list of strings")
    retrieved_obj = require_field(obj, "retrieved", dict, path, line_no)
    generated_obj = require_field(obj, "generated", dict, path, line_no)
    subset = require_field(obj, "subset", str, path, line_no)
    if subset not in SUBSETS:
        raise SchemaError(path, line_no, f"unknown subset {subset!r}")
    dropped = require_field(obj, "dropped", str, path, line_no, allow_none=True)
    if dropped is not None and dropped not in DROP_REASONS:
        raise SchemaError(path, line_no, f"unknown drop reason {dropped!r}")
    return TracedSample(
        example=QaExample(qid, question, tuple(answers)),
        retrieved=context_from_row(retrieved_obj, path, line_no),
        generated=context_from_row(generated_obj, path, line_no),
        answer_from_retrieved=require_field(obj, "answer_from_retrieved", str, path, line_no),
        answer_from_generated=require_field(obj, "answer_from_generated", str, path, line_no),
        closed_book=require_field(obj, "closed_book", str, path, line_no, allow_none=True),
        subset=subset,
        dropped=dropped,
    )


def hybrid_to_row(record: HybridRecord) -> dict[str, Any]:
    return {
        "id": record.example_id,
        "order": record.order,
        "seed": record.seed,
        "hybrid_answer": record.answer,
        "classification": record.classification,
    }


def hybrid_from_row(obj: dict[str, Any], path: str | Path, line_no: int) -> HybridRecord:
    order = require_field(obj, "order", str, path, line_no)
    if order not in ORDERS:
        raise SchemaError(path, line_no, f"unknown order {order!r}")
    classification = require_field(obj, "classification", str, path, line_no)
    if classification not in CLASSIFICATIONS:
        raise SchemaError(path, line_no, f"unknown classification {classification!r}")
    return HybridRecord(
        example_id=require_field(obj, "id", str, path, line_no),
        order=order,
        seed=require_field(obj, "seed", int, path, line_no),
        answer=require_field(obj, "hybrid_answer", str, path, line_no),
        classification=classification,
    )


def read_contexts(path: str | Path) -> tuple[dict[str, Any], dict[str, dict[str, Context]]]:
    """Load contexts.jsonl as {example_id: {source: Context}}."""
    header, rows = read_output_jsonl(path)
    by_id: dict[str, dict[str, Context]] = {}
    for line_no, obj in rows:
        context = context_from_row(obj, path, line_no)
        slot = by_id.setdefault(context.id, {})
        if context.source in slot:
            raise SchemaError(path, line_no,
                              f"duplicate {context.source} context for {context.id!r}")
        slot[context.source] = context
    return header, by_id


def read_traced(path: str | Path) -> tuple[dict[str, Any], list[TracedSample]]:
    header, rows = read_output_jsonl(path)
    return header, [traced_from_row(obj, path, line_no) for line_no, obj in rows]


def read_eval(path: str | Path) -> tuple[dict[str, Any], list[HybridRecord]]:
    header, rows = read_output_jsonl(path)
    return header, [hybrid_from_row(obj, path, line_no) for line_no, obj in rows]


# ---------------------------------------------------------------------------
# Stage runners. Work is sharded over a thread pool when workers > 1 and
# results are re-sorted by example id before writing, so output bytes do not
# depend on scheduling.

def map_examples(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_prepare(examples: Sequence[QaExample], retriever: Any, generator: Generator,
                length_candidates: Sequence[int], out_path: str | Path,
                manifest_hash: str, seed: int, workers: int = 1,
                ) -> tuple[list[Context], metrics.LengthStats]:
    """Build both contexts for every question and write contexts.jsonl."""

    def build(example: QaExample) -> tuple[Context, Context]:
        retrieved = prepare_retrieved(retriever, example)
        generated = generate_length_matched(generator, example,
                                            retrieved.word_count, length_candidates)
        return retrieved, generated

    pairs = map_examples(build, list(examples), workers)
    pairs.sort(key=lambda pair: pair[0].id)
    rows = []
    contexts: list[Context] = []
    for retrieved, generated in pairs:
        rows.append(context_to_row(retrieved))
        rows.append(context_to_row(generated))
        contexts.extend((retrieved, generated))
    write_jsonl(out_path, rows, header_obj(manifest_hash, seed))
    return contexts, metrics.length_stats(contexts)


def run_trace(examples: Sequence[QaExample], contexts_by_id: Mapping[str, Mapping[str, Context]],
              reader: Reader, abstentions: Sequence[str], parametric: bool,
              out_path: str | Path, manifest_hash: str, seed: int,
              workers: int = 1) -> list[TracedSample]:
    """Candidate reads, traceability and exclusivity filters, optional
    parametric-knowledge filter; writes traced.jsonl."""

    def trace_one(example: QaExample) -> TracedSample:
        slot = contexts_by_id.get(example.id)
        if not slot or set(slot) != set(SOURCES):
            raise ValidationError(
                f"question {example.id!r} needs one retrieved and one generated context")
        retrieved, generated = slot["retrieved"], slot["generated"]
        answer_ret = candidate_answer(reader, example, retrieved)
        answer_gen = candidate_answer(reader, example, generated)
        dropped = traceability_drop_reason(answer_gen, answer_ret, generated, retrieved,
                                           abstentions)
        subset = "none"
        closed = None
        if dropped is None:
            subset = exclusivity_label(answer_gen, answer_ret, example.answers)
            if parametric and subset != "none":
                closed = closed_book(reader, example)
                if not parametric_keep(closed, answer_gen, answer_ret):
                    dropped = "parametric"
        return TracedSample(example, retrieved, generated, answer_ret, answer_gen,
                            closed, subset, dropped)

    samples = map_examples(trace_one, list(examples), workers)
    samples.sort(key=lambda s: s.example.id)
    write_jsonl(out_path, (traced_to_row(s) for s in samples),
                header_obj(manifest_hash, seed))
    return samples


def run_evaluate(samples: Sequence[TracedSample], reader: Reader, order: str, seed: int,
                 eval_path: str | Path, report_path: str | Path, manifest_hash: str,
                 workers: int = 1) -> list[metrics.MetricsReport]:
    """Hybrid reads over live samples; writes eval.jsonl and report.csv."""
    live = [s for s in samples if s.live]
    if not live:
        raise ValidationError("no live context-conflicting samples to evaluate")
    records = map_examples(lambda s: hybrid_answer(reader, s, order, seed), live, workers)
    records.sort(key=lambda r: r.example_id)
    write_jsonl(eval_path, (hybrid_to_row(r) for r in records), header_obj(manifest_hash, seed))

    reports = subset_reports(live, records)
    metrics.write_report_csv(report_path, reports, manifest_hash, seed)
    return reports


def subset_reports(live: Sequence[TracedSample],
                   records: Sequence[HybridRecord]) -> list[metrics.MetricsReport]:
    """Per-subset metric rows (AIG, AIR, then ALL), skipping empty subsets."""
    by_id = {s.example.id: s for s in live}
    examples = {s.example.id: s.example for s in live}
    llm_tracked = any(s.closed_book is not None for s in live)
    reports = []
    for subset in ("AIG", "AIR", "ALL"):
        if subset == "ALL":
            chosen = list(records)
        else:
            chosen = [r for r in records if by_id[r.example_id].subset == subset]
        if not chosen:
            continue
        reports.append(metrics.build_report(subset, chosen, examples, llm_tracked))
    return reports
