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

import hashlib
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Mapping, Sequence

from . import metrics, textnorm
from .backends import (
    SCRIPT_MODES,
    BackendSpec,
    GenerationScript,
    HttpBackend,
    ReaderScript,
    RetrievedHit,
    holding_slot,
    normalized_fingerprint,
)
from .errors import EmptyResponseError, ValidationError
from .jsonl import RowSchema, header_obj, read_output_jsonl, write_jsonl

SOURCES = ("retrieved", "generated")
VARIANTS = ("nature", "trunc", "strunc", "retrieved")
ORDERS = ("random", "generated_first", "retrieved_first")
SUBSETS = ("AIG", "AIR", "none")
# The report rows and analyzable subsets: each conflicting subset, then both.
REPORT_SUBSETS = ("AIG", "AIR", "ALL")
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
    """Substitute {#question}/{#contexts}/{#n} placeholders in one pass; a
    placeholder whose value is missing or None raises."""

    def sub(match: re.Match[str]) -> str:
        name = match.group(1)
        if values.get(name) is None:
            raise ValidationError(f"template placeholder {{#{name}}} has no value here")
        return str(values[name])

    return _PLACEHOLDER_RE.sub(sub, template)


@dataclass(frozen=True)
class PromptSet:
    generation: str = GENERATION_PROMPT
    generation_unconstrained: str = GENERATION_PROMPT_UNCONSTRAINED
    reading: str = READING_PROMPT
    closed_book: str = CLOSED_BOOK_PROMPT


# Each record below computes the normalized forms of its texts the first time
# they are read, through textnorm.normalize_answer, and keeps them for its own
# life.  They are not fields: no row, comparison or hash sees them, and a
# record made by dataclasses.replace computes its own.

@dataclass(frozen=True)
class QaExample:
    id: str
    question: str
    answers: tuple[str, ...]

    @cached_property
    def normalized_answers(self) -> tuple[str, ...]:
        return tuple(map(textnorm.normalize_answer, self.answers))


# Questions input rows, and the example part of traced rows.
QUESTION = RowSchema(QaExample, "question", ("id",), nonempty=("id", "question", "answers"))


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

    @cached_property
    def normalized(self) -> str:
        return textnorm.normalize_answer(self.text)


CONTEXT = RowSchema(Context, "context", ("id", "source"), exact=True,
                    choices={"source": SOURCES, "variant": VARIANTS}, nonempty=("text",))


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

    @cached_property
    def normalized_generated(self) -> str:
        return textnorm.normalize_answer(self.answer_from_generated)

    @cached_property
    def normalized_retrieved(self) -> str:
        return textnorm.normalize_answer(self.answer_from_retrieved)

    @cached_property
    def normalized_closed_book(self) -> str | None:
        return None if self.closed_book is None else textnorm.normalize_answer(self.closed_book)


TRACED = RowSchema(TracedSample, "traced", ("id",), exact=True, flatten={"example": QUESTION},
                   nested={"retrieved": CONTEXT, "generated": CONTEXT},
                   choices={"subset": SUBSETS, "dropped": DROP_REASONS})


@dataclass(frozen=True)
class HybridRecord:
    example_id: str
    order: str
    seed: int
    answer: str
    classification: str

    @cached_property
    def normalized(self) -> str:
        return textnorm.normalize_answer(self.answer)


HYBRID = RowSchema(HybridRecord, "eval", ("id",), exact=True,
                   keys={"example_id": "id", "answer": "hybrid_answer"},
                   choices={"order": ORDERS, "classification": CLASSIFICATIONS})


def render_passage(title: str, body: str) -> str:
    return f"Title: {title} Content: {body}"


class _Backend:
    """A scripted or HTTP backend, shared by readers and generators.

    A scripted backend holds its table, loaded from ``spec.script_path``
    unless one is passed in; an HTTP backend holds its client, built from the
    spec unless a transport is passed in.  Every call goes through
    :meth:`_call`.

    An HTTP backend at temperature 0 posts each distinct prompt once: its
    replies are kept by the prompt's sha256 digest, so the memo holds no
    prompt text.  Above temperature 0 every call posts.
    """

    _script_type: Any

    def __init__(self, spec: BackendSpec, prompts: PromptSet,
                 transport: HttpBackend | None = None, script: Any = None) -> None:
        self.spec = spec
        self.prompts = prompts
        if spec.kind == "scripted":
            self._source = script if script is not None else self._script_type.load(spec.script_path)
        else:
            self._source = transport if transport is not None else HttpBackend(spec)
        self._replies: dict[bytes, str] | None = (
            {} if spec.kind == "http" and spec.temperature == 0 else None)

    @property
    def name(self) -> str:
        return self.spec.name

    def _call(self, lookup: Callable[[Any], str], template: str, **values: Any) -> str:
        """The reply: *lookup* applied to the script table, or the HTTP
        completion of *template* rendered with *values*."""
        if self.spec.kind == "scripted":
            return lookup(self._source)
        prompt = render_template(template, **values)
        if self._replies is None:
            return self._source.complete(prompt)
        key = hashlib.sha256(prompt.encode("utf-8")).digest()
        reply = self._replies.get(key)
        if reply is None:
            # Two threads that miss the same key both post; both return the
            # reply stored first.  A call that raises stores nothing.
            reply = self._replies.setdefault(key, self._source.complete(prompt))
        return reply


class Reader(_Backend):
    """Question answering over zero, one, or two contexts.

    A read's mode is its number of contexts (:data:`SCRIPT_MODES`): none is
    closed_book, one is single_context, two is hybrid.  HTTP readers post the
    closed-book or reading prompt; scripted readers look up (question_id,
    mode, fingerprint of the joined contexts) in their table.

    That fingerprint is hashed from the contexts' normalized forms joined by
    one space, leaving out the empty ones: normalization never carries
    across the whitespace of :data:`CONTEXT_JOIN`, so this is
    ``context_fingerprint(CONTEXT_JOIN.join(texts))`` without normalizing any
    text twice.
    """

    _script_type = ReaderScript

    def answer(self, example: QaExample, contexts: Sequence[Context] = ()) -> str:
        count = len(contexts)
        if count >= len(SCRIPT_MODES):
            raise ValidationError(f"a read shows at most {len(SCRIPT_MODES) - 1} contexts, "
                                  f"not {count}")
        mode = SCRIPT_MODES[count]

        def lookup(script: ReaderScript) -> str:
            if not count or (mode == "hybrid" and example.id in script.unkeyed):
                return script.answer(example.id, mode, None)
            joined = " ".join(c.normalized for c in contexts if c.normalized)
            return script.answer(example.id, mode, normalized_fingerprint(joined))

        return self._call(lookup, self.prompts.reading if count else self.prompts.closed_book,
                          question=example.question,
                          contexts=CONTEXT_JOIN.join(c.text for c in contexts) if count else None)


class Generator(_Backend):
    """Context generation, length-constrained or free-running."""

    _script_type = GenerationScript

    def generate(self, example: QaExample, target_words: int | None) -> str:
        return self._call(
            lambda script: script.text_for(example.id, target_words),
            self.prompts.generation_unconstrained if target_words is None
            else self.prompts.generation,
            question=example.question, n=target_words)


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


def trace_decision(sample: TracedSample, abstentions: Collection[str]) -> tuple[str, str | None]:
    """(subset, dropped) for the candidates and closed-book answer stored on
    *sample*, decided on their normalized forms; *abstentions* holds the
    abstention phrases already through :func:`textnorm.normalize_answer`.

    Traceability comes first, checked in a fixed order: generated
    abstention, retrieved abstention (an empty reply abstains too), then
    generated and retrieved containment.  Exclusivity then gives AIG or AIR
    when only that side's candidate matches a gold answer, or none.  Last,
    when a closed-book answer is stored and the subset is not none, the
    parametric check drops a sample whose closed-book answer equals a
    candidate (the candidates differ, as exactly one matches a gold).
    """
    gen = sample.normalized_generated
    if not gen or gen in abstentions:
        return "none", "abstained_gen"
    ret = sample.normalized_retrieved
    if not ret or ret in abstentions:
        return "none", "abstained_ret"
    if not textnorm.contains_normalized(sample.generated.normalized, gen):
        return "none", "not_in_gen"
    if not textnorm.contains_normalized(sample.retrieved.normalized, ret):
        return "none", "not_in_ret"
    golds = sample.example.normalized_answers
    if (gen in golds) == (ret in golds):
        return "none", None
    subset = "AIG" if gen in golds else "AIR"
    if sample.normalized_closed_book in (gen, ret):
        return subset, "parametric"
    return subset, None


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
    norm = textnorm.normalize_answer(answer)
    if norm == sample.normalized_generated:
        return "gen"
    if norm == sample.normalized_retrieved:
        return "ret"
    if norm == sample.normalized_closed_book:
        return "llm"
    return "other"


def hybrid_answer(reader: Reader, sample: TracedSample, order: str, seed: int) -> HybridRecord:
    """Show both contexts at once and classify where the reply came from."""
    concrete = resolve_order(order, seed, sample.example.id)
    if concrete == "generated_first":
        contexts = [sample.generated, sample.retrieved]
    else:
        contexts = [sample.retrieved, sample.generated]
    answer = reader.answer(sample.example, contexts)
    return HybridRecord(
        example_id=sample.example.id,
        order=order,
        seed=seed,
        answer=answer,
        classification=classify_answer(answer, sample),
    )


# ---------------------------------------------------------------------------
# Readers of the JSONL files; their row formats are declared with the records.

def read_questions(path: str | Path) -> list[QaExample]:
    examples = [example for _, _, example in QUESTION.read(path)]
    if not examples:
        raise ValidationError(f"no questions in {path}")
    return examples


def read_contexts(path: str | Path) -> tuple[dict[str, Any], dict[str, dict[str, Context]]]:
    """Load contexts.jsonl as {example_id: {source: Context}}."""
    header, rows = read_output_jsonl(path)
    by_id: dict[str, dict[str, Context]] = {}
    for _, _, context in CONTEXT.iter_keyed(rows, path):
        by_id.setdefault(context.id, {})[context.source] = context
    return header, by_id


read_traced = TRACED.read_records
read_eval = HYBRID.read_records


# ---------------------------------------------------------------------------
# Stage runners. Work is sharded over a thread pool when workers > 1;
# map_examples returns results in item order whatever the scheduling, and
# each runner sorts them by example id before writing, so rows come out in
# id order whatever order the questions file has.

def map_examples(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> list[Any]:
    """``[fn(item) for item in items]`` with at most *workers* items running
    at once.

    The pool has *workers* spare threads beyond its *workers* slots
    (:func:`backends.holding_slot`), so an HTTP call that hands back its slot
    while it sleeps a backoff leaves no slot idle.  Once an item raises, no
    item still waiting for a slot starts.  Every thread finishes before the
    error of the first failed item, in item order, is raised.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    slots = threading.BoundedSemaphore(workers)
    failed = threading.Event()

    def run(item: Any) -> Any:
        with holding_slot(slots):
            if failed.is_set():
                return None  # never read: the failed item's error is raised
            try:
                return fn(item)
            except BaseException:
                failed.set()
                raise

    with ThreadPoolExecutor(max_workers=2 * workers) as pool:
        futures = [pool.submit(run, item) for item in items]
    return [future.result() for future in futures]


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
    contexts = [context for pair in pairs for context in pair]
    write_jsonl(out_path, [CONTEXT.dump(c) for c in contexts], header_obj(manifest_hash, seed))
    return contexts, metrics.length_stats(contexts)


def run_trace(examples: Sequence[QaExample], contexts_by_id: Mapping[str, Mapping[str, Context]],
              reader: Reader, abstentions: Sequence[str], parametric: bool,
              out_path: str | Path, manifest_hash: str, seed: int,
              workers: int = 1) -> list[TracedSample]:
    """Both single-context candidate reads, decided by :func:`trace_decision`;
    with *parametric*, a closed-book read for each survivor, decided again.
    Writes traced.jsonl."""
    abstained = frozenset(map(textnorm.normalize_answer, abstentions))

    def trace_one(example: QaExample) -> TracedSample:
        slot = contexts_by_id.get(example.id)
        if not slot or set(slot) != set(SOURCES):
            raise ValidationError(
                f"question {example.id!r} needs one retrieved and one generated context")
        retrieved, generated = slot["retrieved"], slot["generated"]
        sample = TracedSample(example, retrieved, generated,
                              reader.answer(example, [retrieved]),
                              reader.answer(example, [generated]), None, "none", None)
        subset, dropped = trace_decision(sample, abstained)
        if parametric and dropped is None and subset != "none":
            sample = replace(sample, closed_book=reader.answer(example))
            subset, dropped = trace_decision(sample, abstained)
        return replace(sample, subset=subset, dropped=dropped)

    samples = map_examples(trace_one, list(examples), workers)
    samples.sort(key=lambda s: s.example.id)
    write_jsonl(out_path, (TRACED.dump(s) for s in samples),
                header_obj(manifest_hash, seed))
    return samples


def run_evaluate(samples: Sequence[TracedSample], reader: Reader, order: str, seed: int,
                 eval_path: str | Path, report_path: str | Path, manifest_hash: str,
                 workers: int = 1) -> dict[str, metrics.MetricsReport]:
    """Hybrid reads over live samples; writes eval.jsonl and report.csv."""
    live = select_subset(samples, "ALL")
    records = read_hybrid(reader, live, order, seed, workers)
    records.sort(key=lambda r: r.example_id)
    write_jsonl(eval_path, (HYBRID.dump(r) for r in records), header_obj(manifest_hash, seed))

    reports = build_reports(live, subset_groups(live, records))
    metrics.write_report_csv(report_path, reports.values(), manifest_hash, seed)
    return reports


def select_subset(samples: Sequence[TracedSample], subset: str) -> list[TracedSample]:
    """Live samples of one subset (AIG, AIR or ALL); empty is an error."""
    if subset not in REPORT_SUBSETS:
        raise ValidationError(f"unknown subset {subset!r}")
    chosen = [s for s in samples if s.live and subset in ("ALL", s.subset)]
    if not chosen:
        raise ValidationError(f"no live samples in subset {subset!r}")
    return chosen


def read_hybrid(reader: Reader, samples: Sequence[TracedSample], order: str, seed: int,
                workers: int) -> list[HybridRecord]:
    """One :func:`hybrid_answer` per sample, in sample order."""
    return map_examples(lambda s: hybrid_answer(reader, s, order, seed), samples, workers)


def subset_groups(live: Sequence[TracedSample], records: Sequence[HybridRecord],
                  ) -> list[tuple[str, list[HybridRecord]]]:
    """The records of each report subset: AIG, AIR, then ALL."""
    subset_of = {s.example.id: s.subset for s in live}
    return [(subset, [r for r in records if subset in ("ALL", subset_of[r.example_id])])
            for subset in REPORT_SUBSETS]


def build_reports(samples: Sequence[TracedSample],
                  groups: Iterable[tuple[str, Sequence[HybridRecord]]],
                  ) -> dict[str, metrics.MetricsReport]:
    """{label: metric row} per non-empty (label, records) group over the gold
    answers of *samples*; rho_llm is tracked when any was read closed-book."""
    examples = {s.example.id: s.example for s in samples}
    llm_tracked = any(s.closed_book is not None for s in samples)
    return {label: metrics.build_report(label, records, examples, llm_tracked)
            for label, records in groups if records}
