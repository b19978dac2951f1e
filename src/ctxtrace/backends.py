"""Reader, generator, and retriever backends.

Three transports feed the pipeline: an OpenAI-style HTTP chat-completions
client, deterministic script tables for tests and replays, and retrievers
(native BM25, gold-annotation lookup, or ingested results from an external
retriever such as a dense one).  The HTTP bearer token is read from the
CTX_API_KEY environment variable only; it is never accepted on the command
line.

BM25 tokenizes its corpus and queries through :func:`textnorm.tokens`.
``requests`` is imported only when an :class:`HttpBackend` has to build its
own session.
"""
from __future__ import annotations

import hashlib
import logging
import math
import os
import threading
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from . import textnorm
from .errors import (
    BackendRejectedError,
    BackendUnavailableError,
    EmptyResponseError,
    NoHitError,
    ScriptMissError,
    ValidationError,
)
from .jsonl import RowSchema

logger = logging.getLogger(__name__)

API_KEY_ENV = "CTX_API_KEY"
SCRIPT_MODES = ("closed_book", "single_context", "hybrid")
RETRYABLE_STATUSES = frozenset({408, 429}) | frozenset(range(500, 600))
# Statuses whose Retry-After header is honoured (RFC 9110 §10.2.3).
RETRY_AFTER_STATUSES = frozenset({429, 503})
BACKOFF_BASE_SECONDS = 0.5
RETRY_AFTER_CAP_SECONDS = 60.0

# Applied when indexing and scoring BM25 documents and queries. Never used
# for answer matching.  Holds the articles, as textnorm.tokens needs.
BM25_STOPWORDS = frozenset(
    "a an the and or of to in on for at by with from as is are was were be "
    "been it its this that these those".split()
)

_HEX = "0123456789abcdef"


def normalized_fingerprint(normalized: str) -> str:
    """64-bit BLAKE2b (RFC 7693) of the UTF-8 *normalized* text, as lowercase hex."""
    return hashlib.blake2b(normalized.encode("utf-8"), digest_size=8).hexdigest()


def context_fingerprint(text: str) -> str:
    """The :func:`normalized_fingerprint` of *text* through
    :func:`textnorm.normalize_answer`."""
    return normalized_fingerprint(textnorm.normalize_answer(text))


@dataclass
class BackendSpec:
    """How to reach one model endpoint or script table."""

    kind: str = "scripted"
    endpoint: str | None = None
    model_name: str | None = None
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 3
    script_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("http", "scripted"):
            raise ValidationError(f"backend kind must be http or scripted, got {self.kind!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValidationError(f"temperature out of range [0, 2]: {self.temperature}")
        if not self.timeout > 0:
            raise ValidationError(f"timeout must be positive: {self.timeout}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0: {self.max_retries}")
        if self.kind == "http" and not (self.endpoint and self.model_name):
            raise ValidationError("http backend needs endpoint and model_name")
        if self.kind == "scripted" and not self.script_path:
            raise ValidationError("scripted backend needs script_path")

    @property
    def name(self) -> str:
        return self.model_name if self.kind == "http" else "scripted"


@dataclass
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not self.k1 > 0:
            raise ValidationError(f"k1 must be positive: {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b out of range [0, 1]: {self.b}")


@dataclass(frozen=True)
class RetrievedHit:
    """One retrieved passage for one question."""

    doc_id: str
    title: str
    body: str
    score: float


class _HeldSlot(threading.local):
    semaphore: threading.Semaphore | None = None


_held = _HeldSlot()


@contextmanager
def holding_slot(slots: threading.Semaphore) -> Iterator[None]:
    """Run the body on one of *slots*.  While the body runs, an
    :meth:`HttpBackend.complete` on this thread gives the slot back for as
    long as it sleeps a backoff."""
    slots.acquire()
    _held.semaphore = slots
    try:
        yield
    finally:
        _held.semaphore = None
        slots.release()


def _retry_after_seconds(response: Any) -> float:
    """The delta-seconds ``Retry-After`` of *response*, capped at
    :data:`RETRY_AFTER_CAP_SECONDS`; 0.0 when the header is absent, an
    HTTP-date, negative or unparsable."""
    headers = getattr(response, "headers", None)
    value = headers.get("Retry-After") if headers is not None else None
    if not isinstance(value, str):
        return 0.0
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return 0.0
    return min(float(value), RETRY_AFTER_CAP_SECONDS)


class HttpBackend:
    """Chat-completions client with retries.

    A call posts one request at a time.  Inside
    :func:`pipeline.map_examples`, a call runs on one of ``workers`` slots,
    so at most ``workers`` requests are in flight; a call sleeping a backoff
    hands its slot to another item and takes a slot back before it posts
    again.  Outside it, a call just sleeps.

    Transport errors (any :class:`OSError`; every ``RequestException`` is
    one) and 408/429/5xx responses are retried with exponential backoff; at
    most ``max_retries + 1`` attempts are ever issued.  After a 429 or 503
    whose ``Retry-After`` gives delta-seconds, the backoff is the larger of
    that (capped at :data:`RETRY_AFTER_CAP_SECONDS`) and the exponential
    delay.  Other statuses and exceptions raise at once.  An empty
    completion is an error.
    """

    def __init__(
        self,
        spec: BackendSpec,
        session: Any | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if spec.kind != "http":
            raise ValidationError("HttpBackend requires an http backend spec")
        self.spec = spec
        if session is None:
            import requests  # deferred: it costs memory and start-up time

            session = requests.Session()
        self._session = session
        self._sleep = sleep

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(API_KEY_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _back_off(self, seconds: float) -> None:
        slots = _held.semaphore
        if slots is None:
            self._sleep(seconds)
            return
        slots.release()
        try:
            self._sleep(seconds)
        finally:
            slots.acquire()

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.spec.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.spec.temperature,
        }
        attempts = self.spec.max_retries + 1
        last_failure = "no attempt made"
        retry_after = 0.0
        for attempt in range(attempts):
            if attempt:
                self._back_off(max(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1), retry_after))
                retry_after = 0.0
            try:
                response = self._session.post(
                    self.spec.endpoint,
                    json=payload,
                    headers=self._headers(),
                    timeout=self.spec.timeout,
                )
            except OSError as exc:  # requests.RequestException is one
                last_failure = f"transport error: {exc}"
                logger.warning("backend attempt %d/%d failed: %s", attempt + 1, attempts, last_failure)
                continue
            status = response.status_code
            if status in RETRYABLE_STATUSES:
                last_failure = f"HTTP {status}"
                retry_after = _retry_after_seconds(response) if status in RETRY_AFTER_STATUSES else 0.0
                logger.warning("backend attempt %d/%d failed: %s", attempt + 1, attempts, last_failure)
                continue
            if not 200 <= status < 300:
                raise BackendRejectedError(f"backend rejected request: HTTP {status}")
            return self._extract_text(response)
        raise BackendUnavailableError(
            f"backend unavailable after {attempts} attempts ({last_failure})"
        )

    @staticmethod
    def _extract_text(response: Any) -> str:
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise BackendRejectedError(f"malformed completion body: {exc}") from exc
        if not isinstance(text, str) or not text.strip():
            raise EmptyResponseError("backend returned an empty completion")
        return text


# A reader script row; a hybrid entry with a null fingerprint is its question's fallback.
@dataclass(slots=True)
class ScriptEntry:
    question_id: str
    mode: str
    context_fingerprint: str | None
    answer: str

    def __post_init__(self) -> None:
        if self.mode == "single_context" and self.context_fingerprint is None:
            raise ValueError("single_context entries need a fingerprint")
        if self.mode == "closed_book" and self.context_fingerprint is not None:
            raise ValueError("closed_book entries must have a null fingerprint")
        fingerprint = self.context_fingerprint
        if fingerprint is not None and (len(fingerprint) != 16 or fingerprint.strip(_HEX)):
            raise ValueError("context_fingerprint must be 16 lowercase hex characters")


SCRIPT_ENTRY = RowSchema(ScriptEntry, "script entry",
                         ("question_id", "mode", "context_fingerprint"),
                         choices={"mode": SCRIPT_MODES})


class ReaderScript:
    """Deterministic reader oracle: the answer of each :class:`ScriptEntry`.

    ``unkeyed`` holds the questions whose only hybrid row is the null one: a
    hybrid lookup for such a question reaches that row whatever the
    fingerprint, so its caller may skip the hash, and with it the
    normalization of contexts that evaluate and analyze order need for
    nothing else.
    """

    def __init__(self, entries: Mapping[tuple[str, str, str | None], str], source: str) -> None:
        self._entries = dict(entries)
        self.source = source
        hybrid = {(q, fp is None) for q, mode, fp in self._entries if mode == "hybrid"}
        self.unkeyed = frozenset(q for q, null in hybrid if null and (q, False) not in hybrid)

    @classmethod
    def load(cls, path: str | Path) -> "ReaderScript":
        return cls({key: entry.answer for key, _, entry in SCRIPT_ENTRY.read(path)}, str(path))

    def answer(self, question_id: str, mode: str, fingerprint: str | None) -> str:
        key = (question_id, mode, fingerprint)
        hit = self._entries.get(key)
        if hit is None and mode == "hybrid" and fingerprint is not None:
            hit = self._entries.get((question_id, mode, None))
        if hit is None:
            raise ScriptMissError(f"no script entry for {key!r} in {self.source}")
        return hit


# A generation script row; a null target_words is the unconstrained prompt.
@dataclass(slots=True)
class GenerationEntry:
    question_id: str
    target_words: int | None
    text: str

    def __post_init__(self) -> None:
        if self.target_words is not None and self.target_words < 1:
            raise ValueError("target_words must be at least 1")


GENERATION_ENTRY = RowSchema(GenerationEntry, "generation entry", ("question_id", "target_words"))


class GenerationScript:
    """Deterministic generator oracle: the text of each :class:`GenerationEntry`."""

    def __init__(self, entries: Mapping[tuple[str, int | None], str], source: str) -> None:
        self._entries = dict(entries)
        self.source = source

    @classmethod
    def load(cls, path: str | Path) -> "GenerationScript":
        return cls({key: entry.text for key, _, entry in GENERATION_ENTRY.read(path)}, str(path))

    def text_for(self, question_id: str, target_words: int | None) -> str:
        key = (question_id, target_words)
        try:
            return self._entries[key]
        except KeyError:
            raise ScriptMissError(f"no generation entry for {key!r} in {self.source}") from None


@dataclass(slots=True)
class CorpusDoc:
    doc_id: str
    title: str
    text: str


CORPUS_DOC = RowSchema(CorpusDoc, "document", ("doc_id",), exact=True)


def _analyze(text: str) -> list[str]:
    return textnorm.tokens(text, BM25_STOPWORDS)


# (weight, ascending doc indices, {doc index: tf} where tf > 1).  A query
# term's weight is its count times its idf.
_QueryTerm = tuple[float, list[int], Mapping[int, int]]
_NO_REPEATS: Mapping[int, int] = {}


class Bm25Index:
    """Okapi BM25 over a passage corpus, tuned for exact top-1 retrieval.

    Documents (title and body) and queries are split into their
    :func:`textnorm.normalize_answer` tokens minus :data:`BM25_STOPWORDS`,
    by :func:`textnorm.tokens`, which skips the article pass
    where it cannot change a token.

    Each term keeps one ascending list of the indices of the documents that
    hold it (its df is the list's length).  Most terms occur once in a
    document, so a term's counts are kept apart, as ``{index: tf}``, only
    for the documents where tf > 1, and only for terms that have such a
    document; every other listed document has tf 1.

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1), computed for each query
    term; a term scores idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl /
    avgdl)).  The length norm k1 * (1 - b + b * dl / avgdl) is computed once
    per document at build, and nothing the index holds changes after it.
    Ties on the top score go to the lowest doc_id, including the no-overlap
    case where every document scores zero.

    :meth:`top1` prunes the postings walk (MaxScore, Turtle & Flood 1995)
    without changing its answer.  A query term of weight w = count * idf
    adds at most w * (k1 + 1) to any document, because idf > 0, tf >= 1 and
    the length norm is >= 0.  Terms are walked in descending bound order,
    and no new document is admitted once the best partial score exceeds
    (1 + 1e-9) times the summed bound of the terms not yet walked: no
    unseen document can then win or tie.  Only the documents whose partial
    score plus that bound reaches (1 - 1e-9) times the best partial score
    are rescored.  The two margins absorb rounding in the partial sums,
    which run in bound order.  The rescoring adds each document's term
    scores in query order from 0.0, so the winner and its score bits are
    those of scoring every posting in query order.  It finds a document in
    a term's list by bisection.
    """

    name = "bm25"

    def __init__(self, docs: list[tuple[str, str, str]], params: Bm25Params) -> None:
        if not docs:
            raise ValidationError("bm25 corpus is empty")
        self.doc_ids = [d[0] for d in docs]
        if len(set(self.doc_ids)) != len(self.doc_ids):
            raise ValidationError("bm25 corpus has duplicate doc_ids")
        self.titles = [d[1] for d in docs]
        self.bodies = [d[2] for d in docs]
        doc_len: list[int] = []
        postings: defaultdict[str, list[int]] = defaultdict(list)
        repeats: defaultdict[str, dict[int, int]] = defaultdict(dict)
        # Doc indices made in one run sit together in memory, so the
        # comparisons of a bisection over a posting list touch few pages.
        for idx, (_, title, body) in zip(list(range(len(docs))), docs):
            doc_tokens = _analyze(title + " " + body)
            doc_len.append(len(doc_tokens))
            for tok, tf in Counter(doc_tokens).items():
                postings[tok].append(idx)
                if tf > 1:
                    repeats[tok][idx] = tf
        postings.default_factory = repeats.default_factory = None
        self._postings: dict[str, list[int]] = postings
        self._repeats: dict[str, dict[int, int]] = repeats
        total = sum(doc_len)
        avgdl = total / len(docs) if total else 1.0
        k1, b = params.k1, params.b
        self._k1_plus_1 = k1 + 1.0
        self._norm = [k1 * (1.0 - b + b * dl / avgdl) for dl in doc_len]
        self._lowest = min(range(len(docs)), key=self.doc_ids.__getitem__)

    @classmethod
    def from_corpus_file(cls, path: str | Path, params: Bm25Params) -> "Bm25Index":
        return cls([(doc.doc_id, doc.title, doc.text) for _, _, doc in CORPUS_DOC.read(path)], params)

    def _query_terms(self, query_tokens: list[str]) -> list[_QueryTerm]:
        """(count * idf, doc indices, repeated counts) of each indexed
        query term.  Unique terms in first-occurrence order keep float
        accumulation independent of hash randomization."""
        counts: dict[str, int] = {}
        for term in query_tokens:
            counts[term] = counts.get(term, 0) + 1
        terms = []
        n = len(self.doc_ids)
        for term, count in counts.items():
            docs = self._postings.get(term)
            if docs is None:
                continue
            df = len(docs)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            terms.append((count * idf, docs, self._repeats.get(term, _NO_REPEATS)))
        return terms

    def _add_scores(self, totals: dict[int, float], term: _QueryTerm) -> None:
        """Add *term*'s score to the running total (from 0.0) of each
        document index that holds it."""
        weight, docs, repeats = term
        k1_plus_1, norm = self._k1_plus_1, self._norm
        for idx in docs:
            tf = repeats.get(idx, 1)
            totals[idx] = totals.get(idx, 0.0) + weight * tf * k1_plus_1 / (tf + norm[idx])

    def _exact_score(self, terms: list[_QueryTerm], idx: int) -> float:
        """Document *idx*'s score, its term scores added in query order from
        0.0; each term's list is searched by bisection."""
        k1_plus_1, norm, total = self._k1_plus_1, self._norm[idx], 0.0
        for weight, docs, repeats in terms:
            at = bisect_right(docs, idx)
            if at and docs[at - 1] == idx:
                tf = repeats.get(idx, 1)
                total += weight * tf * k1_plus_1 / (tf + norm)
        return total

    def _maxscore(self, terms: list[_QueryTerm]) -> tuple[int, float]:
        """(index, score) of the best document for a non-empty term list;
        see the class docstring."""
        by_bound = sorted(terms, key=itemgetter(0), reverse=True)
        # unwalked[i]: the most that the terms from by_bound[i] on can add.
        bounds = reversed([weight * self._k1_plus_1 for weight, _, _ in by_bound])
        unwalked = list(accumulate(bounds, initial=0.0))[::-1]
        partial: dict[int, float] = {}
        best = 0.0
        walked = 0
        for term in by_bound:
            if best > (1.0 + 1e-9) * unwalked[walked]:
                break
            self._add_scores(partial, term)
            best = max(partial.values())
            walked += 1
        rest, cutoff = unwalked[walked], (1.0 - 1e-9) * best
        scores = {idx: self._exact_score(terms, idx)
                  for idx, sc in partial.items() if sc + rest >= cutoff}
        best_score = max(scores.values())
        tied = (idx for idx, sc in scores.items() if sc == best_score)
        return min(tied, key=self.doc_ids.__getitem__), best_score

    def top1(self, question: str) -> RetrievedHit:
        terms = self._query_terms(_analyze(question))
        idx, score = self._maxscore(terms) if terms else (self._lowest, 0.0)
        return RetrievedHit(self.doc_ids[idx], self.titles[idx], self.bodies[idx], score)

    def retrieve(self, question_id: str, question: str) -> RetrievedHit:
        return self.top1(question)


@dataclass(slots=True)
class GoldHit:
    question_id: str
    doc_id: str
    title: str
    body: str


@dataclass(slots=True)
class IngestedHit(GoldHit):
    score: float


GOLD_HIT = RowSchema(GoldHit, "gold annotation", (), nonempty=("body",))
INGESTED_HIT = RowSchema(IngestedHit, "retrieval hit", ("question_id",), nonempty=("body",))


class KeyedRetriever:
    """Passages looked up by question id: golden annotations (:data:`GOLD_HIT`;
    score 1.0, and a repeated question keeps its first row and logs a warning)
    or the scored hits of an outside retriever, a dense one say (:data:`INGESTED_HIT`)."""

    def __init__(self, name: str, hits: Mapping[str, RetrievedHit]) -> None:
        self.name = name
        self._hits = dict(hits)

    @classmethod
    def load(cls, path: str | Path, kind: str) -> "KeyedRetriever":
        schema = INGESTED_HIT if kind == "ingest" else GOLD_HIT
        hits: dict[str, RetrievedHit] = {}
        for _, line_no, row in schema.read(path):
            if row.question_id in hits:
                logger.warning("%s:%d: duplicate gold annotation for %s; keeping the first",
                               path, line_no, row.question_id)
            else:
                score = row.score if kind == "ingest" else 1.0
                hits[row.question_id] = RetrievedHit(row.doc_id, row.title, row.body, score)
        return cls(kind, hits)

    def retrieve(self, question_id: str, question: str) -> RetrievedHit:
        hit = self._hits.get(question_id)
        if hit is None:
            raise NoHitError(f"no {self.name} hit for question {question_id!r}")
        return hit
