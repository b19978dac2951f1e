"""Reader, generator, and retriever backends.

Three transports feed the pipeline: an OpenAI-style HTTP chat-completions
client, deterministic script tables for tests and replays, and retrievers
(native BM25, gold-annotation lookup, or ingested results from an external
retriever such as a dense one).  The HTTP bearer token is read from the
CTX_API_KEY environment variable only; it is never accepted on the command
line.
"""
from __future__ import annotations

import logging
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

import requests

from . import textnorm
from .errors import (
    BackendRejectedError,
    BackendUnavailableError,
    EmptyResponseError,
    NoHitError,
    ScriptMissError,
    SchemaError,
    ValidationError,
)
from .jsonl import iter_jsonl, require_field, require_finite

logger = logging.getLogger(__name__)

API_KEY_ENV = "CTX_API_KEY"
SCRIPT_MODES = ("closed_book", "single_context", "hybrid")
RETRYABLE_STATUSES = frozenset({408, 429}) | frozenset(range(500, 600))
BACKOFF_BASE_SECONDS = 0.5

# Applied when indexing and scoring BM25 documents and queries. Never used
# for answer matching.
BM25_STOPWORDS = frozenset(
    "a an the and or of to in on for at by with from as is are was were be "
    "been it its this that these those".split()
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF


def context_fingerprint(text: str) -> str:
    """64-bit FNV-1a hash of the normalized context text, as lowercase hex."""
    digest = _FNV_OFFSET
    for byte in textnorm.normalize_answer(text).encode("utf-8"):
        digest = ((digest ^ byte) * _FNV_PRIME) & _FNV_MASK
    return f"{digest:016x}"


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
        if self.timeout <= 0:
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
        if self.k1 <= 0:
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


class HttpBackend:
    """Chat-completions client with retries, a shared rate gate, and a cap
    on concurrent in-flight requests.

    Transport failures and 408/429/5xx responses are retried with exponential
    backoff; at most ``max_retries + 1`` attempts are ever issued.  Other
    non-2xx statuses raise immediately.  An empty completion is an error.
    """

    def __init__(
        self,
        spec: BackendSpec,
        session: Any | None = None,
        sleep: Callable[[float], None] = time.sleep,
        max_in_flight: int = 4,
        min_interval: float = 0.0,
    ) -> None:
        if spec.kind != "http":
            raise ValidationError("HttpBackend requires an http backend spec")
        self.spec = spec
        self._session = session if session is not None else requests.Session()
        self._sleep = sleep
        self._gate = threading.BoundedSemaphore(max_in_flight)
        self._lock = threading.Lock()
        self._min_interval = min_interval
        self._next_slot = 0.0

    def _throttle(self) -> None:
        if self._min_interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            wait = self._next_slot - now
            self._next_slot = max(now, self._next_slot) + self._min_interval
        if wait > 0:
            self._sleep(wait)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(API_KEY_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.spec.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.spec.temperature,
        }
        attempts = self.spec.max_retries + 1
        last_failure = "no attempt made"
        for attempt in range(attempts):
            if attempt:
                self._sleep(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
            self._throttle()
            try:
                with self._gate:
                    response = self._session.post(
                        self.spec.endpoint,
                        json=payload,
                        headers=self._headers(),
                        timeout=self.spec.timeout,
                    )
            except requests.RequestException as exc:
                last_failure = f"transport error: {exc}"
                logger.warning("backend attempt %d/%d failed: %s", attempt + 1, attempts, last_failure)
                continue
            status = response.status_code
            if status in RETRYABLE_STATUSES:
                last_failure = f"HTTP {status}"
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


class ReaderScript:
    """Deterministic reader oracle loaded from a script JSONL file.

    Each line holds {"question_id", "mode", "context_fingerprint", "answer"}.
    single_context entries carry the fingerprint of their context; hybrid
    entries may carry the fingerprint of the joined context block or null
    (the null entry is the fallback when no exact hybrid match exists);
    closed_book entries carry null.
    """

    def __init__(self, entries: Mapping[tuple[str, str, str | None], str], source: str) -> None:
        self._entries = dict(entries)
        self.source = source

    @classmethod
    def load(cls, path: str | Path) -> "ReaderScript":
        entries: dict[tuple[str, str, str | None], str] = {}
        for line_no, obj in iter_jsonl(path):
            qid = require_field(obj, "question_id", str, path, line_no)
            mode = require_field(obj, "mode", str, path, line_no)
            if mode not in SCRIPT_MODES:
                raise SchemaError(path, line_no, f"unknown mode {mode!r}")
            fingerprint = require_field(obj, "context_fingerprint", str, path, line_no,
                                        allow_none=True)
            answer = require_field(obj, "answer", str, path, line_no)
            if mode == "single_context" and fingerprint is None:
                raise SchemaError(path, line_no, "single_context entries need a fingerprint")
            if mode == "closed_book" and fingerprint is not None:
                raise SchemaError(path, line_no, "closed_book entries must have a null fingerprint")
            key = (qid, mode, fingerprint)
            if key in entries:
                raise SchemaError(path, line_no, f"duplicate script entry {key!r}")
            entries[key] = answer
        return cls(entries, str(path))

    def answer(self, question_id: str, mode: str, fingerprint: str | None) -> str:
        key = (question_id, mode, fingerprint)
        hit = self._entries.get(key)
        if hit is None and mode == "hybrid" and fingerprint is not None:
            hit = self._entries.get((question_id, mode, None))
        if hit is None:
            raise ScriptMissError(f"no script entry for {key!r} in {self.source}")
        return hit


class GenerationScript:
    """Deterministic generator oracle.

    Lines hold {"question_id", "target_words", "text"}; target_words null
    means the unconstrained prompt. (question_id, target_words) is unique.
    """

    def __init__(self, entries: Mapping[tuple[str, int | None], str], source: str) -> None:
        self._entries = dict(entries)
        self.source = source

    @classmethod
    def load(cls, path: str | Path) -> "GenerationScript":
        entries: dict[tuple[str, int | None], str] = {}
        for line_no, obj in iter_jsonl(path):
            qid = require_field(obj, "question_id", str, path, line_no)
            target = require_field(obj, "target_words", int, path, line_no, allow_none=True)
            text = require_field(obj, "text", str, path, line_no)
            key = (qid, target)
            if key in entries:
                raise SchemaError(path, line_no, f"duplicate generation entry {key!r}")
            entries[key] = text
        return cls(entries, str(path))

    def text_for(self, question_id: str, target_words: int | None) -> str:
        key = (question_id, target_words)
        try:
            return self._entries[key]
        except KeyError:
            raise ScriptMissError(f"no generation entry for {key!r} in {self.source}") from None


def _analyze(text: str) -> list[str]:
    return [t for t in textnorm.tokens(text) if t not in BM25_STOPWORDS]


class Bm25Index:
    """Okapi BM25 over a passage corpus, tuned for exact top-1 retrieval.

    idf(t) = ln((N - df + 0.5) / (df + 0.5) + 1); a term scores
    tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)).  Ties on the top
    score go to the lowest doc_id, including the no-overlap case where
    every document scores zero.
    """

    name = "bm25"

    def __init__(self, docs: list[tuple[str, str, str]], params: Bm25Params) -> None:
        if not docs:
            raise ValidationError("bm25 corpus is empty")
        self.params = params
        self.doc_ids = [d[0] for d in docs]
        self.titles = [d[1] for d in docs]
        self.bodies = [d[2] for d in docs]
        self._doc_len: list[int] = []
        self._postings: dict[str, dict[int, int]] = {}
        for idx, (_, title, body) in enumerate(docs):
            doc_tokens = _analyze(title + " " + body)
            self._doc_len.append(len(doc_tokens))
            for tok in doc_tokens:
                self._postings.setdefault(tok, {}).setdefault(idx, 0)
                self._postings[tok][idx] += 1
        total = sum(self._doc_len)
        self._avgdl = total / len(docs) if total else 1.0
        self._by_id = {doc_id: idx for idx, doc_id in enumerate(self.doc_ids)}
        if len(self._by_id) != len(self.doc_ids):
            raise ValidationError("bm25 corpus has duplicate doc_ids")

    @classmethod
    def from_corpus_file(cls, path: str | Path, params: Bm25Params) -> "Bm25Index":
        docs: list[tuple[str, str, str]] = []
        for line_no, obj in iter_jsonl(path):
            if set(obj) != {"doc_id", "title", "text"}:
                raise SchemaError(path, line_no,
                                  "corpus rows carry exactly doc_id, title, text")
            doc_id = require_field(obj, "doc_id", str, path, line_no)
            title = require_field(obj, "title", str, path, line_no)
            text = require_field(obj, "text", str, path, line_no)
            docs.append((doc_id, title, text))
        return cls(docs, params)

    def _idf(self, term: str) -> float:
        df = len(self._postings.get(term, ()))
        n = len(self.doc_ids)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def score(self, query_tokens: list[str], doc_id: str) -> float:
        try:
            idx = self._by_id[doc_id]
        except KeyError:
            raise ValidationError(f"unknown doc_id {doc_id!r}") from None
        return self._score_index(query_tokens, idx)

    def _score_index(self, query_tokens: list[str], idx: int) -> float:
        k1, b = self.params.k1, self.params.b
        norm = k1 * (1.0 - b + b * self._doc_len[idx] / self._avgdl)
        total = 0.0
        for term in query_tokens:
            tf = self._postings.get(term, {}).get(idx, 0)
            if tf:
                total += self._idf(term) * tf * (k1 + 1.0) / (tf + norm)
        return total

    def top1(self, question: str) -> RetrievedHit:
        query = _analyze(question)
        k1, b = self.params.k1, self.params.b
        scores: dict[int, float] = {}
        # Unique terms in first-occurrence order keeps float accumulation
        # independent of hash randomization.
        for term in dict.fromkeys(query):
            weight = self._idf(term)
            count = query.count(term)
            for idx, tf in self._postings.get(term, {}).items():
                norm = k1 * (1.0 - b + b * self._doc_len[idx] / self._avgdl)
                scores[idx] = scores.get(idx, 0.0) + count * weight * tf * (k1 + 1.0) / (tf + norm)
        if scores:
            best_score = max(scores.values())
            best = min(self.doc_ids[idx] for idx, sc in scores.items() if sc == best_score)
        else:
            best_score = 0.0
            best = min(self.doc_ids)
        idx = self._by_id[best]
        return RetrievedHit(best, self.titles[idx], self.bodies[idx], best_score)

    def retrieve(self, question_id: str, question: str) -> RetrievedHit:
        return self.top1(question)


class KeyedRetriever:
    """Passages looked up by question id rather than searched for.

    Two kinds share one row format, {"question_id", "doc_id", "title",
    "body"}, and differ only in scores and duplicates:

    * golden: annotated gold passages.  Hits carry score 1.0; a duplicated
      question keeps its first annotation and logs a warning.
    * ingest: results produced outside the toolkit (a dense model, say).
      Rows add a finite "score"; a duplicated question is a schema error.

    Empty bodies are rejected in both.
    """

    def __init__(self, name: str, hits: Mapping[str, RetrievedHit]) -> None:
        self.name = name
        self._hits = dict(hits)

    @classmethod
    def load(cls, path: str | Path, kind: str) -> "KeyedRetriever":
        hits: dict[str, RetrievedHit] = {}
        for line_no, obj in iter_jsonl(path):
            qid = require_field(obj, "question_id", str, path, line_no)
            doc_id = require_field(obj, "doc_id", str, path, line_no)
            title = require_field(obj, "title", str, path, line_no)
            body = require_field(obj, "body", str, path, line_no)
            score = 1.0
            if kind == "ingest":
                score = require_field(obj, "score", (int, float), path, line_no)
                score = require_finite(float(score), "score", path, line_no)
            if not body:
                raise SchemaError(path, line_no, "hit body must not be empty")
            if qid in hits:
                if kind == "ingest":
                    raise SchemaError(path, line_no, f"duplicate retrieval hit for {qid!r}")
                logger.warning("%s:%d: duplicate gold annotation for %s; keeping the first",
                               path, line_no, qid)
                continue
            hits[qid] = RetrievedHit(doc_id, title, body, score)
        return cls(kind, hits)

    def retrieve(self, question_id: str, question: str) -> RetrievedHit:
        hit = self._hits.get(question_id)
        if hit is None:
            raise NoHitError(f"no {self.name} hit for question {question_id!r}")
        return hit
