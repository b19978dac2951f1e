"""Backends: fingerprints, HTTP transport, scripts, and retrievers."""
from __future__ import annotations

import json
import math
import random

import pytest
import requests

from ctxtrace.backends import (
    BACKOFF_BASE_SECONDS,
    BM25_STOPWORDS,
    RETRYABLE_STATUSES,
    BackendSpec,
    Bm25Index,
    Bm25Params,
    GenerationScript,
    HttpBackend,
    KeyedRetriever,
    ReaderScript,
    context_fingerprint,
)
from ctxtrace.errors import (
    BackendRejectedError,
    BackendUnavailableError,
    EmptyResponseError,
    NoHitError,
    ScriptMissError,
    SchemaError,
    ValidationError,
)

from .conftest import write_jsonl

# ---------------------------------------------------------------------------
# context fingerprints


def test_fingerprint_frozen_values():
    # FNV-1a 64 over the normalized text, recomputed independently.
    assert context_fingerprint("ab") == "089c4407b545986a"
    assert context_fingerprint("The Hindenburg Line.") == "e369563536ca65b5"
    assert context_fingerprint("") == "cbf29ce484222325"


def test_fingerprint_normalization_invariance():
    assert context_fingerprint("Ab.") == context_fingerprint("ab")
    assert context_fingerprint("The  Cat") == context_fingerprint("cat")
    assert context_fingerprint("cat") != context_fingerprint("dog")


def test_fingerprint_shape():
    rng = random.Random(11)
    for _ in range(50):
        text = "".join(rng.choice("abc XYZ.!") for _ in range(rng.randrange(0, 30)))
        fp = context_fingerprint(text)
        assert len(fp) == 16
        assert all(c in "0123456789abcdef" for c in fp)
        assert fp == context_fingerprint(text)


# ---------------------------------------------------------------------------
# backend specs


def test_backend_spec_validation():
    spec = BackendSpec(kind="http", endpoint="http://x/v1", model_name="m")
    assert spec.name == "m"
    assert BackendSpec(kind="scripted", script_path="s.jsonl").name == "scripted"
    with pytest.raises(ValidationError):
        BackendSpec(kind="carrier-pigeon")
    with pytest.raises(ValidationError):
        BackendSpec(kind="http", endpoint="http://x", temperature=2.5)
    with pytest.raises(ValidationError):
        BackendSpec(kind="http", endpoint="http://x", timeout=0.0)
    with pytest.raises(ValidationError):
        BackendSpec(kind="http", endpoint="http://x", max_retries=-1)


# ---------------------------------------------------------------------------
# HTTP transport


class FakeResponse:
    def __init__(self, status, body=None):
        self.status_code = status
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


def _ok(text):
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _backend(outcomes, max_retries=3, **kwargs):
    spec = BackendSpec(kind="http", endpoint="http://api.test/v1/chat",
                       model_name="reader-1", temperature=0.0, timeout=9.0,
                       max_retries=max_retries)
    session = FakeSession(outcomes)
    sleeps = []
    backend = HttpBackend(spec, session=session, sleep=sleeps.append, **kwargs)
    return backend, session, sleeps


def test_http_success_payload_and_headers(monkeypatch):
    monkeypatch.setenv("CTX_API_KEY", "sk-test-123")
    backend, session, sleeps = _backend([_ok("Paris")])
    assert backend.complete("capital?") == "Paris"
    assert sleeps == []
    call = session.calls[0]
    assert call["url"] == "http://api.test/v1/chat"
    assert call["timeout"] == 9.0
    assert call["json"]["model"] == "reader-1"
    assert call["json"]["temperature"] == 0.0
    assert call["json"]["messages"] == [{"role": "user", "content": "capital?"}]
    assert call["headers"]["Authorization"] == "Bearer sk-test-123"


def test_http_no_auth_header_without_key(monkeypatch):
    monkeypatch.delenv("CTX_API_KEY", raising=False)
    backend, session, _ = _backend([_ok("x")])
    backend.complete("q")
    assert "Authorization" not in session.calls[0]["headers"]


def test_http_retries_then_succeeds():
    outcomes = [FakeResponse(500), FakeResponse(429),
                requests.ConnectionError("reset"), _ok("late")]
    backend, session, sleeps = _backend(outcomes, max_retries=3)
    assert backend.complete("q") == "late"
    assert len(session.calls) == 4
    # Exponential backoff before every retry attempt, no jitter.
    assert sleeps == [BACKOFF_BASE_SECONDS, BACKOFF_BASE_SECONDS * 2,
                      BACKOFF_BASE_SECONDS * 4]


def test_http_gives_up_after_max_retries_plus_one():
    backend, session, sleeps = _backend([FakeResponse(503)] * 10, max_retries=2)
    with pytest.raises(BackendUnavailableError) as err:
        backend.complete("q")
    assert len(session.calls) == 3
    assert "3 attempts" in str(err.value)
    assert sleeps == [0.5, 1.0]


def test_http_client_error_fails_immediately():
    backend, session, sleeps = _backend([FakeResponse(400)] * 3)
    with pytest.raises(BackendRejectedError):
        backend.complete("q")
    assert len(session.calls) == 1
    assert sleeps == []


def test_http_empty_and_malformed_completions():
    backend, _, _ = _backend([_ok("   ")])
    with pytest.raises(EmptyResponseError):
        backend.complete("q")
    backend, _, _ = _backend([FakeResponse(200, {"choices": []})])
    with pytest.raises(BackendRejectedError):
        backend.complete("q")
    backend, _, _ = _backend([FakeResponse(200, None)])
    with pytest.raises(BackendRejectedError):
        backend.complete("q")


def test_http_retryable_status_set():
    assert 408 in RETRYABLE_STATUSES
    assert 429 in RETRYABLE_STATUSES
    assert all(code in RETRYABLE_STATUSES for code in range(500, 600))
    assert 400 not in RETRYABLE_STATUSES
    assert 404 not in RETRYABLE_STATUSES
    assert 200 not in RETRYABLE_STATUSES


def test_http_rate_gate_spaces_requests():
    backend, _, sleeps = _backend([_ok("a"), _ok("b")], min_interval=5.0)
    backend.complete("one")
    backend.complete("two")
    waits = [w for w in sleeps if w > 0]
    assert len(waits) == 1
    assert 4.0 < waits[0] <= 5.0


def test_http_requires_http_spec():
    with pytest.raises(ValidationError):
        HttpBackend(BackendSpec(kind="scripted", script_path="x"))


# ---------------------------------------------------------------------------
# reader scripts


def _reader_script(tmp_path, rows):
    return ReaderScript.load(write_jsonl(tmp_path / "script.jsonl", rows))


def test_reader_script_lookup_and_fallback(tmp_path):
    fp = context_fingerprint("some context")
    script = _reader_script(tmp_path, [
        {"question_id": "q1", "mode": "single_context",
         "context_fingerprint": fp, "answer": "Lisbon"},
        {"question_id": "q1", "mode": "closed_book",
         "context_fingerprint": None, "answer": "unknown"},
        {"question_id": "q1", "mode": "hybrid",
         "context_fingerprint": None, "answer": "Porto"},
        {"question_id": "q1", "mode": "hybrid",
         "context_fingerprint": "0" * 16, "answer": "Faro"},
    ])
    assert script.answer("q1", "single_context", fp) == "Lisbon"
    assert script.answer("q1", "closed_book", None) == "unknown"
    # Exact hybrid fingerprint wins; anything else falls back to the null entry.
    assert script.answer("q1", "hybrid", "0" * 16) == "Faro"
    assert script.answer("q1", "hybrid", "f" * 16) == "Porto"
    with pytest.raises(ScriptMissError):
        script.answer("q2", "single_context", fp)
    with pytest.raises(ScriptMissError):
        script.answer("q1", "single_context", "f" * 16)


def test_reader_script_schema_errors(tmp_path):
    with pytest.raises(SchemaError) as err:
        _reader_script(tmp_path, [
            {"question_id": "q", "mode": "telepathy",
             "context_fingerprint": None, "answer": "x"}])
    assert ":1:" in str(err.value)
    with pytest.raises(SchemaError):
        _reader_script(tmp_path, [
            {"question_id": "q", "mode": "single_context",
             "context_fingerprint": None, "answer": "x"}])
    with pytest.raises(SchemaError):
        _reader_script(tmp_path, [
            {"question_id": "q", "mode": "closed_book",
             "context_fingerprint": "a" * 16, "answer": "x"}])
    row = {"question_id": "q", "mode": "closed_book",
           "context_fingerprint": None, "answer": "x"}
    with pytest.raises(SchemaError) as err:
        _reader_script(tmp_path, [row, row])
    assert ":2:" in str(err.value)


# ---------------------------------------------------------------------------
# generation scripts


def test_generation_script(tmp_path):
    script = GenerationScript.load(write_jsonl(tmp_path / "gen.jsonl", [
        {"question_id": "q1", "target_words": 100, "text": "hundred-ish words"},
        {"question_id": "q1", "target_words": None, "text": "free running"},
    ]))
    assert script.text_for("q1", 100) == "hundred-ish words"
    assert script.text_for("q1", None) == "free running"
    with pytest.raises(ScriptMissError):
        script.text_for("q1", 80)
    with pytest.raises(ScriptMissError):
        script.text_for("q2", 100)


def test_generation_script_duplicate(tmp_path):
    row = {"question_id": "q1", "target_words": 80, "text": "t"}
    with pytest.raises(SchemaError) as err:
        GenerationScript.load(write_jsonl(tmp_path / "gen.jsonl", [row, row]))
    assert ":2:" in str(err.value)


# ---------------------------------------------------------------------------
# BM25


def _index(docs, k1=1.2, b=0.75):
    return Bm25Index(docs, Bm25Params(k1=k1, b=b))


ORACLE_DOCS = [
    ("d1", "apple", "apple banana"),
    ("d2", "banana", "banana cherry banana"),
    ("d3", "cherry", "date"),
]


def test_bm25_frozen_scores():
    # Hand-computed Okapi values for the three-document corpus above:
    # idf(df=1) = ln(2.5/1.5 + 1), idf(df=2) = ln(1.5/2.5 + 1), avgdl = 3.
    index = _index(ORACLE_DOCS)
    assert index.score(["apple", "banana"], "d1") == pytest.approx(
        1.818643852137, abs=1e-9)
    assert index.score(["apple", "banana"], "d2") == pytest.approx(
        0.689338656227, abs=1e-9)
    assert index.score(["apple", "banana"], "d3") == 0.0


def test_bm25_top1_picks_highest():
    index = _index(ORACLE_DOCS)
    hit = index.top1("apple banana")
    assert hit.doc_id == "d1"
    assert hit.title == "apple"
    assert hit.body == "apple banana"
    assert hit.score == pytest.approx(1.818643852137, abs=1e-9)


def test_bm25_repeated_query_terms_accumulate():
    index = _index(ORACLE_DOCS)
    single = index.score(["banana"], "d2")
    assert index.score(["banana", "banana"], "d2") == pytest.approx(2 * single)


def test_bm25_ties_and_no_overlap_pick_lowest_doc_id():
    index = _index([("b", "twin", "same words"), ("a", "twin", "same words")])
    assert index.top1("same twin").doc_id == "a"
    hit = index.top1("xylophone")
    assert hit.doc_id == "a"
    assert hit.score == 0.0


def test_bm25_stopwords_ignored_in_index_and_query():
    index = _index([("d1", "note", "the cat sat"), ("d2", "note", "of a dog")])
    assert index.top1("the cat").doc_id == "d1"
    assert index.score(["the"], "d1") == 0.0  # never indexed
    # A document of nothing but stopwords scores zero everywhere.
    index = _index([("d1", "a", "the of and"), ("d2", "b", "llama")])
    assert index.top1("llama").doc_id == "d2"


def test_bm25_validation():
    with pytest.raises(ValidationError):
        _index([])
    with pytest.raises(ValidationError):
        _index([("d1", "t", "x"), ("d1", "t", "y")])
    with pytest.raises(ValidationError):
        _index(ORACLE_DOCS).score(["x"], "nope")
    with pytest.raises(ValidationError):
        Bm25Params(k1=0.0)
    with pytest.raises(ValidationError):
        Bm25Params(b=1.5)


def test_bm25_corpus_file_roundtrip(tmp_path):
    path = write_jsonl(tmp_path / "corpus.jsonl", [
        {"doc_id": d, "title": t, "text": x} for d, t, x in ORACLE_DOCS])
    index = Bm25Index.from_corpus_file(path, Bm25Params())
    assert index.retrieve("q1", "apple banana").doc_id == "d1"
    bad = write_jsonl(tmp_path / "bad.jsonl", [
        {"doc_id": "d", "title": "t", "text": "x", "extra": 1}])
    with pytest.raises(SchemaError) as err:
        Bm25Index.from_corpus_file(bad, Bm25Params())
    assert ":1:" in str(err.value)


def _oracle_top1(docs, question, k1, b):
    """Independent Okapi implementation used to cross-check the index."""
    from ctxtrace.textnorm import tokens

    def analyze(text):
        return [t for t in tokens(text) if t not in BM25_STOPWORDS]

    doc_tokens = [analyze(t + " " + body) for _, t, body in docs]
    lens = [len(toks) for toks in doc_tokens]
    avgdl = (sum(lens) / len(docs)) if sum(lens) else 1.0
    query = analyze(question)
    n = len(docs)
    scores = []
    for toks, dl in zip(doc_tokens, lens):
        total = 0.0
        for term in dict.fromkeys(query):
            tf = toks.count(term)
            if not tf:
                continue
            df = sum(1 for other in doc_tokens if term in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            total += query.count(term) * idf * tf * (k1 + 1.0) / (
                tf + k1 * (1.0 - b + b * dl / avgdl))
        scores.append(total)
    if all(s == 0.0 for s in scores):
        return min(d[0] for d in docs), 0.0
    best = max(scores)
    best_id = min(d[0] for d, s in zip(docs, scores) if s == best)
    return best_id, best


def test_bm25_matches_independent_implementation():
    rng = random.Random(20260816)
    vocab = ["ash", "birch", "cedar", "dune", "elm", "fern", "the", "of", "gale"]
    for _ in range(60):
        n_docs = rng.randrange(2, 8)
        docs = []
        for i in range(n_docs):
            title = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 3)))
            body = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 15)))
            docs.append((f"doc{i:02d}", title, body))
        rng.shuffle(docs)
        k1 = rng.choice([0.5, 1.2, 2.0])
        b = rng.choice([0.0, 0.4, 0.75, 1.0])
        question = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
        hit = _index(docs, k1=k1, b=b).top1(question)
        want_id, want_score = _oracle_top1(docs, question, k1, b)
        assert hit.doc_id == want_id
        assert hit.score == pytest.approx(want_score, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# golden and ingested retrieval


def test_golden_retriever(tmp_path, caplog):
    path = write_jsonl(tmp_path / "gold.jsonl", [
        {"question_id": "q1", "doc_id": "d9", "title": "T", "body": "B"},
        {"question_id": "q1", "doc_id": "d8", "title": "T2", "body": "B2"},
    ])
    with caplog.at_level("WARNING"):
        retriever = KeyedRetriever.load(path, "golden")
    assert "duplicate" in caplog.text
    assert retriever.name == "golden"
    hit = retriever.retrieve("q1", "ignored question text")
    assert (hit.doc_id, hit.title, hit.body, hit.score) == ("d9", "T", "B", 1.0)
    with pytest.raises(NoHitError):
        retriever.retrieve("q2", "whatever")
    with pytest.raises(SchemaError):
        KeyedRetriever.load(write_jsonl(tmp_path / "empty.jsonl", [
            {"question_id": "q1", "doc_id": "d9", "title": "T", "body": ""}]), "golden")


def test_ingest_retrieval(tmp_path):
    path = write_jsonl(tmp_path / "hits.jsonl", [
        {"question_id": "q1", "doc_id": "d1", "title": "T", "body": "B", "score": 0.7},
    ])
    retriever = KeyedRetriever.load(path, "ingest")
    assert retriever.name == "ingest"
    assert retriever.retrieve("q1", "q").score == 0.7
    assert retriever.retrieve("q1", "q").doc_id == "d1"
    with pytest.raises(NoHitError):
        retriever.retrieve("zz", "q")


def test_ingest_retrieval_rejects_bad_rows(tmp_path):
    base = {"question_id": "q1", "doc_id": "d1", "title": "T", "body": "B", "score": 1.0}
    with pytest.raises(SchemaError) as err:
        KeyedRetriever.load(write_jsonl(tmp_path / "a.jsonl", [base, base]), "ingest")
    assert ":2:" in str(err.value)
    with pytest.raises(SchemaError):
        KeyedRetriever.load(write_jsonl(tmp_path / "b.jsonl", [dict(base, body="")]), "ingest")
    bad = tmp_path / "c.jsonl"
    bad.write_text(json.dumps(dict(base, score=float("inf"))) + "\n")
    with pytest.raises(SchemaError):
        KeyedRetriever.load(bad, "ingest")

