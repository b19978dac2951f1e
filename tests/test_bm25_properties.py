"""Property tests pinning BM25 tokenization, index and pruned top-1 to
plain references.

The references below are the code's first, plain forms, frozen here as
oracles that read nothing of the index under test: the tokenizer runs the
article regex over the whole text and drops the stopwords; the index fills
a ``{term: {doc index: tf}}`` table with one ``setdefault`` per (term,
document) pair; and top-1 is the term-at-a-time loop that scores every
posting of every query term with the idf and term formulas written out
here.  The fast paths must give the same tokens, the same postings in the
same order, and the same document and score, bit for bit.
"""
from __future__ import annotations

import gc
import math
import random
import re
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxtrace.backends import BM25_STOPWORDS, Bm25Index, Bm25Params, RetrievedHit, _analyze
from ctxtrace.textnorm import strip_punct

exhaustively = settings(derandomize=True, max_examples=150, deadline=None)

COMMON = ["apple", "banana", "cherry", "date", "elder", "fig"]
STOPWORDS = sorted(BM25_STOPWORDS)[:6]
RARE = [f"rare{i}" for i in range(4)]
UNINDEXED = ["zebra", "quokka"]
# Words and articles, and the pieces that put a non-word character inside a
# token: symbols, numbers, "_", a combining acute, "İ", Unicode spaces and a
# separator control.
PIECES = ["apple", "Fig", "x2", "a", "an", "The", "AN", "+", "$", "\u00a9", "\u00bd",
          "\u00b2", "_", "\u0301", "\u0130", "\u00a0", "\u2003", "\x1c", ",", "'"]

# ---------------------------------------------------------------------------
# References: the article pass on every text, postings filled document by
# document, and every posting scored in query term order.


def reference_analyze(text: str) -> list[str]:
    lowered = strip_punct(text.lower())
    return [t for t in re.sub(r"\b(?:a|an|the)\b", " ", lowered).split() if t not in BM25_STOPWORDS]


def reference_index(docs: list[tuple[str, str, str]], params: Bm25Params):
    """(postings, norm) as the index first built them."""
    postings: dict[str, dict[int, int]] = {}
    doc_len = []
    for idx, (_, title, body) in enumerate(docs):
        doc_tokens = reference_analyze(title + " " + body)
        doc_len.append(len(doc_tokens))
        for tok, tf in Counter(doc_tokens).items():
            postings.setdefault(tok, {})[idx] = tf
    total = sum(doc_len)
    avgdl = total / len(docs) if total else 1.0
    norm = [params.k1 * (1.0 - params.b + params.b * dl / avgdl) for dl in doc_len]
    return postings, norm


def reference_scores(docs: list[tuple[str, str, str]], params: Bm25Params,
                     query_tokens: list[str]) -> dict[str, float]:
    """The score of every document that holds a query term, by doc_id."""
    postings, norm = reference_index(docs, params)
    n = len(docs)
    scores: dict[int, float] = {}
    for term, count in Counter(query_tokens).items():
        df = len(postings.get(term, ()))
        weight = count * math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for idx, tf in postings.get(term, {}).items():
            term_score = weight * tf * (params.k1 + 1.0) / (tf + norm[idx])
            scores[idx] = scores.get(idx, 0.0) + term_score
    return {docs[idx][0]: score for idx, score in scores.items()}


def reference_top1(docs: list[tuple[str, str, str]], params: Bm25Params,
                   question: str) -> tuple[str, float]:
    scores = reference_scores(docs, params, reference_analyze(question))
    if not scores:
        return min(d[0] for d in docs), 0.0
    best_score = max(scores.values())
    return min(doc_id for doc_id, sc in scores.items() if sc == best_score), best_score


# ---------------------------------------------------------------------------
# Generated corpora and queries.


@st.composite
def corpora(draw) -> tuple[list[tuple[str, str, str]], Bm25Params]:
    """Common words and stopwords, some documents holding a planted rare
    token, some copied under another id (so exact ties occur), and some of
    nothing but stopwords.  Ids are shuffled against corpus order, so the
    lowest id is not the first document."""
    bodies = draw(st.lists(st.lists(st.sampled_from(COMMON + STOPWORDS), max_size=10),
                           min_size=1, max_size=20))
    n = len(bodies)
    for rare, holder, tf in draw(st.lists(st.tuples(st.sampled_from(RARE), st.integers(0, 99),
                                                    st.integers(1, 3)), max_size=4)):
        bodies[holder % n] += [rare] * tf
    bodies += [bodies[i % n] for i in draw(st.lists(st.integers(0, 99), max_size=4))]
    bodies += draw(st.lists(st.lists(st.sampled_from(STOPWORDS), max_size=4), max_size=2))
    ids = draw(st.permutations(range(len(bodies))))
    docs = [(f"d{i:03d}", "", " ".join(body)) for i, body in zip(ids, bodies)]
    params = Bm25Params(k1=draw(st.sampled_from([0.5, 1.2, 2.0])),
                        b=draw(st.sampled_from([0.0, 0.75, 1.0])))
    return docs, params


def texts() -> st.SearchStrategy[str]:
    """Pieces run together or with a space between them."""
    return st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " "])),
                    max_size=12).map(lambda parts: "".join(p + sep for p, sep in parts))


def queries(words: list[str]) -> st.SearchStrategy[str]:
    # Repeats are allowed, so a term's weight can be count * idf.
    return st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join)


def expanded_postings(index: Bm25Index) -> dict[str, dict[int, int]]:
    """The index's postings as the reference's ``{term: {doc index: tf}}``,
    in the index's own term and document order."""
    return {term: {idx: index._repeats.get(term, {}).get(idx, 1) for idx in docs}
            for term, docs in index._postings.items()}


def assert_matches_reference(corpus, question: str) -> RetrievedHit:
    index = Bm25Index(*corpus)
    hit = index.top1(question)
    want_id, want_score = reference_top1(*corpus, question)
    assert (hit.doc_id, hit.score.hex()) == (want_id, want_score.hex())
    return hit


@exhaustively
@given(corpora(), queries(COMMON + STOPWORDS + RARE + UNINDEXED))
def test_top1_matches_exhaustive_scoring(corpus, question):
    assert_matches_reference(corpus, question)


@exhaustively
@given(corpora(), queries(RARE[:1] + COMMON[:3]))
def test_top1_with_a_rare_term_matches_exhaustive_scoring(corpus, question):
    assert_matches_reference(corpus, question)


@exhaustively
@given(corpora(), queries(COMMON))
def test_top1_on_common_words_only_matches_exhaustive_scoring(corpus, question):
    assert_matches_reference(corpus, question)


@exhaustively
@given(corpora(), queries(STOPWORDS + UNINDEXED))
def test_top1_with_no_indexed_term_picks_the_lowest_id(corpus, question):
    hit = assert_matches_reference(corpus, question)
    assert (hit.doc_id, hit.score) == (min(d[0] for d in corpus[0]), 0.0)


class CountedPostings:
    """A posting list that counts every entry read from it.  It offers
    nothing but its length, iteration and indexing (which bisection uses),
    so a walk cannot read an entry without its being counted."""

    def __init__(self, docs: list[int], reads: list[int]) -> None:
        self._docs, self._reads = docs, reads

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self):
        for idx in self._docs:
            self._reads.append(idx)
            yield idx

    def __getitem__(self, at: int) -> int:
        self._reads.append(self._docs[at])
        return self._docs[at]


def test_a_rare_term_stops_the_walk_early():
    # 1,000 documents share "common"; one also holds "rare".  Once that
    # document's rare-term score is in, no other document can reach it.
    docs = [(f"d{i:04d}", "", "common filler") for i in range(999)]
    docs.append(("d0999", "", "common rare"))
    params = Bm25Params()
    index = Bm25Index(docs, params)
    want_id, want_score = reference_top1(docs, params, "rare common")
    reads: list[int] = []
    index._postings = {term: CountedPostings(idxs, reads) for term, idxs in index._postings.items()}
    hit = index.top1("rare common")
    assert (hit.doc_id, hit.score.hex()) == ("d0999", want_score.hex())
    assert want_id == "d0999"
    # The rare term's one posting, then a few reads to rescore d0999; a
    # walk of "common" would read 1,000.
    assert 0 < len(reads) < 50


# ---------------------------------------------------------------------------
# Tokenization and index build.


@exhaustively
@given(texts())
def test_analyze_matches_the_whole_text_article_pass(text):
    assert _analyze(text) == reference_analyze(text)


@exhaustively
@given(st.lists(st.tuples(texts(), texts()), min_size=1, max_size=8),
       st.sampled_from([Bm25Params(), Bm25Params(k1=2.0, b=0.0), Bm25Params(k1=0.5, b=1.0)]),
       texts())
def test_index_matches_the_reference_build(pairs, params, question):
    docs = [(f"d{i}", title, body) for i, (title, body) in enumerate(pairs)]
    index = Bm25Index(docs, params)
    postings, norm = reference_index(docs, params)
    # Equal tables with equal iteration orders, down to each posting list;
    # counts are stored only where they are above 1.
    assert ([(term, list(p.items())) for term, p in expanded_postings(index).items()]
            == [(term, list(p.items())) for term, p in postings.items()])
    assert all(tf > 1 for repeats in index._repeats.values() for tf in repeats.values())
    assert [x.hex() for x in index._norm] == [x.hex() for x in norm]
    assert_matches_reference((docs, params), question)


def retained_bytes(build) -> int:
    """Bytes that tracemalloc counts as still held once *build*'s result is
    built and its garbage collected."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return retained


def zipf_corpus(seed: int, n_docs: int, vocab_size: int) -> list[tuple[str, str, str]]:
    """Documents of 60 Zipfian word draws, as in running text: most (term,
    document) pairs have tf 1, and most terms occur in a handful of
    documents."""
    rng = random.Random(seed)
    vocab = [f"w{rank}" for rank in range(vocab_size)]
    cum_weights = list(accumulate(1.0 / rank for rank in range(1, vocab_size + 1)))
    return [(f"d{i:04d}", "", " ".join(rng.choices(vocab, cum_weights=cum_weights, k=60)))
            for i in range(n_docs)]


def queried_on_every_term(docs: list[tuple[str, str, str]], params: Bm25Params) -> Bm25Index:
    """An index that has answered a query on each of its terms, so that
    whatever queries leave behind is held too."""
    index = Bm25Index(docs, params)
    terms = list(index._postings)
    for at in range(0, len(terms), 8):
        index.top1(" ".join(terms[at:at + 8]))
    return index


def test_index_holds_at_most_six_tenths_of_a_dict_per_term():
    docs = zipf_corpus(18, 1500, 4000)
    params = Bm25Params()
    index_bytes = retained_bytes(lambda: queried_on_every_term(docs, params))
    reference_bytes = retained_bytes(lambda: reference_index(docs, params)[0])
    assert index_bytes <= 0.6 * reference_bytes, (index_bytes, reference_bytes)


def test_threads_sharing_an_index_get_the_one_thread_answers():
    # The threads share one index, and with it the idf memo that their
    # queries fill; each must still get the one-thread answer.
    docs = zipf_corpus(7, 300, 2000)
    rng = random.Random(7)
    questions = [" ".join(rng.choice(docs)[2].split()[:6]) for _ in range(400)]
    index = Bm25Index(docs, Bm25Params())
    want = [(h.doc_id, h.score.hex()) for h in map(Bm25Index(docs, Bm25Params()).top1, questions)]

    def top1(question: str) -> tuple[str, str]:
        hit = index.top1(question)
        return hit.doc_id, hit.score.hex()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(top1, questions, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
