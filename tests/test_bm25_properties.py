"""Property tests pinning BM25 tokenization, index and pruned top-1 to
plain references.

The references below are the code's first, plain forms, frozen here as
oracles: the tokenizer runs the article regex over the whole text and drops
the stopwords; the index fills its postings with one ``setdefault`` per
(term, document) pair; and top-1 is the term-at-a-time loop that scores
every posting of every query term.  The fast paths must give the same
tokens, the same postings in the same order, and the same document and
score, bit for bit.
"""
from __future__ import annotations

import re
from collections import Counter

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


def reference_scores(index: Bm25Index, query_tokens: list[str]) -> dict[str, float]:
    """The score of every document that holds a query term, by doc_id."""
    scores: dict[int, float] = {}
    for term, count in Counter(query_tokens).items():
        weight = count * index._idf(term)
        for idx, tf in index._postings.get(term, {}).items():
            scores[idx] = scores.get(idx, 0.0) + index._term_score(weight, tf, idx)
    return {index.doc_ids[idx]: score for idx, score in scores.items()}


def reference_top1(index: Bm25Index, question: str) -> tuple[str, float]:
    scores = reference_scores(index, reference_analyze(question))
    if not scores:
        return min(index.doc_ids), 0.0
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


def assert_matches_reference(corpus, question: str) -> RetrievedHit:
    index = Bm25Index(*corpus)
    hit = index.top1(question)
    want_id, want_score = reference_top1(index, question)
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


def test_a_rare_term_stops_the_walk_early(monkeypatch):
    # 1,000 documents share "common"; one also holds "rare".  Once that
    # document's rare-term score is in, no other document can reach it.
    docs = [(f"d{i:04d}", "", "common filler") for i in range(999)]
    docs.append(("d0999", "", "common rare"))
    index = Bm25Index(docs, Bm25Params())
    want_id, want_score = reference_top1(index, "rare common")
    calls = []
    term_score = index._term_score

    def counted(*args):
        calls.append(args)
        return term_score(*args)

    monkeypatch.setattr(index, "_term_score", counted)
    hit = index.top1("rare common")
    assert (hit.doc_id, hit.score.hex()) == ("d0999", want_score.hex())
    assert want_id == "d0999"
    assert len(calls) < 50


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
    # Equal tables with equal iteration orders, down to each posting list.
    assert ([(term, list(p.items())) for term, p in index._postings.items()]
            == [(term, list(p.items())) for term, p in postings.items()])
    assert [x.hex() for x in index._norm] == [x.hex() for x in norm]
    assert_matches_reference((docs, params), question)
