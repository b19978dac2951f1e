"""Property tests pinning pruned BM25 top-1 to exhaustive scoring.

The reference below is the plain term-at-a-time loop that ``top1`` was first
written as: it scores every posting of every query term.  It stays frozen
here as the oracle.  The pruned ``top1`` must return the same document and
the same score, bit for bit, on every generated corpus and query.
"""
from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from ctxtrace.backends import BM25_STOPWORDS, Bm25Index, Bm25Params, RetrievedHit, _analyze

exhaustively = settings(derandomize=True, max_examples=150, deadline=None)

COMMON = ["apple", "banana", "cherry", "date", "elder", "fig"]
STOPWORDS = sorted(BM25_STOPWORDS)[:6]
RARE = [f"rare{i}" for i in range(4)]
UNINDEXED = ["zebra", "quokka"]

# ---------------------------------------------------------------------------
# Reference: score every posting, in query term order.


def reference_top1(index: Bm25Index, question: str) -> tuple[str, float]:
    scores: dict[int, float] = {}
    for term, count in Counter(_analyze(question)).items():
        weight = count * index._idf(term)
        for idx, tf in index._postings.get(term, {}).items():
            scores[idx] = scores.get(idx, 0.0) + index._term_score(weight, tf, idx)
    if not scores:
        return min(index.doc_ids), 0.0
    best_score = max(scores.values())
    return min(index.doc_ids[idx] for idx, sc in scores.items() if sc == best_score), best_score


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


def queries(words: list[str]) -> st.SearchStrategy[str]:
    # Repeats are allowed, so a term's weight can be count * idf.
    return st.lists(st.sampled_from(words), min_size=1, max_size=8).map(" ".join)


def assert_matches_reference(corpus, question: str) -> RetrievedHit:
    index = Bm25Index(*corpus)
    hit = index.top1(question)
    want_id, want_score = reference_top1(index, question)
    assert (hit.doc_id, hit.score.hex()) == (want_id, want_score.hex())
    assert index.score(_analyze(question), hit.doc_id) == hit.score
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
