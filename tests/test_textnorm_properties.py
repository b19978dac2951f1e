"""Property tests pinning the fast text primitives to slow reference versions.

The reference functions below are the plain per-character loops that
punctuation stripping and sentence splitting were first written as,
normalization with its article regex run over the whole text, and sentence
similarity scored one set of tokens at a time.  They stay frozen here as
oracles: the library's versions must agree with them on every generated
input.
"""
from __future__ import annotations

import re
import sys
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxtrace import textnorm
from ctxtrace.analysis import (
    AGGREGATIONS,
    build_completeness_variants,
    s_trunc,
    sentence_jaccard,
    trunc,
)
from ctxtrace.backends import BackendSpec, ReaderScript, context_fingerprint
from ctxtrace.pipeline import CONTEXT_JOIN, Context, PromptSet, QaExample, Reader, TracedSample
from ctxtrace.textnorm import (
    SentenceSpan,
    contains_answer,
    normalize_answer,
    split_sentences,
    strip_punct,
    tokens,
    word_count,
)

exhaustively = settings(derandomize=True, max_examples=200, deadline=None)

# ---------------------------------------------------------------------------
# Reference versions, one character or byte at a time.


def reference_strip_punct(text: str) -> str:
    return "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))


def reference_normalize(text: str) -> str:
    lowered = reference_strip_punct(text.lower())
    return " ".join(re.sub(r"\b(?:a|an|the)\b", " ", lowered).split())


def reference_split_sentences(text: str) -> list[SentenceSpan]:
    spans: list[SentenceSpan] = []
    n = len(text)
    start: int | None = None
    i = 0
    while i < n:
        ch = text[i]
        if start is None:
            if ch.isspace():
                i += 1
                continue
            start = i
        if ch in ".!?":
            run_end = i + 1
            while run_end < n and text[run_end] in ".!?":
                run_end += 1
            if reference_is_break(text, start, i, run_end):
                spans.append(SentenceSpan(start, run_end, text[start:run_end]))
                start = None
            i = run_end
            continue
        i += 1
    if start is not None:
        end = n
        while end > start and text[end - 1].isspace():
            end -= 1
        spans.append(SentenceSpan(start, end, text[start:end]))
    return spans


def reference_is_break(text: str, sent_start: int, term_index: int, run_end: int) -> bool:
    j = run_end
    while j < len(text) and text[j].isspace():
        j += 1
    if j == len(text):
        return True
    if j == run_end:
        return False
    if not text[j].isupper():
        return False
    if text[run_end - 1] == "." and run_end - term_index == 1:
        i = term_index
        while i > sent_start and not text[i - 1].isspace():
            i -= 1
        word = text[i:term_index].lstrip("\"'([{" + "‘“")
        if word.lower() in textnorm._ABBREVIATIONS:
            return False
        if len(word) == 1 and word.isalpha():
            return False
    return True


def reference_jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def reference_sentence_jaccard(question: str, context_text: str, aggregation: str) -> float:
    spans = split_sentences(context_text)
    if not spans:
        return 0.0
    question_tokens = set(tokens(question))
    scores = [reference_jaccard(question_tokens, set(tokens(s.text))) for s in spans]
    return max(scores) if aggregation == "max" else sum(scores) / len(scores)


def reference_trunc(text: str, target_words: int) -> str:
    if word_count(text) <= target_words:
        return text
    kept: list[str] = []
    words = 0
    for token in text.split():
        kept.append(token)
        if word_count(token):
            words += 1
            if words == target_words:
                break
    return " ".join(kept)


def reference_s_trunc(text: str, target_words: int) -> str:
    sentences = split_sentences(text)
    if not sentences:
        return text
    total = 0
    end: int | None = None
    for span in sentences:
        count = word_count(span.text)
        if total + count > target_words:
            break
        total += count
        end = span.end
    else:
        return text
    if end is None:
        return text[:sentences[0].end]
    return text[:end]


def reference_contains(context_text: str, answer: str) -> bool:
    needle, hay = tokens(answer), tokens(context_text)
    return bool(needle) and any(hay[i:i + len(needle)] == needle
                                for i in range(len(hay) - len(needle) + 1))


# ---------------------------------------------------------------------------
# Generated text: words, abbreviations and initials, terminator runs, and
# ASCII and Unicode whitespace.

WHITESPACE = [" ", "  ", "\t", "\n", "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "\x1c"]
words = st.sampled_from(["alpha", "Beta", "GAMMA", "the", "A", "an", "J", "k", "Dr", "e.g",
                         "U.S", "vs", "Jan", "3", "3.5", "(Mr", "“St", "Öl", "ß", "Ǆ",
                         "x-y", "it's", "—", "…", "", "¿Qué"])
terminators = st.sampled_from([".", "!", "?", "?!", "...", ".\"", ""])
spaces = st.sampled_from(WHITESPACE)
sentences_text = st.lists(st.tuples(words, terminators, spaces), max_size=25).map(
    lambda parts: "".join(w + t + s for w, t, s in parts))
# Words and articles, and the pieces that put a non-word character inside a
# token or test its edges: symbols (Sm, Sc, So), numbers (No), "_" (Pc), a
# combining acute (Mn), "İ" (which lowercases to "i" plus a combining dot),
# Unicode spaces and a separator control, run together or spaced apart.
PIECES = ["apple", "Fig", "x2", "a", "an", "The", "AN", "+", "$", "\u00a9", "\u00bd",
          "\u00b2", "_", "\u0301", "\u0130", "\u00a0", "\u2003", "\x1c", ",", "'"]
pieces_text = st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " "])),
                       max_size=12).map(lambda parts: "".join(p + sep for p, sep in parts))
any_text = st.text(max_size=80) | sentences_text


@exhaustively
@given(st.text(max_size=200))
def test_strip_punct_matches_the_character_filter(text):
    assert strip_punct(text) == reference_strip_punct(text)


@exhaustively
@given(any_text)
@example("Dr . Smith left. J . Doe too.")
def test_split_sentences_matches_the_character_loop(text):
    spans = split_sentences(text)
    assert spans == reference_split_sentences(text)
    covered = set()
    for span in spans:
        assert span.text == text[span.start:span.end]
        covered.update(range(span.start, span.end))
    assert all(i in covered for i, ch in enumerate(text) if not ch.isspace())


def test_word_characters_are_the_alphanumeric_ones_and_underscore():
    # The premise of tokens' article pass, over all of Unicode: re's \w is
    # str.isalnum plus "_", and no whitespace character is a word character.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.sub(r"[\W_]+", "", chars) == "".join(filter(str.isalnum, chars))
    assert re.search(r"(?=\w)\s", chars) is None


@exhaustively
@given(pieces_text | any_text)
def test_normalize_matches_the_whole_text_article_pass(text):
    assert tokens(text) == reference_normalize(text).split()
    assert normalize_answer(text) == reference_normalize(text)


@pytest.mark.parametrize("text, want", [
    ("the+x", ["+x"]),                               # a symbol makes "the" a word of its own
    ("\u0130the", ["i\u0307"]),                      # so does the lowercase dot above "i"
    ("\u00bdthe \u00b2an", ["\u00bdthe", "\u00b2an"]),  # numbers are word characters
    ("the_end, a_b", ["theend", "ab"]),              # "_" is punctuation, stripped first
])
def test_tokens_keep_the_article_pass_where_it_changes_a_token(text, want):
    assert tokens(text) == reference_normalize(text).split() == want


def test_tokens_run_the_article_pass_on_non_alphanumeric_tokens_only(monkeypatch):
    seen = []

    class Recording:
        def sub(self, repl, text):
            seen.append(text)
            return re.sub(r"\b(?:a|an|the)\b", repl, text)

    monkeypatch.setattr(textnorm, "_ARTICLE_RE", Recording())
    assert tokens("The Orchard's 2nd fig, an apple\u00a0\u00bd") == [
        "orchards", "2nd", "fig", "apple", "\u00bd"]
    assert seen == []
    # A combining mark is not a word character, so "an" before one is an article.
    text = "The sum: the+x, a $5 an\u0301"
    assert tokens(text) == reference_normalize(text).split() == ["sum", "+x", "$5", "\u0301"]
    assert seen == ["the+x", "$5", "an\u0301"]


@exhaustively
@given(any_text)
def test_normalize_is_idempotent(text):
    once = normalize_answer(text)
    assert normalize_answer(once) == once


@exhaustively
@given(any_text, any_text, st.data())
def test_contains_answer_is_token_sequence_occurrence(context_text, other, data):
    hay = tokens(context_text)
    norm = " ".join(hay)
    kind = data.draw(st.sampled_from(["tokens", "characters", "other"]))
    if kind == "tokens" and hay:
        i = data.draw(st.integers(0, len(hay) - 1))
        answer = " ".join(hay[i:data.draw(st.integers(i + 1, len(hay)))])
    elif kind == "characters" and norm:
        # A slice that may cut tokens apart: "ashing" is not in "washing".
        i = data.draw(st.integers(0, len(norm) - 1))
        answer = norm[i:data.draw(st.integers(i + 1, len(norm)))]
    else:
        answer = other
    if not answer.strip():
        return
    assert contains_answer(context_text, answer) == reference_contains(context_text, answer)


@exhaustively
@given(any_text, st.integers(1, 12))
def test_trunc_matches_the_token_loop(text, target_words):
    assert trunc(text, target_words) == reference_trunc(text, target_words)


@exhaustively
@given(sentences_text, st.integers(1, 40))
def test_s_trunc_matches_the_sentence_loop(text, target_words):
    assert s_trunc(text, target_words) == reference_s_trunc(text, target_words)


# Sentences for similarity: the words above, Greek and Turkish ones, and
# tab, newline and mixed whitespace runs between them.
similarity_words = words | st.sampled_from(["İstanbul", "Σίσυφος", "istanbul", "...", "red"])
similarity_text = st.lists(
    st.tuples(similarity_words, terminators,
              spaces | st.sampled_from(["\t\t", "\n\n", " \t\n "])),
    max_size=25).map(lambda parts: "".join(w + t + s for w, t, s in parts))
questions = st.lists(similarity_words, max_size=8).map(" ".join)


def _scored_sample(question: str, target_words: int, generated: str) -> TracedSample:
    def context(source: str, text: str) -> Context:
        return Context("q1", source, "scripted", None, text, word_count(text), None, source)

    return TracedSample(QaExample("q1", question, ("red",)),
                        retrieved=context("retrieved", "w " * target_words),
                        generated=context("generated", generated),
                        answer_from_retrieved="w", answer_from_generated="red",
                        closed_book=None, subset="AIG", dropped=None)


@pytest.mark.parametrize("aggregation", AGGREGATIONS)
@exhaustively
@given(questions, similarity_text, st.integers(1, 40))
@example("who is dr j smith", "Dr. J. Smith met e.g. Jo at 3.5 p.m. Then\t\tshe left — ... Done.",
         2)  # a first sentence longer than the target
@example("red İstanbul", "Red İstanbul.\n\nΣίσυφος. Red.", 40)  # a text under the target
@example("red", "Alpha beta. Red.", 2)  # the cut drops the best sentence
@example("alpha", "alpha. alpha. ", 1)  # one sentence over the target, trailing space
@example("red", "Alpha red.  Beta\tgamma. Red.", 2)  # the cut lands on a sentence end
@example("red", "Alpha red. beta Dr. Red gamma. Red.", 4)  # the cut follows a "." that breaks nothing
@example("the+x red", "The+x $5 red. An\u0301 ©the. Red x+the+y.", 3)  # the article pass runs
def test_sentence_scores_match_the_memoized_scoring(aggregation, question, text, target_words):
    expected = reference_sentence_jaccard(question, text, aggregation)
    assert sentence_jaccard(question, text, aggregation) == expected
    if not text.strip():
        return
    sample = _scored_sample(question, target_words, text[::-1])
    contexts, scores = build_completeness_variants(sample, text, "jaccard", aggregation)
    assert scores["nature"] == reference_sentence_jaccard(question, text[::-1], aggregation)
    for variant, reference in (("trunc", reference_trunc), ("strunc", reference_s_trunc)):
        want = reference(text, target_words)
        assert contexts[variant].text == want
        assert contexts[variant].word_count == word_count(want)
        assert scores[variant] == reference_sentence_jaccard(question, want, aggregation)


def test_lowercasing_adds_no_whitespace_and_keeps_punctuation():
    # The premise of textnorm.split_words, which lowercases and strips a
    # text's words joined by single spaces and splits the result on those
    # spaces again: over all of Unicode, the lowercase of a character holds
    # no whitespace unless the character is whitespace, and each of its
    # characters is punctuation exactly when the character is.
    def punctuation(ch: str) -> bool:
        return unicodedata.category(ch).startswith("P")

    changed = [(ch, ch.lower()) for ch in map(chr, range(sys.maxunicode + 1)) if ch.lower() != ch]
    assert [ch for ch, lowered in changed
            if any(c.isspace() or punctuation(c) != punctuation(ch) for c in lowered)] == []
    # Nor does any whitespace character carry case context across it, so a
    # final sigma either side of a space lowercases alike in any text.
    assert [ws for ws in ALL_WHITESPACE
            if ("ΑΣ" + ws + "Σ").lower() != "ας" + ws + "σ"] == []


# ---------------------------------------------------------------------------
# The scripted reader's fingerprint, hashed from its contexts' normalized forms.

# Every character that str.split() splits on.
ALL_WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
# Sigma, whose lowercase depends on its neighbours ("Σ" ends a word as "ς"),
# "İ" and combining marks, glued to words or on their own.
CASED_PIECES = ["Σ", "ς", "σ", "ΟΔΟΣ", "ΣΑ", "İ", "\u0307", "\u0301", "e\u0301", "alpha", "Beta",
                "the", "An", ".", "—", "x2", "+"]
cased_text = st.lists(st.sampled_from(CASED_PIECES + ALL_WHITESPACE), max_size=14).map("".join)
# Articles and punctuation only, each followed by some whitespace: texts that
# normalize to nothing.
blank_text = st.lists(st.tuples(st.sampled_from(["the", "A", "an", ".", "?!", "—", "…", "¿"]),
                                st.sampled_from(ALL_WHITESPACE)),
                      max_size=6).map(lambda parts: "".join(w + s for w, s in parts))
fingerprinted_text = cased_text | blank_text | st.text(max_size=40)


def _scripted_read(texts: list[str]) -> str:
    """A scripted read of one context per text, where the script's only row
    is keyed by ``context_fingerprint`` of the texts joined as one block."""
    key = ("q1", "hybrid" if len(texts) == 2 else "single_context",
           context_fingerprint(CONTEXT_JOIN.join(texts)))
    reader = Reader(BackendSpec(kind="scripted", script_path="inline"), PromptSet(),
                    script=ReaderScript({key: "hit"}, "inline"))
    contexts = [Context("q1", "generated", "scripted", None, text, 0, None, "nature")
                for text in texts]
    return reader.answer(QaExample("q1", "?", ("a",)), contexts)


@exhaustively
@given(blank_text)
def test_blank_texts_normalize_to_nothing(text):
    assert normalize_answer(text) == ""


@exhaustively
@given(fingerprinted_text, fingerprinted_text)
@example("ΟΔΟΣ", "Σα")  # a final sigma either side of the join
@example("The. ", "alpha")  # one side normalizes to nothing
@example("\u2029", "\x85")
def test_the_scripted_fingerprint_is_the_joined_blocks(a, b):
    assert _scripted_read([a]) == "hit"
    assert _scripted_read([a, b]) == "hit"
