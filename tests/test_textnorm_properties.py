"""Property tests pinning the fast text primitives to slow reference versions.

The reference functions below are the plain per-character loops that
punctuation stripping, sentence splitting and fingerprinting were first
written as.  They stay frozen here as oracles: the library's versions must
agree with them on every generated input.
"""
from __future__ import annotations

import unicodedata

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxtrace import textnorm
from ctxtrace.analysis import trunc
from ctxtrace.backends import context_fingerprint
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


def reference_fingerprint(text: str) -> str:
    digest = 0xCBF29CE484222325
    for byte in normalize_answer(text).encode("utf-8"):
        digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{digest:016x}"


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


@exhaustively
@given(any_text)
def test_fingerprint_matches_the_byte_loop(text):
    assert context_fingerprint(text) == reference_fingerprint(text)


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
