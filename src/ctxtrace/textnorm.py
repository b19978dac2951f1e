"""Deterministic text primitives shared by every stage of the toolkit.

All string comparison in this package goes through :func:`normalize_answer`,
which follows the usual open-domain QA convention: lowercase, strip
punctuation, drop the articles "a"/"an"/"the" as standalone tokens, collapse
whitespace.  Punctuation means the Unicode "P" categories; tokens are
whitespace-separated in the Unicode sense.  The same rules back exact match,
containment, and word counting, so filters and metrics can never disagree on
what counts as "the same answer".
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

_ARTICLE_RE = re.compile(r"\b(?:a|an|the)\b")
_TERMINATORS = ".!?"

# Words that end in a period without ending a sentence. Lowercased, no
# trailing dot. Single letters are guarded separately (initials).
_ABBREVIATIONS = frozenset(
    {
        "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "st", "sr", "jr",
        "gen", "col", "sgt", "capt", "lt",
        "vs", "etc", "cf", "al", "ca", "approx",
        "e.g", "i.e",
        "fig", "no", "vol", "pp", "ed", "eds",
        "inc", "ltd", "co", "corp", "dept", "univ", "est",
        "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
        "oct", "nov", "dec",
    }
)

_punct_cache: dict[str, bool] = {}


def _is_punct(ch: str) -> bool:
    cached = _punct_cache.get(ch)
    if cached is None:
        cached = unicodedata.category(ch).startswith("P")
        _punct_cache[ch] = cached
    return cached


def _strip_punct(text: str) -> str:
    return "".join(ch for ch in text if not _is_punct(ch))


def normalize_answer(raw: str) -> str:
    """Canonical form of an answer string.

    Lowercase, remove punctuation characters, remove standalone articles,
    collapse all whitespace runs to single spaces. Idempotent.
    """
    lowered = _strip_punct(raw.lower())
    without_articles = _ARTICLE_RE.sub(" ", lowered)
    return " ".join(without_articles.split())


def tokens(raw: str) -> list[str]:
    """Normalized whitespace tokens of *raw*."""
    return normalize_answer(raw).split()


def exact_match(a: str, b: str) -> bool:
    """True when the two strings normalize to the same form."""
    return normalize_answer(a) == normalize_answer(b)


def matches_any(candidate: str, golds: list[str]) -> bool:
    """True when *candidate* exactly matches at least one gold answer.

    An empty gold list matches nothing.
    """
    return any(exact_match(candidate, g) for g in golds)


def contains_answer(context_text: str, answer: str) -> bool:
    """Token-boundary containment of *answer* inside *context_text*.

    Both sides are normalized first; the answer's token sequence must occur
    contiguously in the context's token sequence, so "Washington" inside
    "George Washington Carver" counts but a raw substring like "ashing"
    never does.  Raises ValueError on an empty answer (malformed candidate).
    An answer that normalizes to nothing (articles or punctuation only) is
    reported as not contained.
    """
    if not answer.strip():
        raise ValueError("contains_answer: empty answer")
    needle = tokens(answer)
    if not needle:
        return False
    hay = tokens(context_text)
    span = len(needle)
    if span > len(hay):
        return False
    return any(hay[i : i + span] == needle for i in range(len(hay) - span + 1))


def contains_candidate(context_text: str, answer: str) -> bool:
    """:func:`contains_answer` for stored candidates, where a blank answer
    is simply not contained instead of malformed."""
    return bool(answer.strip()) and contains_answer(context_text, answer)


def word_count(text: str) -> int:
    """Number of whitespace-separated tokens after punctuation removal.

    Tokens made of punctuation only (a lone dash, an ellipsis) do not count.
    """
    return len(_strip_punct(text).split())


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence of a source string, addressable by character offsets."""

    start: int
    end: int
    text: str


def _preceding_word(text: str, term_index: int, sent_start: int) -> str:
    i = term_index
    while i > sent_start and not text[i - 1].isspace():
        i -= 1
    return text[i:term_index]


def _is_break(text: str, sent_start: int, term_index: int, run_end: int) -> bool:
    j = run_end
    while j < len(text) and text[j].isspace():
        j += 1
    if j == len(text):
        # Terminator run at end of input (trailing whitespace allowed).
        return True
    if j == run_end:
        # No whitespace after the terminator: decimal point, "e.g.", "U.S.".
        return False
    if not text[j].isupper():
        return False
    if text[run_end - 1] == "." and run_end - term_index == 1:
        word = _preceding_word(text, term_index, sent_start)
        word = word.lstrip("\"'([{" + "‘“")
        lowered = word.lower()
        if lowered in _ABBREVIATIONS:
            return False
        if len(word) == 1 and word.isalpha():
            return False
    return True


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split *text* into sentence spans.

    A sentence ends at ".", "!" or "?" when followed by whitespace and a
    capital letter, or at end of input; a short abbreviation list ("Dr.",
    "e.g.", single initials) guards against false splits.  Spans are ordered,
    non-overlapping, cover every non-whitespace character, and each span's
    text ends at a terminator or at the end of the input, so the source can
    be reconstructed from the spans plus the whitespace between them.
    """
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
        if ch in _TERMINATORS:
            run_end = i + 1
            while run_end < n and text[run_end] in _TERMINATORS:
                run_end += 1
            if _is_break(text, start, i, run_end):
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
