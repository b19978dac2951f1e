"""Deterministic text primitives shared by every stage of the toolkit.

All string comparison in this package goes through :func:`normalize_answer`,
which follows the usual open-domain QA convention: lowercase, strip
punctuation, drop the articles "a"/"an"/"the" as standalone tokens, collapse
whitespace.  Punctuation means the Unicode "P" categories; tokens are
whitespace-separated in the Unicode sense.  The same rules back exact match,
containment, and word counting, so filters and metrics can never disagree on
what counts as "the same answer".

Nothing here is memoized.  The records that carry texts (``pipeline``'s
questions, contexts, traced samples and hybrid records) carry each text's
normalized form too, computed the first time it is read, so a stage that
compares one text many times normalizes it once.
"""
from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

_ARTICLES = frozenset({"a", "an", "the"})
_ARTICLE_RE = re.compile(r"\b(?:a|an|the)\b")
# A terminator run followed by whitespace or the end of the input, capturing
# the next non-space character, if any.  A run glued to the next character
# ("3.5", the inner dot of "e.g.") never breaks.
_CANDIDATE_BREAK_RE = re.compile(r"[.!?]+(?=\s+(\S)|\s*\Z)")
_NON_SPACE_RE = re.compile(r"\S")

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


class _PunctTable(dict):
    """A :meth:`str.translate` table that deletes Unicode punctuation.

    Each code point is classified the first time it is looked up, so no
    table of all of Unicode is ever built.
    """

    def __missing__(self, code: int) -> int | None:
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        self[code] = kept
        return kept


_PUNCT_TABLE = _PunctTable()


def strip_punct(text: str) -> str:
    """*text* with every Unicode punctuation character deleted."""
    return text.translate(_PUNCT_TABLE)


def tokens(raw: str, stopwords: frozenset[str] = _ARTICLES) -> list[str]:
    """The normalized whitespace tokens of *raw*, less any in *stopwords*,
    which must hold the articles.

    The article pass runs only on the tokens it can change.  No whitespace
    is a word character, so ``\\b`` inside a token does not depend on its
    neighbours and the pass can run token by token.  Once punctuation
    (``_`` among it) is stripped, ``re``'s ``\\w`` is exactly
    :meth:`str.isalnum`, so in an alphanumeric token ``\\b`` falls only at
    its two ends and the pass can only drop the whole token, when it is an
    article.  A token holding a symbol or a combining mark (such as "the+x",
    or the lowercase of "İ") goes through the regex.
    """
    words = strip_punct(raw.lower()).split()
    if not "".join(words).isalnum():
        words = [piece for word in words
                 for piece in ((word,) if word.isalnum() else _ARTICLE_RE.sub(" ", word).split())]
    return [word for word in words if word not in stopwords]


def normalize_answer(raw: str) -> str:
    """Canonical form of an answer string.

    Lowercase, remove punctuation characters, remove standalone articles,
    collapse all whitespace runs to single spaces. Idempotent.
    """
    return " ".join(tokens(raw))


def exact_match(a: str, b: str) -> bool:
    """True when the two strings normalize to the same form."""
    return normalize_answer(a) == normalize_answer(b)


def contains_answer(context_text: str, answer: str) -> bool:
    """Token-boundary containment of *answer* inside *context_text*.

    Both sides are normalized first; the answer's token sequence must occur
    contiguously in the context's token sequence, so "Washington" inside
    "George Washington Carver" counts but a raw substring like "ashing"
    never does.  An answer that normalizes to nothing (blank, or articles or
    punctuation only) is reported as not contained.
    """
    return contains_normalized(normalize_answer(context_text), normalize_answer(answer))


def contains_normalized(context_norm: str, answer_norm: str) -> bool:
    """:func:`contains_answer` on two texts already normalized, for a caller
    that checks one context against several answers."""
    # Normalized tokens hold no whitespace and are joined by single spaces,
    # so a space-bounded substring match is a whole-token sequence match.
    return bool(answer_norm) and f" {answer_norm} " in f" {context_norm} "


def word_count(text: str) -> int:
    """Number of whitespace-separated tokens after punctuation removal.

    Tokens made of punctuation only (a lone dash, an ellipsis) do not count.
    """
    return len(strip_punct(text).split())


@dataclass(frozen=True)
class SentenceSpan:
    """One sentence of a source string, addressable by character offsets."""

    start: int
    end: int
    text: str


def _is_break(text: str, sent_start: int, run: re.Match[str]) -> bool:
    after = run.group(1)
    if after is None:
        # Terminator run at end of input (trailing whitespace allowed).
        return True
    if not after.isupper():
        return False
    if run.group() == ".":
        # The word glued to a lone period ("" when there is none) may be an
        # abbreviation or an initial.
        word = text[sent_start:run.end()].rsplit(None, 1)[-1][:-1].lstrip("\"'([{" + "‘“")
        if word.lower() in _ABBREVIATIONS or (len(word) == 1 and word.isalpha()):
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
    first = _NON_SPACE_RE.search(text)
    # The current sentence's first character; a terminator is not whitespace,
    # so no candidate comes before it.
    start = None if first is None else first.start()
    for run in _CANDIDATE_BREAK_RE.finditer(text):
        if _is_break(text, start, run):
            end = run.end()
            spans.append(SentenceSpan(start, end, text[start:end]))
            start = None if run.group(1) is None else run.start(1)
    if start is not None:
        end = len(text.rstrip())
        spans.append(SentenceSpan(start, end, text[start:end]))
    return spans
