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

Sentence work goes through one word-level pass, :func:`split_words`: the
text is split on whitespace once, each word is normalized once, aligned
with the words, and one rule over the word list says where each sentence
ends.  Sentence similarity and the truncated variants of a text are cut
from that pass; :func:`split_sentences` is a view of the same rule with
character offsets.
"""
from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

_ARTICLES = frozenset({"a", "an", "the"})
_ARTICLE_RE = re.compile(r"\b(?:a|an|the)\b")
# What a normalized word may be that adds no token to a sentence's set.
_NO_TOKEN = _ARTICLES | {""}

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


def _abbreviated(word: str) -> bool:
    """True when *word* ends in a lone "." after an abbreviation or a single
    letter (an initial), opening quotes and brackets aside."""
    stem = word[:-1]
    if word[-1] != "." or stem.endswith((".", "!", "?")):
        return False
    stem = stem.lstrip("\"'([{" + "‘“")
    return stem.lower() in _ABBREVIATIONS or (len(stem) == 1 and stem.isalpha())


def _sentence_ends(words: list[str]) -> list[int]:
    """Where the sentences of *words* end, as exclusive word indices.

    The one sentence-break rule: a sentence ends after a word whose trailing
    run of ".", "!" or "?" is followed by a word that starts uppercase, unless
    that run is a lone "." after an abbreviation or an initial; and it ends
    after the last word.  A run glued to the next character ("3.5", the inner
    dot of "e.g.") is inside a word and never breaks.  A break depends only on
    a word and the one after it, so cutting the word list after some word, or
    respacing it, moves no earlier break.
    """
    ends = [i for i, (word, after) in enumerate(zip(words, words[1:]), 1)
            if word[-1] in ".!?" and after[0].isupper() and not _abbreviated(word)]
    if words:
        ends.append(len(words))
    return ends


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split *text* into sentence spans: a view, with character offsets, of
    :func:`_sentence_ends`'s rule over its whitespace-separated words.

    A sentence ends at ".", "!" or "?" when followed by whitespace and a
    capital letter, or at the last word; a short abbreviation list ("Dr.",
    "e.g.") and single initials guard against false breaks.  Spans are
    ordered, non-overlapping, cover every non-whitespace character, and each
    span's text runs from its first word's first character to its last
    word's last, so the source can be reconstructed from the spans plus the
    whitespace between them.
    """
    words = text.split()
    starts, pos = [], 0
    for word in words:
        pos = text.find(word, pos)
        starts.append(pos)
        pos += len(word)
    spans, first = [], 0
    for stop in _sentence_ends(words):
        start, end = starts[first], starts[stop - 1] + len(words[stop - 1])
        spans.append(SentenceSpan(start, end, text[start:end]))
        first = stop
    return spans


@dataclass(frozen=True)
class Words:
    """One word-level pass over *text*; build it with :func:`split_words`.

    ``words`` is ``text.split()``.  ``normalized`` is aligned with it:
    each word lowercased and stripped of punctuation (``""`` when nothing is
    left, and such a word is not counted by :func:`word_count`), and a word
    that is not then alphanumeric put through :func:`tokens`, its tokens
    joined by spaces (``spaced`` says whether any word has more than one).
    ``ends`` holds where each sentence ends, as exclusive word indices.
    """

    text: str
    words: list[str]
    normalized: list[str]
    ends: list[int]
    spaced: bool

    def sentences(self, stop: int) -> Iterator[tuple[int, int]]:
        """(start, end) word ranges of the sentences of the first *stop*
        words: those that end before *stop*, then the rest up to it, since
        cutting the text after a word moves no earlier break."""
        ends = [*self.ends[:bisect_left(self.ends, stop)], stop] if stop else []
        return zip([0, *ends], ends)

    def token_set(self, start: int, stop: int) -> set[str]:
        """``set(tokens(...))`` of the words from *start* up to *stop*."""
        found = set(self.normalized[start:stop])
        if self.spaced:
            found = set(" ".join(found).split())
        found -= _NO_TOKEN
        return found

    def prefix(self, stop: int) -> str:
        """The text up to the end of its first *stop* words, spacing kept."""
        # The text from word *stop* on, if there is one, is split off last.
        rest = self.text.split(None, stop)[stop:]
        return self.text[:len(self.text) - len(rest[0]) if rest else None].rstrip()


def split_words(text: str) -> Words:
    """The :class:`Words` of *text*: one split, one punctuation pass and one
    sentence-break pass.

    The words are joined by single spaces, lowercased and stripped in one
    pass and split on those spaces again, which keeps one entry per word:
    no word holds whitespace, :meth:`str.lower` adds none, and it never adds
    or removes punctuation, so a word strips to ``""`` exactly when
    :func:`word_count` skips it.
    """
    words = text.split()
    normalized = strip_punct(" ".join(words).lower()).split(" ") if words else []
    spaced = False
    if not "".join(normalized).isalnum():
        normalized = [word if word.isalnum() else " ".join(tokens(word)) for word in normalized]
        spaced = any(" " in word for word in normalized)
    return Words(text, words, normalized, _sentence_ends(words), spaced)
