"""Text canonicalization, matching, and sentence splitting."""
from __future__ import annotations

import random

import pytest

from ctxtrace.textnorm import (
    contains_answer,
    exact_match,
    matches_any,
    normalize_answer,
    split_sentences,
    tokens,
    word_count,
)

# ---------------------------------------------------------------------------
# normalize_answer


def test_normalize_drops_case_punctuation_and_articles():
    assert normalize_answer("The Hindenburg Line.") == "hindenburg line"
    assert normalize_answer("A Mid-Summer Night's Dream!") == "midsummer nights dream"
    assert normalize_answer("an apple a day") == "apple day"
    assert normalize_answer("U.S.A.") == "usa"


def test_normalize_keeps_article_letters_inside_words():
    # "the" is removed only as a standalone token; "theory" and "than" stay.
    assert normalize_answer("the theory") == "theory"
    assert normalize_answer("than a mothership") == "than mothership"


def test_normalize_collapses_whitespace():
    assert normalize_answer("  two\t\nwords  ") == "two words"
    assert normalize_answer("") == ""
    assert normalize_answer("the a an") == ""


def test_normalize_idempotent_on_random_strings():
    rng = random.Random(20260816)
    pool = "abcDEF .,!?'-—\t\n\"()aeA"
    for _ in range(300):
        raw = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 60)))
        once = normalize_answer(raw)
        assert normalize_answer(once) == once


def test_normalize_additive_across_a_space():
    rng = random.Random(7)
    pool = ["The", "cat's", "paw-print", "a", "Dr.", "ZONE", "an", "end."]
    for _ in range(200):
        a = " ".join(rng.choice(pool) for _ in range(rng.randrange(0, 5)))
        b = " ".join(rng.choice(pool) for _ in range(rng.randrange(0, 5)))
        joined = normalize_answer(a + " " + b)
        parts = [p for p in (normalize_answer(a), normalize_answer(b)) if p]
        assert joined == " ".join(parts)


def test_tokens_and_normalized_text():
    assert tokens("The Quick, Brown Fox!") == ["quick", "brown", "fox"]


# ---------------------------------------------------------------------------
# matching


def test_exact_match_is_normalization_equality():
    assert exact_match("The Hindenburg Line.", "hindenburg line")
    assert exact_match("U.S.A.", "usa")
    assert not exact_match("Jay Sean", "Elton John")
    assert exact_match("", "the")


def test_matches_any():
    golds = ["Hindenburg Line", "Siegfried Line"]
    assert matches_any("the Hindenburg line", golds)
    assert matches_any("siegfried line.", golds)
    assert not matches_any("Maginot Line", golds)
    assert not matches_any("anything", [])


def test_contains_answer_token_boundaries():
    text = "Most of the fighting took place near Rawalpindi in the north."
    assert contains_answer(text, "Rawalpindi")
    assert contains_answer(text, "near rawalpindi")
    assert not contains_answer(text, "pindi")
    assert not contains_answer("a washing machine", "ashing")
    assert contains_answer("George Washington Carver studied peanuts", "Washington")


def test_contains_answer_needs_contiguous_tokens():
    assert contains_answer("born in New York City", "new york")
    assert not contains_answer("new delhi and old york", "new york")


def test_contains_answer_empty_and_degenerate():
    with pytest.raises(ValueError):
        contains_answer("some text", "   ")
    # Normalizes to nothing: present in spirit, contained nowhere.
    assert not contains_answer("the cat", "the")
    assert not contains_answer("", "cat")


def test_contains_answer_random_windows_always_hit():
    rng = random.Random(99)
    vocab = ["Alpha", "beta-7", "GAMMA.", "delta", "the", "Epsilon,", "zeta"]
    for _ in range(200):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(3, 20)))
        toks = tokens(text)
        if not toks:
            continue
        i = rng.randrange(len(toks))
        j = rng.randrange(i + 1, min(len(toks), i + 4) + 1)
        assert contains_answer(text, " ".join(toks[i:j]))


# ---------------------------------------------------------------------------
# word_count


def test_word_count_counts_rendered_tokens():
    body = " ".join(f"w{i}" for i in range(100))
    rendered = f"Title: Alpha Beta Content: {body}"
    # "Title:" + 2 title words + "Content:" + 100 body words.
    assert word_count(rendered) == 104


def test_word_count_ignores_punctuation_only_tokens():
    assert word_count("") == 0
    assert word_count("--- ... !!!") == 0
    assert word_count("don't stop, me; now") == 4
    assert word_count("one  two\tthree\n") == 3


def test_word_count_additive_across_a_space():
    rng = random.Random(3)
    pool = ["word", "x-y", "...", "Dr.", "it's", "42"]
    for _ in range(200):
        a = " ".join(rng.choice(pool) for _ in range(rng.randrange(0, 6)))
        b = " ".join(rng.choice(pool) for _ in range(rng.randrange(0, 6)))
        assert word_count(a + " " + b) == word_count(a) + word_count(b)


# ---------------------------------------------------------------------------
# split_sentences


def _texts(spans):
    return [s.text for s in spans]


def test_split_plain_sentences():
    spans = split_sentences("It rained. The match was called off. Fans left.")
    assert _texts(spans) == ["It rained.", "The match was called off.", "Fans left."]


def test_split_guards_abbreviations():
    spans = split_sentences("Dr. Smith arrived. He sat down.")
    assert _texts(spans) == ["Dr. Smith arrived.", "He sat down."]
    spans = split_sentences("Kramer vs. Kramer is a film.")
    assert _texts(spans) == ["Kramer vs. Kramer is a film."]
    spans = split_sentences("e.g. Apples are red.")
    assert _texts(spans) == ["e.g. Apples are red."]


def test_split_guards_single_letter_initials():
    spans = split_sentences("J. K. Rowling wrote it. Done.")
    assert _texts(spans) == ["J. K. Rowling wrote it.", "Done."]


def test_split_ignores_decimals_and_glued_periods():
    spans = split_sentences("It cost 3.5 million. Then it rose.")
    assert _texts(spans) == ["It cost 3.5 million.", "Then it rose."]


def test_split_requires_capital_after_terminator():
    spans = split_sentences("First one. second part")
    assert _texts(spans) == ["First one. second part"]


def test_split_multi_terminator_runs():
    spans = split_sentences("Really?! Yes.")
    assert _texts(spans) == ["Really?!", "Yes."]
    spans = split_sentences("What now? Nothing!")
    assert _texts(spans) == ["What now?", "Nothing!"]


def test_split_trims_unterminated_tail():
    spans = split_sentences("Done. And then   ")
    assert _texts(spans) == ["Done.", "And then"]
    assert split_sentences("   \n\t ") == []


def test_split_spans_address_the_source():
    rng = random.Random(41)
    words = ["alpha", "Beta", "gamma,", "Dr.", "delta", "Omega"]
    enders = [". ", "! ", "? ", "?! ", ". \n"]
    for _ in range(200):
        pieces = []
        for _ in range(rng.randrange(1, 5)):
            pieces.append(" ".join(rng.choice(words) for _ in range(rng.randrange(1, 6))))
            pieces.append(rng.choice(enders))
        text = "".join(pieces)
        spans = split_sentences(text)
        covered = set()
        last_end = -1
        for span in spans:
            assert span.text == text[span.start:span.end]
            assert span.start > last_end or last_end == -1
            assert span.start >= last_end
            last_end = span.end
            covered.update(range(span.start, span.end))
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered
