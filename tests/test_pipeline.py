"""Pipeline stages: prompts, filters, classification, and stage runners."""
from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
from collections import Counter

import pytest

from ctxtrace import pipeline, textnorm
from ctxtrace.analysis import COMPLETENESS_VARIANTS, run_completeness, run_order
from ctxtrace.backends import (
    BackendSpec,
    GenerationScript,
    HttpBackend,
    KeyedRetriever,
    ReaderScript,
    context_fingerprint,
)
from ctxtrace.errors import (
    BackendUnavailableError,
    EmptyResponseError,
    ScriptMissError,
    SchemaError,
    ValidationError,
)
from ctxtrace.pipeline import (
    CLOSED_BOOK_PROMPT,
    CONTEXT,
    CONTEXT_JOIN,
    DEFAULT_ABSTENTIONS,
    GENERATION_PROMPT,
    GENERATION_PROMPT_UNCONSTRAINED,
    HYBRID,
    READING_PROMPT,
    TRACED,
    Context,
    Generator,
    HybridRecord,
    PromptSet,
    QaExample,
    Reader,
    TracedSample,
    classify_answer,
    generate_length_matched,
    hybrid_answer,
    map_examples,
    read_contexts,
    read_questions,
    read_traced,
    render_passage,
    render_template,
    resolve_order,
    run_evaluate,
    run_prepare,
    run_trace,
    trace_decision,
)
from ctxtrace.textnorm import word_count

from .conftest import WorldBuilder, write_jsonl
from .test_backends import FakeResponse, FakeSession, _ok

ABST = ("unknown", "i dont know", "not enough information", "no answer")


def _ctx(text, source="generated", variant="nature", **kwargs):
    fields = dict(id="q1", source=source, backend="scripted",
                  title=None if source == "generated" else "T",
                  text=text, word_count=word_count(text),
                  gen_target_words=100 if source == "generated" else None,
                  variant=variant if source == "generated" else "retrieved")
    fields.update(kwargs)
    return Context(**fields)


def _sample(gen_text="alpha beta gamma", ret_text="Title: T Content: delta epsilon",
            gen_ans="beta", ret_ans="delta", closed=None, subset="AIG", dropped=None,
            qid="q1", golds=("beta",)):
    return TracedSample(
        example=QaExample(qid, "which token?", tuple(golds)),
        retrieved=_ctx(ret_text, source="retrieved", id=qid),
        generated=_ctx(gen_text, id=qid),
        answer_from_retrieved=ret_ans,
        answer_from_generated=gen_ans,
        closed_book=closed,
        subset=subset,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# prompts


def test_prompt_texts_are_pinned():
    assert GENERATION_PROMPT == (
        "Generate a background context from Wikipedia to answer the given "
        "question {#question}. Keep the length of the document around {#n} words."
    )
    assert GENERATION_PROMPT_UNCONSTRAINED == (
        "Generate a background context from Wikipedia to answer the given "
        "question {#question}."
    )
    assert READING_PROMPT == (
        "Refer to the context below and answer the following question with "
        "just one entity. context: {#contexts} Question: {#question} The answer is"
    )
    assert CLOSED_BOOK_PROMPT == (
        "Answer the following question with just one entity. "
        "Question: {#question} The answer is"
    )


def test_render_template_single_pass():
    out = render_template("Q: {#question} N: {#n}", question="{#n} trick", n=5)
    assert out == "Q: {#n} trick N: 5"
    with pytest.raises(ValidationError):
        render_template("{#contexts}", question="only this")


def test_render_passage():
    assert render_passage("World War I", "It began in 1914.") == (
        "Title: World War I Content: It began in 1914.")


# ---------------------------------------------------------------------------
# abstentions and length matching


def test_is_abstention():
    # Each reply abstains on either side, checked before containment.
    for reply in ("unknown", "I don't know.", "Not enough information", "NO ANSWER", "",
                  "  the  "):  # the last normalizes to nothing
        assert trace_decision(_sample(gen_ans=reply), ABST) == ("none", "abstained_gen")
        assert trace_decision(_sample(ret_ans=reply), ABST) == ("none", "abstained_ret")
    assert trace_decision(_sample(gen_ans="Paris"), ABST) == ("none", "not_in_gen")
    # The empty set still catches "".
    assert trace_decision(_sample(gen_ans="unknown"), ()) == ("none", "not_in_gen")


def _generator(entries):
    spec = BackendSpec(kind="scripted", script_path="inline")
    return Generator(spec, PromptSet(), script=GenerationScript(entries, "inline"))


def test_generate_length_matched_picks_closest():
    q = QaExample("q1", "q?", ("a",))
    gen = _generator({
        ("q1", 80): "w " * 90,
        ("q1", 100): "w " * 104,
        ("q1", 120): "w " * 121,
    })
    context = generate_length_matched(gen, q, 103, (80, 100, 120))
    assert context.word_count == 104
    assert context.gen_target_words == 100
    assert context.source == "generated"
    assert context.variant == "nature"
    assert context.title is None


def test_generate_length_matched_tie_takes_smaller_request():
    q = QaExample("q1", "q?", ("a",))
    gen = _generator({("q1", 80): "x " * 98, ("q1", 100): "x " * 102,
                      ("q1", 120): "x " * 130})
    # 98 and 102 are both two words away from 100; the 80-word request wins.
    context = generate_length_matched(gen, q, 100, (80, 100, 120))
    assert context.gen_target_words == 80
    assert context.word_count == 98


def test_generate_length_matched_skips_empty_and_fails_on_all_empty():
    q = QaExample("q1", "q?", ("a",))
    gen = _generator({("q1", 80): "   ", ("q1", 100): "real text here",
                      ("q1", 120): ""})
    context = generate_length_matched(gen, q, 3, (80, 100, 120))
    assert context.gen_target_words == 100
    gen = _generator({("q1", 80): "", ("q1", 100): " "})
    with pytest.raises(EmptyResponseError):
        generate_length_matched(gen, q, 3, (80, 100))
    with pytest.raises(ValidationError):
        generate_length_matched(gen, q, 3, ())


# ---------------------------------------------------------------------------
# filters


def _drop_reason(gen_ans, ret_ans, **kwargs):
    return trace_decision(_sample(gen_ans=gen_ans, ret_ans=ret_ans, **kwargs), ABST)[1]


def test_traceability_reasons_in_priority_order():
    assert _drop_reason("beta", "delta") is None
    assert _drop_reason("unknown", "delta") == "abstained_gen"
    assert _drop_reason("beta", "no answer") == "abstained_ret"
    assert _drop_reason("zeta", "delta") == "not_in_gen"
    assert _drop_reason("beta", "zeta") == "not_in_ret"
    # Both abstain: the generated side is reported first.
    assert _drop_reason("unknown", "unknown") == "abstained_gen"
    # Abstention outranks containment.
    assert _drop_reason("unknown", "zeta") == "abstained_gen"


def test_traceability_uses_token_boundaries():
    texts = dict(gen_text="a washing machine", ret_text="Title: T Content: fine print")
    assert _drop_reason("ashing", "print", **texts) == "not_in_gen"
    assert _drop_reason("washing", "print", **texts) is None


def _label(gen_ans, ret_ans, golds, closed=None):
    """trace_decision over contexts that hold both candidates."""
    return trace_decision(_sample(gen_text=gen_ans, ret_text=f"Title: T Content: {ret_ans}",
                                  gen_ans=gen_ans, ret_ans=ret_ans, closed=closed,
                                  golds=golds), ABST)


def test_exclusivity_label():
    golds = ["Hindenburg Line"]
    assert _label("the Hindenburg Line.", "Maginot", golds) == ("AIG", None)
    assert _label("Maginot", "hindenburg line", golds) == ("AIR", None)
    assert _label("hindenburg line", "The Hindenburg Line", golds) == ("none", None)
    assert _label("Maginot", "Siegfried", golds) == ("none", None)
    # Multiple golds: matching any of them counts.
    assert _label("Karachi", "Rawalpindi", ["Rawalpindi", "Islamabad"]) == ("AIR", None)


def test_parametric_keep_requires_pairwise_distinct():
    golds = ["Paris"]
    assert _label("Paris", "Lyon", golds, closed="Lille") == ("AIG", None)
    assert _label("Paris", "Lyon", golds, closed="paris.") == ("AIG", "parametric")
    assert _label("Paris", "lille", golds, closed="Lille") == ("AIG", "parametric")
    # Equal candidates both match a gold or neither does, so they leave no
    # subset for the parametric check to drop.
    assert _label("Paris", "PARIS", golds, closed="Lille") == ("none", None)


def test_trace_decision_runs_the_filters_in_trace_order():
    assert trace_decision(_sample(), ABST) == ("AIG", None)
    assert trace_decision(_sample(golds=("zeta",)), ABST) == ("none", None)
    assert trace_decision(_sample(golds=("beta", "delta")), ABST) == ("none", None)
    # A traceability drop leaves no subset, whatever the candidates match.
    assert trace_decision(_sample(gen_ans="unknown"), ABST) == ("none", "abstained_gen")
    assert trace_decision(_sample(ret_ans="zeta"), ABST) == ("none", "not_in_ret")
    # The parametric check needs a stored closed-book answer and a subset.
    assert trace_decision(_sample(closed="Beta."), ABST) == ("AIG", "parametric")
    assert trace_decision(_sample(closed="gamma"), ABST) == ("AIG", None)
    assert trace_decision(_sample(closed="beta", golds=("zeta",)), ABST) == ("none", None)
    # An empty reply abstains under any set, the empty one included.
    assert trace_decision(_sample(ret_ans=""), ()) == ("none", "abstained_ret")


def test_trace_decision_normalizes_each_text_once(monkeypatch):
    seen = _count_calls(monkeypatch, textnorm, "normalize_answer")
    sample = _sample(gen_ans="Beta", ret_ans="Delta.", closed="gamma", golds=("beta.", "omega"))
    assert trace_decision(sample, DEFAULT_ABSTENTIONS) == ("AIG", None)
    texts = Counter(text for text, in seen)
    assert texts[sample.generated.text] == texts[sample.retrieved.text] == 1
    assert texts["Beta"] == texts["Delta."] == texts["gamma"] == 1
    assert all(texts[text] <= 1 for text in (*sample.example.answers, *DEFAULT_ABSTENTIONS))


# ---------------------------------------------------------------------------
# order resolution and classification


def test_resolve_order_fixed_modes():
    assert resolve_order("generated_first", 0, "q") == "generated_first"
    assert resolve_order("retrieved_first", 7, "q") == "retrieved_first"
    with pytest.raises(ValidationError):
        resolve_order("alphabetical", 0, "q")


def test_resolve_order_random_is_seeded_per_example():
    # Contract: one coin from random.Random(f"{seed}:{example_id}").
    for seed in (0, 1, 99):
        for qid in ("q1", "q2", "zz-123"):
            coin = random.Random(f"{seed}:{qid}").random()
            want = "generated_first" if coin < 0.5 else "retrieved_first"
            assert resolve_order("random", seed, qid) == want
            assert resolve_order("random", seed, qid) == want  # stable


def test_resolve_order_random_hits_both_sides():
    got = {resolve_order("random", 0, f"q{i}") for i in range(64)}
    assert got == {"generated_first", "retrieved_first"}


def test_classify_answer_priority():
    sample = _sample(gen_ans="Paris", ret_ans="Lyon", closed="Nice")
    assert classify_answer("paris.", sample) == "gen"
    assert classify_answer("Lyon", sample) == "ret"
    assert classify_answer("NICE", sample) == "llm"
    assert classify_answer("Toulouse", sample) == "other"
    # gen wins over llm even when both match.
    tied = _sample(gen_ans="Paris", ret_ans="Lyon", closed="Paris")
    assert classify_answer("Paris", tied) == "gen"
    # Without a closed-book answer nothing can classify as llm.
    untracked = _sample(gen_ans="Paris", ret_ans="Lyon", closed=None)
    assert classify_answer("Nice", untracked) == "other"


def test_hybrid_answer_respects_resolved_order(tmp_path):
    sample = _sample()
    gen_first = CONTEXT_JOIN.join([sample.generated.text, sample.retrieved.text])
    ret_first = CONTEXT_JOIN.join([sample.retrieved.text, sample.generated.text])
    script = write_jsonl(tmp_path / "r.jsonl", [
        {"question_id": "q1", "mode": "hybrid",
         "context_fingerprint": context_fingerprint(gen_first), "answer": "beta"},
        {"question_id": "q1", "mode": "hybrid",
         "context_fingerprint": context_fingerprint(ret_first), "answer": "delta"},
    ])
    reader = Reader(BackendSpec(kind="scripted", script_path=script), PromptSet())
    rec = hybrid_answer(reader, sample, "generated_first", 0)
    assert (rec.answer, rec.classification) == ("beta", "gen")
    assert rec.order == "generated_first"
    rec = hybrid_answer(reader, sample, "retrieved_first", 0)
    assert (rec.answer, rec.classification) == ("delta", "ret")
    # Requested mode is recorded, not the resolved one.
    rec = hybrid_answer(reader, sample, "random", 3)
    assert rec.order == "random"
    assert rec.seed == 3
    want = resolve_order("random", 3, "q1")
    assert rec.answer == ("beta" if want == "generated_first" else "delta")


def test_scripted_reader_misses_loudly(tmp_path):
    script = write_jsonl(tmp_path / "r.jsonl", [
        {"question_id": "q1", "mode": "closed_book",
         "context_fingerprint": None, "answer": "x"}])
    reader = Reader(BackendSpec(kind="scripted", script_path=script), PromptSet())
    sample = _sample()
    with pytest.raises(ScriptMissError):
        hybrid_answer(reader, sample, "generated_first", 0)


# ---------------------------------------------------------------------------
# HTTP readers and generators: the exact prompt of each call

QUESTION_Q1 = QaExample("q1", "Who signed it?", ("a",))
READ_PROMPT = ("Refer to the context below and answer the following question with just one "
               "entity. context: {} Question: Who signed it? The answer is")


def _http(cls, replies, prompts=PromptSet(), **spec_fields):
    spec = BackendSpec(kind="http", endpoint="http://api.test/v1/chat", model_name="m",
                       **spec_fields)
    session = FakeSession([reply if isinstance(reply, FakeResponse) else _ok(reply)
                           for reply in replies])
    transport = HttpBackend(spec, session=session, sleep=lambda seconds: None)
    return cls(spec, prompts, transport=transport), session


def _posted(session):
    return [call["json"]["messages"][0]["content"] for call in session.calls]


def _read(reader, example, *texts):
    """``reader.answer`` shown one :class:`Context` per text, in order."""
    return reader.answer(example, [_ctx(text) for text in texts])


def test_http_reader_posts_one_prompt_per_read():
    reader, session = _http(Reader, ["r0", "r1", "r2", "r3"])
    assert reader.answer(QUESTION_Q1) == "r0"
    assert _read(reader, QUESTION_Q1, "Alpha signed.") == "r1"
    assert _read(reader, QUESTION_Q1, "Alpha signed.", "Beta signed.") == "r2"
    assert _read(reader, QUESTION_Q1, "Beta signed.", "Alpha signed.") == "r3"
    assert _posted(session) == [
        "Answer the following question with just one entity. "
        "Question: Who signed it? The answer is",
        READ_PROMPT.format("Alpha signed."),
        READ_PROMPT.format("Alpha signed.\nBeta signed."),
        READ_PROMPT.format("Beta signed.\nAlpha signed."),
    ]


def test_http_generator_posts_the_length_or_free_prompt():
    generator, session = _http(Generator, ["g0", "g1"])
    assert generator.generate(QUESTION_Q1, 80) == "g0"
    assert generator.generate(QUESTION_Q1, None) == "g1"
    assert _posted(session) == [
        "Generate a background context from Wikipedia to answer the given question "
        "Who signed it?. Keep the length of the document around 80 words.",
        "Generate a background context from Wikipedia to answer the given question "
        "Who signed it?.",
    ]


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for this test; the returned list gets each call's arguments."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_http_reads_compute_no_fingerprint(monkeypatch):
    reader, _ = _http(Reader, ["r0", "r1", "r2"])
    hashed = _count_calls(monkeypatch, pipeline, "normalized_fingerprint")
    normalized = _count_calls(monkeypatch, textnorm, "normalize_answer")
    reader.answer(QUESTION_Q1)
    _read(reader, QUESTION_Q1, "Never hashed once.")
    _read(reader, QUESTION_Q1, "Never hashed once.", "Nor this one.")
    assert hashed == normalized == []


def test_a_read_shows_at_most_two_contexts():
    reader, session = _http(Reader, [])
    with pytest.raises(ValidationError, match="at most 2 contexts, not 3"):
        _read(reader, QUESTION_Q1, "a", "b", "c")
    assert session.calls == []
    scripted = Reader(BackendSpec(kind="scripted", script_path="inline"), PromptSet(),
                      script=ReaderScript({}, "inline"))
    with pytest.raises(ValidationError, match="at most 2 contexts, not 3"):
        _read(scripted, QUESTION_Q1, "a", "b", "c")


def test_http_placeholder_without_a_value_raises():
    prompts = PromptSet(closed_book="{#contexts} {#question}",
                        generation_unconstrained="{#question} in {#n} words")
    reader, reader_session = _http(Reader, [], prompts)
    with pytest.raises(ValidationError, match=r"\{#contexts\} has no value"):
        reader.answer(QUESTION_Q1)
    generator, generator_session = _http(Generator, [], prompts)
    with pytest.raises(ValidationError, match=r"\{#n\} has no value"):
        generator.generate(QUESTION_Q1, None)
    assert reader_session.calls == generator_session.calls == []


def test_a_temperature_0_request_is_posted_once():
    reader, session = _http(Reader, ["r0", "r1"])
    assert _read(reader, QUESTION_Q1, "Alpha signed.") == "r0"
    assert _read(reader, QUESTION_Q1, "Alpha signed.") == "r0"
    assert _posted(session) == [READ_PROMPT.format("Alpha signed.")]
    sampled, session = _http(Reader, ["r0", "r1"], temperature=0.7)
    assert _read(sampled, QUESTION_Q1, "Alpha signed.") == "r0"
    assert _read(sampled, QUESTION_Q1, "Alpha signed.") == "r1"
    assert len(session.calls) == 2


def test_a_failed_request_is_posted_again():
    reader, session = _http(Reader, [FakeResponse(503)] * 2 + ["r0"], max_retries=1)
    with pytest.raises(BackendUnavailableError):
        reader.answer(QUESTION_Q1)
    assert reader.answer(QUESTION_Q1) == "r0"
    assert reader.answer(QUESTION_Q1) == "r0"
    assert len(session.calls) == 3


def test_a_reader_and_a_generator_never_share_replies():
    # Both render the bare question, over one client.
    prompts = PromptSet(closed_book="{#question}", generation_unconstrained="{#question}")
    spec = BackendSpec(kind="http", endpoint="http://api.test/v1/chat", model_name="m")
    session = FakeSession([_ok("read"), _ok("generated")])
    transport = HttpBackend(spec, session=session)
    reader = Reader(spec, prompts, transport=transport)
    generator = Generator(spec, prompts, transport=transport)
    assert reader.answer(QUESTION_Q1) == "read"
    assert generator.generate(QUESTION_Q1, None) == "generated"
    assert _posted(session) == ["Who signed it?", "Who signed it?"]


def test_workers_that_miss_one_prompt_together_return_one_reply():
    # The first two posts wait for each other, so both workers miss the
    # memo; each post gets its own reply, and both workers return the first
    # one stored.  Later reads of the prompt post nothing.
    barrier = threading.Barrier(2, timeout=5)
    posts = []

    class RacingSession:
        def post(self, url, json=None, headers=None, timeout=None):
            posts.append(json["messages"][0]["content"])
            reply = f"reply {len(posts)}"
            barrier.wait()
            return _ok(reply)

    spec = BackendSpec(kind="http", endpoint="http://api.test/v1/chat", model_name="m")
    reader = Reader(spec, PromptSet(), transport=HttpBackend(spec, session=RacingSession()))
    replies = map_examples(reader.answer, [QUESTION_Q1] * 6, workers=2)
    assert len(posts) == 2
    assert len(set(replies)) == 1 and replies[0] in ("reply 1", "reply 2")


def test_concurrent_reads_of_each_prompt_agree():
    # More workers than cores with a short switch interval: every read of a
    # question must return the one reply stored for its prompt.
    posts = []

    class CountingSession:
        def post(self, url, json=None, headers=None, timeout=None):
            posts.append(None)
            reply = f"{json['messages'][0]['content']} #{len(posts)}"
            time.sleep(0.001)  # so the first reads of each prompt overlap
            return _ok(reply)

    spec = BackendSpec(kind="http", endpoint="http://api.test/v1/chat", model_name="m")
    reader = Reader(spec, PromptSet(closed_book="{#question}"),
                    transport=HttpBackend(spec, session=CountingSession()))
    questions = [QaExample(f"q{i % 4}", f"question {i % 4}", ("a",)) for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        replies = map_examples(reader.answer, questions, workers=8)
    finally:
        sys.setswitchinterval(interval)
    by_question = {}
    for question, reply in zip(questions, replies):
        by_question.setdefault(question.question, set()).add(reply)
    assert {q: len(r) for q, r in by_question.items()} == {f"question {i}": 1 for i in range(4)}
    assert all(reply.startswith(q + " #") for q, (reply,) in by_question.items())
    assert len(posts) <= 4 * 8


def test_a_hybrid_read_without_a_fingerprinted_row_hashes_nothing(monkeypatch):
    script = ReaderScript({("q1", "hybrid", None): "fallback"}, "inline")
    reader = Reader(BackendSpec(kind="scripted", script_path="inline"), PromptSet(),
                    script=script)
    hashed = _count_calls(monkeypatch, pipeline, "normalized_fingerprint")
    normalized = _count_calls(monkeypatch, textnorm, "normalize_answer")
    assert _read(reader, QUESTION_Q1, "Never hashed.", "Nor this.") == "fallback"
    assert hashed == normalized == []
    # A question with no hybrid row is looked up once, and the miss still
    # names the block's fingerprint.
    looked_up = _count_calls(monkeypatch, script, "answer")
    other = QaExample("q2", "Who?", ("a",))
    fingerprint = context_fingerprint(CONTEXT_JOIN.join(["Never hashed.", "Nor this."]))
    with pytest.raises(ScriptMissError, match=fingerprint):
        _read(reader, other, "Never hashed.", "Nor this.")
    assert looked_up == [("q2", "hybrid", fingerprint)]


def _fnv1a_64(text):
    """The reader-script fingerprint format before BLAKE2b: FNV-1a-64 of the
    UTF-8 normalized text."""
    digest = 0xCBF29CE484222325
    for byte in textnorm.normalize_answer(text).encode("utf-8"):
        digest = ((digest ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{digest:016x}"


def test_a_script_row_keyed_by_an_fnv_fingerprint_misses(tmp_path):
    text = "The Hindenburg Line ran from Arras to Laffaux."
    path = tmp_path / "reader.jsonl"
    write_jsonl(path, [{"question_id": "q1", "mode": "single_context",
                        "context_fingerprint": _fnv1a_64(text), "answer": "Arras"}])
    reader = Reader(BackendSpec(kind="scripted", script_path=str(path)), PromptSet())
    computed = hashlib.blake2b(textnorm.normalize_answer(text).encode("utf-8"),
                               digest_size=8).hexdigest()
    assert computed != _fnv1a_64(text)
    with pytest.raises(ScriptMissError, match=f"'single_context', '{computed}'"):
        _read(reader, QUESTION_Q1, text)


# ---------------------------------------------------------------------------
# row serialization


def test_context_row_roundtrip():
    for context in (_ctx("alpha beta"), _ctx("Title: T Content: x", source="retrieved")):
        assert CONTEXT.load(CONTEXT.dump(context), "p", 1) == context


def test_context_row_rejects_bad_fields():
    row = CONTEXT.dump(_ctx("alpha"))
    for key, value in (("source", "oracle"), ("variant", "squished"), ("text", ""),
                       ("word_count", True), ("word_count", "1"), ("id", 3)):
        broken = dict(row, **{key: value})
        with pytest.raises(SchemaError):
            CONTEXT.load(broken, "p", 7)
    with pytest.raises(SchemaError) as err:
        CONTEXT.load({k: v for k, v in row.items() if k != "backend"}, "p", 7)
    assert "p:7:" in str(err.value)


def test_traced_row_roundtrip():
    for sample in (_sample(), _sample(closed="x", subset="none", dropped="parametric"),
                   _sample(dropped="abstained_gen", subset="none")):
        assert TRACED.load(TRACED.dump(sample), "p", 1) == sample


def test_traced_row_rejects_bad_enums():
    row = TRACED.dump(_sample())
    with pytest.raises(SchemaError):
        TRACED.load(dict(row, subset="AIX"), "p", 1)
    with pytest.raises(SchemaError):
        TRACED.load(dict(row, dropped="vibes"), "p", 1)
    with pytest.raises(SchemaError):
        TRACED.load(dict(row, answers=[]), "p", 1)


def test_hybrid_row_roundtrip():
    rec = HybridRecord("q1", "random", 42, "Paris", "gen")
    assert HYBRID.load(HYBRID.dump(rec), "p", 1) == rec
    assert HYBRID.dump(rec)["hybrid_answer"] == "Paris"
    with pytest.raises(SchemaError):
        HYBRID.load(dict(HYBRID.dump(rec), order="shuffled"), "p", 1)
    with pytest.raises(SchemaError):
        HYBRID.load(dict(HYBRID.dump(rec), classification="hunch"), "p", 1)
    with pytest.raises(SchemaError):
        HYBRID.load(dict(HYBRID.dump(rec), seed="42"), "p", 1)


def test_read_questions_validation(tmp_path):
    good = write_jsonl(tmp_path / "q.jsonl", [
        {"id": "q1", "question": "huh?", "answers": ["yes", "aye"]}])
    examples = read_questions(good)
    assert examples == [QaExample("q1", "huh?", ("yes", "aye"))]
    dup = write_jsonl(tmp_path / "dup.jsonl", [
        {"id": "q1", "question": "a?", "answers": ["x"]},
        {"id": "q1", "question": "b?", "answers": ["y"]}])
    with pytest.raises(SchemaError) as err:
        read_questions(dup)
    assert ":2:" in str(err.value)
    with pytest.raises(SchemaError):
        read_questions(write_jsonl(tmp_path / "e.jsonl",
                                   [{"id": "q", "question": "a?", "answers": []}]))
    numbers = write_jsonl(tmp_path / "n.jsonl", [{"id": "q", "question": "a?", "answers": [1]}])
    with pytest.raises(SchemaError) as err:
        read_questions(numbers)
    assert str(err.value) == f"{numbers}:1: field 'answers' must hold strings"
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValidationError):
        read_questions(empty)


# ---------------------------------------------------------------------------
# stage runners over a scripted world


OUTCOME_PLAN = [
    ("q01", "AIG", "gen"),
    ("q02", "AIR", "ret"),
    ("q03", "both", "other"),
    ("q04", "neither", "other"),
    ("q05", "abstained_gen", "other"),
    ("q06", "abstained_ret", "other"),
    ("q07", "not_in_gen", "other"),
    ("q08", "not_in_ret", "other"),
    ("q09", "parametric", "gen"),
    ("q10", "AIG", "llm"),
    ("q11", "AIG", "other"),
]


def _build_world(tmp_path, sweepable=False):
    """The OUTCOME_PLAN world; with *sweepable*, each case also has an
    unconstrained generation, naming its gold and its wrong generated answer,
    for the completeness sweep."""
    world = WorldBuilder(tmp_path)
    for qid, outcome, pick in OUTCOME_PLAN:
        unconstrained = (
            f"Every chronicle agrees that g{qid} or w{qid} settled the matter of {qid}. "
            f"The point was revisited often. Scholars kept arguing about the framing "
            f"for many further decades without reaching anything new.") if sweepable else None
        world.add_case(qid, outcome=outcome, hybrid_pick=pick, unconstrained=unconstrained)
    world.write()
    reader = Reader(BackendSpec(kind="scripted", script_path=world.reader_path),
                    PromptSet())
    generator = Generator(BackendSpec(kind="scripted", script_path=world.gen_path),
                          PromptSet())
    retriever = KeyedRetriever.load(world.gold_path, "golden")
    return world, reader, generator, retriever


def test_run_prepare_builds_both_contexts(tmp_path):
    world, _, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    out = tmp_path / "contexts.jsonl"
    contexts, stats = run_prepare(examples, retriever, generator, (80, 100, 120),
                                  out, "feedfacefeedface", seed=5)
    assert len(contexts) == 2 * len(examples)
    by_id = {}
    for context in contexts:
        by_id.setdefault(context.id, {})[context.source] = context
    for qid, expect in world.expected.items():
        assert by_id[qid]["retrieved"].text == expect["rendered"]
        assert by_id[qid]["generated"].text == expect["gen_text"]
        assert by_id[qid]["generated"].gen_target_words == 80  # tie on equal texts
        assert by_id[qid]["retrieved"].word_count == word_count(expect["rendered"])
    header = json.loads(out.read_text().splitlines()[0])
    assert header == {"_manifest": "feedfacefeedface", "seed": 5}
    assert stats.mean_retrieved > 0
    # Same scripted text for every request keeps the two sources close here.
    reread_header, reread = read_contexts(out)
    assert reread_header["seed"] == 5
    assert set(reread) == set(world.expected)


def test_run_trace_filters_and_labels(tmp_path):
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    contexts, _ = run_prepare(examples, retriever, generator, (80, 100, 120),
                              tmp_path / "contexts.jsonl", "aa", seed=0)
    _, by_id = read_contexts(tmp_path / "contexts.jsonl")

    samples = run_trace(examples, by_id, reader, ABST, False,
                        tmp_path / "traced.jsonl", "aa", seed=0)
    got = {s.example.id: s for s in samples}
    assert [s.example.id for s in samples] == sorted(got)
    for qid, expect in world.expected.items():
        sample = got[qid]
        assert sample.dropped == expect["dropped"], qid
        if expect["dropped"] is None:
            assert sample.subset == expect["subset"], qid
        assert sample.closed_book is None  # no parametric filtering requested
    assert got["q09"].live  # parametric-shaped sample survives without the filter

    with_filter = run_trace(examples, by_id, reader, ABST, True,
                            tmp_path / "traced_p.jsonl", "aa", seed=0)
    got_p = {s.example.id: s for s in with_filter}
    assert got_p["q09"].dropped == "parametric"
    assert got_p["q09"].subset == "AIG"  # label survives the drop
    assert not got_p["q09"].live
    # Closed-book answers are read only for conflicting samples.
    assert got_p["q01"].closed_book == world.expected["q01"]["closed"]
    assert got_p["q03"].closed_book is None
    assert got_p["q05"].closed_book is None
    header, reread = read_traced(tmp_path / "traced_p.jsonl")
    assert reread == with_filter


def test_read_traced_rejects_a_repeated_id(tmp_path):
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    run_prepare(examples, retriever, generator, (80, 100, 120),
                tmp_path / "contexts.jsonl", "aa", seed=0)
    _, by_id = read_contexts(tmp_path / "contexts.jsonl")
    path = tmp_path / "traced.jsonl"
    run_trace(examples, by_id, reader, ABST, False, path, "aa", seed=0)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + lines[2:]) + "\n")
    with pytest.raises(SchemaError) as err:
        read_traced(path)
    assert (err.value.line_no, err.value.message) == (4, "duplicate traced id 'q02'")


def test_run_trace_normalizes_its_abstention_set(tmp_path):
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    run_prepare(examples, retriever, generator, (80, 100, 120),
                tmp_path / "contexts.jsonl", "aa", seed=0)
    _, by_id = read_contexts(tmp_path / "contexts.jsonl")
    plain = run_trace(examples, by_id, reader, ABST, True, tmp_path / "a.jsonl", "aa", seed=0)
    shouted = run_trace(examples, by_id, reader, [f"The {p.upper()}!" for p in ABST], True,
                        tmp_path / "b.jsonl", "aa", seed=0)
    assert shouted == plain
    assert {s.example.id: s.dropped for s in shouted}["q05"] == "abstained_gen"


def test_trace_and_evaluate_normalize_each_text_once(tmp_path, monkeypatch):
    # The reads' fingerprints and the decisions share each context's
    # normalized form, and evaluate's classifications and exact-match count
    # share each sample's.
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    run_prepare(examples, retriever, generator, (80, 100, 120),
                tmp_path / "contexts.jsonl", "aa", seed=0)
    _, by_id = read_contexts(tmp_path / "contexts.jsonl")
    seen = _count_calls(monkeypatch, textnorm, "normalize_answer")

    def calls(text):  # by identity: equal strings of two records count apart
        return sum(seen_text is text for seen_text, in seen)

    run_trace(examples, by_id, reader, ABST, True, tmp_path / "traced.jsonl", "aa", seed=0)
    contexts = [context for slot in by_id.values() for context in slot.values()]
    assert [calls(context.text) for context in contexts] == [1] * len(contexts)
    seen.clear()
    _, samples = read_traced(tmp_path / "traced.jsonl")
    run_evaluate(samples, reader, "generated_first", 0,
                 tmp_path / "eval.jsonl", tmp_path / "report.csv", "aa")
    for sample in samples:
        assert [calls(gold) for gold in sample.example.answers] == [sample.live]
        assert all(calls(text) <= 1 for text in (
            sample.answer_from_generated, sample.answer_from_retrieved, sample.closed_book,
            sample.generated.text, sample.retrieved.text)), sample.example.id


def test_run_trace_requires_complete_context_pairs(tmp_path):
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    with pytest.raises(ValidationError):
        run_trace(examples, {}, reader, ABST, False, tmp_path / "t.jsonl", "aa", 0)


def test_run_evaluate_classifies_and_reports(tmp_path):
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    run_prepare(examples, retriever, generator, (80, 100, 120),
                tmp_path / "contexts.jsonl", "aa", seed=0)
    _, by_id = read_contexts(tmp_path / "contexts.jsonl")

    # Without the parametric filter: q09 is live, no llm tracking.
    samples = run_trace(examples, by_id, reader, ABST, False,
                        tmp_path / "traced.jsonl", "aa", seed=0)
    reports = run_evaluate(samples, reader, "generated_first", 0,
                           tmp_path / "eval.jsonl", tmp_path / "report.csv", "aa")
    aig = reports["AIG"]  # q01 gen, q09 gen, q10 other (closed untracked), q11 other
    assert aig.n == 4
    assert aig.rho_gen == pytest.approx(0.5)
    assert aig.rho_ret == 0.0
    assert aig.rho_llm is None
    assert aig.others == pytest.approx(0.5)
    assert aig.diff_gr == pytest.approx(1.0)
    assert aig.em_percent == pytest.approx(50.0)
    air = reports["AIR"]
    assert (air.n, air.rho_ret, air.diff_gr) == (1, 1.0, -1.0)
    assert air.em_percent == pytest.approx(100.0)
    overall = reports["ALL"]
    assert overall.n == 5
    assert overall.rho_gen == pytest.approx(0.4)
    assert overall.rho_ret == pytest.approx(0.2)
    assert overall.diff_gr == pytest.approx((0.4 - 0.2) / 0.6)
    assert overall.em_percent == pytest.approx(60.0)

    # With the parametric filter: q09 drops, closed-book answers are tracked.
    samples_p = run_trace(examples, by_id, reader, ABST, True,
                          tmp_path / "traced_p.jsonl", "aa", seed=0)
    reports_p = run_evaluate(samples_p, reader, "generated_first", 0,
                             tmp_path / "eval_p.jsonl", tmp_path / "report_p.csv", "aa")
    aig_p = reports_p["AIG"]  # q01 gen, q10 llm, q11 other
    assert aig_p.n == 3
    assert aig_p.rho_gen == pytest.approx(1 / 3)
    assert aig_p.rho_llm == pytest.approx(1 / 3)
    assert aig_p.others == pytest.approx(1 / 3)
    assert aig_p.em_percent == pytest.approx(100 / 3)


def test_run_evaluate_needs_live_samples(tmp_path):
    dead = [_sample(subset="none")]
    reader = object()
    with pytest.raises(ValidationError):
        run_evaluate(dead, reader, "random", 0, tmp_path / "e.jsonl",
                     tmp_path / "r.csv", "aa")


def test_stage_outputs_are_deterministic(tmp_path):
    world, reader, generator, retriever = _build_world(tmp_path, sweepable=True)
    examples = read_questions(world.questions_path)
    names = ("ctx.jsonl", "traced.jsonl", "eval.jsonl", "report.csv", "order.csv",
             "completeness.csv")
    blobs = []
    for tag, workers in (("one", 3), ("two", 3), ("serial", 1)):
        ctx_path, traced_path, eval_path, report_path, order_path, completeness_path = (
            tmp_path / f"{tag}_{name}" for name in names)
        run_prepare(examples, retriever, generator, (80, 100, 120), ctx_path,
                    "aa", seed=9, workers=workers)
        _, by_id = read_contexts(ctx_path)
        samples = run_trace(examples, by_id, reader, ABST, True, traced_path, "aa",
                            seed=9, workers=workers)
        run_evaluate(samples, reader, "random", 9, eval_path, report_path, "aa", workers)
        run_order(samples, reader, "ALL", 9, order_path, "aa", workers)
        scores = {(s.example.id, variant): 0.8 for s in samples
                  for variant in COMPLETENESS_VARIANTS}
        run_completeness(samples, reader, generator, "ALL", "random", 9, "external", "max",
                         scores, 0.05, ABST, completeness_path, "aa", workers)
        blobs.append([(tmp_path / f"{tag}_{name}").read_bytes() for name in names])
    assert blobs[0] == blobs[1] == blobs[2]


def test_map_examples_preserves_order():
    items = list(range(50))
    assert map_examples(lambda x: x * x, items, workers=1) == [x * x for x in items]
    assert map_examples(lambda x: x * x, items, workers=8) == [x * x for x in items]
