"""Pipeline stages: prompts, filters, classification, and stage runners."""
from __future__ import annotations

import json
import random

import pytest

from ctxtrace.backends import (
    BackendSpec,
    GenerationScript,
    KeyedRetriever,
    ReaderScript,
    context_fingerprint,
)
from ctxtrace.errors import (
    EmptyResponseError,
    ScriptMissError,
    SchemaError,
    ValidationError,
)
from ctxtrace.pipeline import (
    CLOSED_BOOK_PROMPT,
    CONTEXT_JOIN,
    GENERATION_PROMPT,
    GENERATION_PROMPT_UNCONSTRAINED,
    READING_PROMPT,
    Context,
    Generator,
    HybridRecord,
    PromptSet,
    QaExample,
    Reader,
    TracedSample,
    classify_answer,
    context_from_row,
    context_to_row,
    exclusivity_label,
    generate_length_matched,
    hybrid_answer,
    hybrid_from_row,
    hybrid_to_row,
    is_abstention,
    map_examples,
    parametric_keep,
    read_contexts,
    read_questions,
    read_traced,
    render_passage,
    render_template,
    resolve_order,
    run_evaluate,
    run_prepare,
    run_trace,
    traceability_drop_reason,
    traced_from_row,
    traced_to_row,
)
from ctxtrace.textnorm import word_count

from .conftest import WorldBuilder, write_jsonl

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
    assert is_abstention("unknown", ABST)
    assert is_abstention("I don't know.", ABST)
    assert is_abstention("Not enough information", ABST)
    assert is_abstention("NO ANSWER", ABST)
    assert is_abstention("", ABST)
    assert is_abstention("  the  ", ABST)  # normalizes to nothing
    assert not is_abstention("Paris", ABST)
    assert not is_abstention("unknown", ())  # empty set still catches ""


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


def test_traceability_reasons_in_priority_order():
    gen = _ctx("alpha beta gamma")
    ret = _ctx("Title: T Content: delta epsilon", source="retrieved")
    assert traceability_drop_reason("beta", "delta", gen, ret, ABST) is None
    assert traceability_drop_reason("unknown", "delta", gen, ret, ABST) == "abstained_gen"
    assert traceability_drop_reason("beta", "no answer", gen, ret, ABST) == "abstained_ret"
    assert traceability_drop_reason("zeta", "delta", gen, ret, ABST) == "not_in_gen"
    assert traceability_drop_reason("beta", "zeta", gen, ret, ABST) == "not_in_ret"
    # Both abstain: the generated side is reported first.
    assert traceability_drop_reason("unknown", "unknown", gen, ret, ABST) == "abstained_gen"
    # Abstention outranks containment.
    assert traceability_drop_reason("unknown", "zeta", gen, ret, ABST) == "abstained_gen"


def test_traceability_uses_token_boundaries():
    gen = _ctx("a washing machine")
    ret = _ctx("Title: T Content: fine print", source="retrieved")
    assert traceability_drop_reason("ashing", "print", gen, ret, ABST) == "not_in_gen"
    assert traceability_drop_reason("washing", "print", gen, ret, ABST) is None


def test_exclusivity_label():
    golds = ["Hindenburg Line"]
    assert exclusivity_label("the Hindenburg Line.", "Maginot", golds) == "AIG"
    assert exclusivity_label("Maginot", "hindenburg line", golds) == "AIR"
    assert exclusivity_label("hindenburg line", "The Hindenburg Line", golds) == "none"
    assert exclusivity_label("Maginot", "Siegfried", golds) == "none"
    # Multiple golds: matching any of them counts.
    assert exclusivity_label("Karachi", "Rawalpindi", ["Rawalpindi", "Islamabad"]) == "AIR"


def test_parametric_keep_requires_pairwise_distinct():
    assert parametric_keep("Lille", "Paris", "Lyon")
    assert not parametric_keep("paris.", "Paris", "Lyon")
    assert not parametric_keep("Lille", "Paris", "lille")
    assert not parametric_keep("Lille", "Paris", "PARIS")


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
# row serialization


def test_context_row_roundtrip():
    for context in (_ctx("alpha beta"), _ctx("Title: T Content: x", source="retrieved")):
        assert context_from_row(context_to_row(context), "p", 1) == context


def test_context_row_rejects_bad_fields():
    row = context_to_row(_ctx("alpha"))
    for key, value in (("source", "oracle"), ("variant", "squished"), ("text", ""),
                       ("word_count", True), ("word_count", "1"), ("id", 3)):
        broken = dict(row, **{key: value})
        with pytest.raises(SchemaError):
            context_from_row(broken, "p", 7)
    with pytest.raises(SchemaError) as err:
        context_from_row({k: v for k, v in row.items() if k != "backend"}, "p", 7)
    assert "p:7:" in str(err.value)


def test_traced_row_roundtrip():
    for sample in (_sample(), _sample(closed="x", subset="none", dropped="parametric"),
                   _sample(dropped="abstained_gen", subset="none")):
        assert traced_from_row(traced_to_row(sample), "p", 1) == sample


def test_traced_row_rejects_bad_enums():
    row = traced_to_row(_sample())
    with pytest.raises(SchemaError):
        traced_from_row(dict(row, subset="AIX"), "p", 1)
    with pytest.raises(SchemaError):
        traced_from_row(dict(row, dropped="vibes"), "p", 1)
    with pytest.raises(SchemaError):
        traced_from_row(dict(row, answers=[]), "p", 1)


def test_hybrid_row_roundtrip():
    rec = HybridRecord("q1", "random", 42, "Paris", "gen")
    assert hybrid_from_row(hybrid_to_row(rec), "p", 1) == rec
    assert hybrid_to_row(rec)["hybrid_answer"] == "Paris"
    with pytest.raises(SchemaError):
        hybrid_from_row(dict(hybrid_to_row(rec), order="shuffled"), "p", 1)
    with pytest.raises(SchemaError):
        hybrid_from_row(dict(hybrid_to_row(rec), classification="hunch"), "p", 1)
    with pytest.raises(SchemaError):
        hybrid_from_row(dict(hybrid_to_row(rec), seed="42"), "p", 1)


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


def _build_world(tmp_path):
    world = WorldBuilder(tmp_path)
    for qid, outcome, pick in OUTCOME_PLAN:
        world.add_case(qid, outcome=outcome, hybrid_pick=pick)
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
    by_subset = {r.subset: r for r in reports}
    aig = by_subset["AIG"]  # q01 gen, q09 gen, q10 other (closed untracked), q11 other
    assert aig.n == 4
    assert aig.rho_gen == pytest.approx(0.5)
    assert aig.rho_ret == 0.0
    assert aig.rho_llm is None
    assert aig.others == pytest.approx(0.5)
    assert aig.diff_gr == pytest.approx(1.0)
    assert aig.em_percent == pytest.approx(50.0)
    air = by_subset["AIR"]
    assert (air.n, air.rho_ret, air.diff_gr) == (1, 1.0, -1.0)
    assert air.em_percent == pytest.approx(100.0)
    overall = by_subset["ALL"]
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
    aig_p = {r.subset: r for r in reports_p}["AIG"]  # q01 gen, q10 llm, q11 other
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
    world, reader, generator, retriever = _build_world(tmp_path)
    examples = read_questions(world.questions_path)
    blobs = []
    for tag in ("one", "two"):
        ctx_path = tmp_path / f"ctx_{tag}.jsonl"
        traced_path = tmp_path / f"traced_{tag}.jsonl"
        run_prepare(examples, retriever, generator, (80, 100, 120), ctx_path,
                    "aa", seed=9, workers=3)
        _, by_id = read_contexts(ctx_path)
        run_trace(examples, by_id, reader, ABST, True, traced_path, "aa",
                  seed=9, workers=3)
        blobs.append(ctx_path.read_bytes() + traced_path.read_bytes())
    assert blobs[0] == blobs[1]


def test_map_examples_preserves_order():
    items = list(range(50))
    assert map_examples(lambda x: x * x, items, workers=1) == [x * x for x in items]
    assert map_examples(lambda x: x * x, items, workers=8) == [x * x for x in items]
