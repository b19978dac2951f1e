"""Similarity analyses, slicing, truncation variants, and their runners."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from ctxtrace.analysis import (
    AGGREGATIONS,
    COMPLETENESS_COLUMNS,
    COMPLETENESS_VARIANTS,
    DEFAULT_MATCH_THRESHOLD,
    ORDER_COLUMNS,
    SIM_COLUMNS,
    SIM_METRICS,
    SLICE_COLUMNS,
    SimilarityRecord,
    build_completeness_variants,
    build_similarity_records,
    context_similarity,
    delta_sim,
    ingest_similarity,
    jaccard,
    quantile_slices,
    read_sim_csv,
    run_completeness,
    run_order,
    run_sim,
    run_slices,
    s_trunc,
    select_subset,
    sentence_jaccard,
    similarity_matched,
    slice_report,
    trunc,
)
from ctxtrace.backends import BackendSpec, KeyedRetriever, context_fingerprint
from ctxtrace.errors import (
    MissingScoreError,
    SchemaError,
    UndefinedMetricError,
    ValidationError,
)
from ctxtrace.jsonl import read_csv
from ctxtrace.pipeline import (
    CONTEXT_JOIN,
    Context,
    Generator,
    HybridRecord,
    PromptSet,
    QaExample,
    Reader,
    TracedSample,
    read_contexts,
    read_questions,
    run_prepare,
    run_trace,
)
from ctxtrace.textnorm import split_sentences, word_count

from .conftest import WorldBuilder, write_jsonl

ABST = ("unknown", "no answer")


def _ctx(text, source="generated", qid="q1", variant="nature"):
    return Context(id=qid, source=source, backend="scripted",
                   title="T" if source == "retrieved" else None,
                   text=text, word_count=word_count(text),
                   gen_target_words=None if source == "retrieved" else 100,
                   variant="retrieved" if source == "retrieved" else variant)


def _sample(qid="q1", gen_text="alpha beta gamma", ret_text="Title: T Content: delta epsilon",
            gen_ans="beta", ret_ans="delta", subset="AIG", dropped=None, golds=None):
    return TracedSample(
        example=QaExample(qid, f"which token settles {qid}?",
                          tuple(golds) if golds else (gen_ans,)),
        retrieved=_ctx(ret_text, source="retrieved", qid=qid),
        generated=_ctx(gen_text, qid=qid),
        answer_from_retrieved=ret_ans,
        answer_from_generated=gen_ans,
        closed_book=None,
        subset=subset,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# similarity primitives


def test_delta_sim_operating_points():
    assert delta_sim(0.37, 0.18) == pytest.approx(0.3455, abs=1e-4)
    assert delta_sim(0.90, 0.86) == pytest.approx(0.0227, abs=1e-4)
    assert delta_sim(0.5, 0.5) == 0.0
    assert delta_sim(0.3, 0.0) == 1.0
    with pytest.raises(UndefinedMetricError):
        delta_sim(0.0, 0.0)


def test_jaccard():
    assert jaccard(set(), set()) == 1.0
    assert jaccard({"a"}, set()) == 0.0
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    rng = random.Random(7)
    alphabet = list("abcdefgh")
    for _ in range(200):
        a = {rng.choice(alphabet) for _ in range(rng.randint(0, 6))}
        b = {rng.choice(alphabet) for _ in range(rng.randint(0, 6))}
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)
        if a == b:
            assert value == 1.0


def test_sentence_jaccard_aggregations():
    question = "where is the red tower"
    text = "The red tower is in Bologna. Cats sleep."
    # Sentence scores are 3/6 and 0 after dropping articles.
    assert sentence_jaccard(question, text, "max") == pytest.approx(0.5)
    assert sentence_jaccard(question, text, "mean") == pytest.approx(0.25)
    assert sentence_jaccard(question, "") == 0.0
    assert sentence_jaccard(question, "   ") == 0.0
    with pytest.raises(ValidationError):
        sentence_jaccard(question, text, "median")
    assert set(AGGREGATIONS) == {"max", "mean"}
    assert set(SIM_METRICS) == {"jaccard", "external"}


def test_context_similarity_external_lookup():
    scores = {("q1", "generated"): 0.81, ("q1", "retrieved"): 0.4}
    got = context_similarity("q?", "ignored text", "external",
                             external_scores=scores, score_key=("q1", "generated"))
    assert got == 0.81
    with pytest.raises(MissingScoreError):
        context_similarity("q?", "x", "external", external_scores=scores,
                           score_key=("q2", "generated"))
    with pytest.raises(MissingScoreError):
        context_similarity("q?", "x", "external")
    with pytest.raises(ValidationError):
        context_similarity("q?", "x", "cosine")


def test_ingest_similarity(tmp_path):
    path = write_jsonl(tmp_path / "s.jsonl", [
        {"example_id": "q1", "key": "generated", "score": 0.83},
        {"example_id": "q1", "key": "retrieved", "score": -1},
        {"example_id": "q2", "key": "nature", "score": 1},
    ])
    scores = ingest_similarity(path)
    assert scores == {("q1", "generated"): 0.83, ("q1", "retrieved"): -1.0,
                      ("q2", "nature"): 1.0}
    for bad_rows, fragment in (
            ([{"example_id": "q", "key": "vibes", "score": 0.1}], "unknown score key"),
            ([{"example_id": "q", "key": "trunc", "score": 1.5}], "out of range"),
            ([{"example_id": "q", "key": "trunc"}], "missing field"),
            ([{"example_id": "q", "key": "trunc", "score": 0.1}] * 2, "duplicate"),
            ([{"example_id": "q", "key": "trunc", "score": float("inf")}], "finite"),
    ):
        bad = write_jsonl(tmp_path / "bad.jsonl", bad_rows)
        with pytest.raises(SchemaError) as err:
            ingest_similarity(bad)
        assert fragment in str(err.value)


def test_build_similarity_records():
    sample = replace(_sample(gen_text="The red tower is in Bologna.",
                             ret_text="Cats sleep here."),
                     example=QaExample("q1", "where is the red tower", ("x",)))
    record = build_similarity_records([sample])[0]
    assert record.sim_gen == pytest.approx(0.5)
    assert record.sim_ret == 0.0
    assert record.delta_sim == 1.0
    assert (record.metric, record.aggregation) == ("jaccard", "max")
    # Zero on both sides degrades to delta 0 instead of failing.
    empty_q = replace(_sample(), example=QaExample("q1", "zzz", ("x",)))
    assert build_similarity_records([empty_q])[0].delta_sim == 0.0


# ---------------------------------------------------------------------------
# slicing


def _sim(qid, delta):
    return SimilarityRecord(qid, 0.5, 0.5, "jaccard", "max", delta)


def test_quantile_slices_sizes_and_order():
    records = [_sim(f"q{i:02d}", delta) for i, delta in enumerate(
        [0.9, -0.2, 0.4, 0.1, 0.0, -0.5, 0.7, 0.3, 0.2, -0.1, 0.6])]
    slices = quantile_slices(records, 5)
    assert [len(s.example_ids) for s in slices] == [3, 2, 2, 2, 2]
    assert [s.index for s in slices] == [0, 1, 2, 3, 4]
    flat = [qid for s in slices for qid in s.example_ids]
    deltas = {r.example_id: r.delta_sim for r in records}
    assert flat == sorted(deltas, key=lambda q: (deltas[q], q))
    for piece in slices:
        want = sum(deltas[q] for q in piece.example_ids) / len(piece.example_ids)
        assert piece.mean_delta_sim == pytest.approx(want)
        assert piece.diff_gr is None
    # Ties fall back to example_id order.
    tied = quantile_slices([_sim("b", 0.1), _sim("a", 0.1)], 2)
    assert [s.example_ids for s in tied] == [("a",), ("b",)]


def test_quantile_slices_validation():
    records = [_sim("q1", 0.1)]
    with pytest.raises(ValidationError):
        quantile_slices([], 3)
    with pytest.raises(ValidationError):
        quantile_slices(records, 0)
    with pytest.raises(ValidationError):
        quantile_slices(records, 2)
    only = quantile_slices(records, 1)
    assert only[0].example_ids == ("q1",)


def test_slice_report_fills_diff_gr():
    records = [_sim("q1", -0.5), _sim("q2", 0.0), _sim("q3", 0.2), _sim("q4", 0.9)]
    evals = {
        "q1": HybridRecord("q1", "random", 0, "x", "ret"),
        "q2": HybridRecord("q2", "random", 0, "x", "gen"),
        "q3": HybridRecord("q3", "random", 0, "x", "gen"),
        "q4": HybridRecord("q4", "random", 0, "x", "other"),
    }
    filled = slice_report(quantile_slices(records, 2), list(evals.values()))
    assert filled[0].example_ids == ("q1", "q2")
    assert filled[0].diff_gr == 0.0  # one gen, one ret
    assert filled[1].diff_gr == 1.0  # one gen, one other
    with pytest.raises(ValidationError):
        slice_report(quantile_slices(records, 2), [evals["q1"]])


# ---------------------------------------------------------------------------
# truncation variants


def test_trunc_hand_cases():
    assert trunc("one two three four", 2) == "one two"
    assert trunc("Hi, there. More words follow", 2) == "Hi, there."
    assert trunc("wow !! amazing stuff", 2) == "wow !! amazing"
    assert trunc("short text", 10) == "short text"
    assert trunc("odd   spacing kept", 5) == "odd   spacing kept"
    with pytest.raises(ValidationError):
        trunc("x", 0)
    with pytest.raises(ValidationError):
        trunc("x", -3)


def test_s_trunc_hand_cases():
    text = "A one. B two three. C four."
    assert s_trunc(text, 5) == "A one. B two three."
    assert s_trunc(text, 4) == "A one."
    assert s_trunc(text, 7) == text
    # A first sentence over the target comes back whole, never split.
    assert s_trunc(text, 1) == "A one."
    assert s_trunc("", 3) == ""
    assert s_trunc("   ", 3) == "   "
    spaced = "A one.  B two."
    assert s_trunc(spaced, 2) == "A one."
    assert s_trunc(spaced, 2) == spaced[:6]
    with pytest.raises(ValidationError):
        s_trunc("x", 0)


def _random_text(rng):
    vocab = ["ash", "birch", "cedar", "dogwood", "elm", "fir", "gum", "hazel"]
    sentences = []
    for _ in range(rng.randint(1, 6)):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rng.choice([".", "!", "?"]))
    return " ".join(sentences)


def test_truncation_contracts_hold_on_random_texts():
    rng = random.Random(20260816)
    for _ in range(300):
        text = _random_text(rng)
        target = rng.randint(1, 40)
        total = word_count(text)

        cut = trunc(text, target)
        assert word_count(cut) == min(total, target)
        if total <= target:
            assert cut == text
        assert trunc(cut, target) == cut  # idempotent

        snipped = s_trunc(text, target)
        assert text.startswith(snipped)
        assert s_trunc(snipped, target) == snipped
        # Either within budget, or exactly the oversized first sentence.
        if word_count(snipped) > target:
            spans = split_sentences(text)
            assert snipped == text[:spans[0].end]


def test_similarity_matched_threshold_is_strict():
    close = {"nature": 0.8730, "trunc": 0.8730, "strunc": 0.8736}
    assert similarity_matched(close)
    assert DEFAULT_MATCH_THRESHOLD == 0.05
    # Exactly representable gap equal to the threshold fails the strict test.
    boundary = {"nature": 0.25, "trunc": 0.25, "strunc": 0.3125}
    assert not similarity_matched(boundary, threshold=0.0625)
    assert similarity_matched({"nature": 0.25, "trunc": 0.25, "strunc": 0.3},
                              threshold=0.0625)
    assert not similarity_matched({"nature": 0.1, "trunc": 0.9, "strunc": 0.1})


def test_build_completeness_variants():
    sample = _sample()  # retrieved word count is 5
    assert sample.retrieved.word_count == 5
    unconstrained = "Alpha beta gamma delta. Epsilon zeta eta theta iota kappa."
    built = build_completeness_variants(sample, unconstrained)
    assert built.nature == sample.generated
    assert built.trunc.text == "Alpha beta gamma delta. Epsilon"
    assert built.strunc.text == "Alpha beta gamma delta."
    for variant in ("trunc", "strunc"):
        context = built.context(variant)
        assert context.variant == variant
        assert context.gen_target_words is None
        assert context.word_count == word_count(context.text)
        assert context.id == sample.example.id
    assert set(built.sim_scores) == set(COMPLETENESS_VARIANTS)
    with pytest.raises(ValidationError):
        build_completeness_variants(sample, "   ")


def test_select_subset():
    samples = [_sample("q1", subset="AIG"), _sample("q2", subset="AIR"),
               _sample("q3", subset="AIG", dropped="parametric"),
               _sample("q4", subset="none")]
    assert [s.example.id for s in select_subset(samples, "ALL")] == ["q1", "q2"]
    assert [s.example.id for s in select_subset(samples, "AIG")] == ["q1"]
    assert [s.example.id for s in select_subset(samples, "AIR")] == ["q2"]
    with pytest.raises(ValidationError):
        select_subset(samples, "BOTH")


# ---------------------------------------------------------------------------
# runners


def test_run_sim_writes_and_rereads(tmp_path):
    samples = [
        _sample("q1", gen_text="The red tower is in Bologna.", ret_text="Cats sleep."),
        _sample("q2", gen_text="Nothing relevant here.", ret_text="A tower of red."),
    ]
    samples = [replace(s, example=QaExample(s.example.id, "where is the red tower",
                                            ("x",))) for s in samples]
    out = tmp_path / "sim.csv"
    records = run_sim(samples, "AIG", "jaccard", "max", None, out, "cafe", 3)
    assert [r.example_id for r in records] == ["q1", "q2"]
    manifest, seed, reread = read_sim_csv(out)
    assert (manifest, seed) == ("cafe", 3)
    for before, after in zip(records, reread):
        assert after.example_id == before.example_id
        assert after.sim_gen == pytest.approx(before.sim_gen, abs=5e-7)
        assert after.delta_sim == pytest.approx(before.delta_sim, abs=5e-7)
        assert (after.metric, after.aggregation) == ("jaccard", "max")
    with pytest.raises(ValidationError):
        run_sim([_sample(subset="none")], "AIG", "jaccard", "max", None, out, "x", 0)


def test_run_slices_writes_csv(tmp_path):
    sims = [_sim(f"q{i}", i / 10) for i in range(6)]
    evals = [HybridRecord(f"q{i}", "random", 0, "x", "gen" if i % 2 else "ret")
             for i in range(6)]
    out = tmp_path / "slices.csv"
    filled = run_slices(sims, evals, 3, out, "beef", 1)
    manifest, seed, columns, rows = read_csv(out)
    assert columns == SLICE_COLUMNS
    assert len(rows) == 3
    assert [int(r[1]) for r in rows] == [2, 2, 2]
    assert [s.index for s in filled] == [0, 1, 2]


def test_run_order_sweeps_all_three_orders(tmp_path):
    samples = [_sample(f"q{i}", gen_text=f"token g{i} appears in text {i}",
                       ret_text=f"Title: T Content: token r{i} sits here {i}",
                       gen_ans=f"g{i}", ret_ans=f"r{i}") for i in range(6)]
    rows = []
    for sample in samples:
        gen_first = CONTEXT_JOIN.join([sample.generated.text, sample.retrieved.text])
        ret_first = CONTEXT_JOIN.join([sample.retrieved.text, sample.generated.text])
        rows.append({"question_id": sample.example.id, "mode": "hybrid",
                     "context_fingerprint": context_fingerprint(gen_first),
                     "answer": sample.answer_from_generated})
        rows.append({"question_id": sample.example.id, "mode": "hybrid",
                     "context_fingerprint": context_fingerprint(ret_first),
                     "answer": sample.answer_from_retrieved})
    script = write_jsonl(tmp_path / "r.jsonl", rows)
    reader = Reader(BackendSpec(kind="scripted", script_path=script), PromptSet())
    out = tmp_path / "order.csv"
    reports = run_order(samples, reader, "AIG", seed=5, out_path=out,
                        manifest_hash="aa", workers=2)

    assert reports["generated_first"].rho_gen == 1.0
    assert reports["generated_first"].diff_gr == 1.0
    assert reports["generated_first"].em_percent == 100.0  # gen answers are gold
    assert reports["retrieved_first"].rho_ret == 1.0
    assert reports["retrieved_first"].diff_gr == -1.0
    assert reports["retrieved_first"].em_percent == 0.0

    # The random sweep must agree with a per-example recount of the coin.
    gen_picks = sum(
        random.Random(f"5:{s.example.id}").random() < 0.5 for s in samples)
    report = reports["random"]
    assert report.rho_gen == pytest.approx(gen_picks / 6)
    assert report.rho_ret == pytest.approx((6 - gen_picks) / 6)
    assert 0 < gen_picks < 6  # world large enough to see both orders

    manifest, seed, columns, table = read_csv(out)
    assert columns == ORDER_COLUMNS
    assert [row[0] for row in table] == ["generated_first", "retrieved_first", "random"]
    with pytest.raises(ValidationError):
        run_order([], reader, "AIG", 0, tmp_path / "o.csv", "aa")


def _completeness_world(tmp_path):
    world = WorldBuilder(tmp_path)
    picks = {"q1": "gen", "q2": "gen", "q3": "ret", "q4": "gen"}
    for qid, pick in picks.items():
        gold = f"g{qid}"
        unconstrained = (
            f"Every chronicle agrees that {gold} settled the matter of {qid}. "
            f"The point was revisited often. Scholars kept arguing about the "
            f"framing for many further decades without reaching anything new.")
        world.add_case(qid, outcome="AIG", hybrid_pick=pick,
                       unconstrained=unconstrained)
    world.write()
    reader = Reader(BackendSpec(kind="scripted", script_path=world.reader_path),
                    PromptSet())
    generator = Generator(BackendSpec(kind="scripted", script_path=world.gen_path),
                          PromptSet())
    retriever = KeyedRetriever.load(world.gold_path, "golden")
    examples = read_questions(world.questions_path)
    run_prepare(examples, retriever, generator, (80, 100, 120),
                tmp_path / "ctx.jsonl", "aa", seed=0)
    _, by_id = read_contexts(tmp_path / "ctx.jsonl")
    samples = run_trace(examples, by_id, reader, ABST, False,
                        tmp_path / "traced.jsonl", "aa", seed=0)
    return world, reader, generator, samples


def test_run_completeness_filters_and_reports(tmp_path):
    world, reader, generator, samples = _completeness_world(tmp_path)
    scores = {}
    for qid in ("q1", "q2", "q3"):
        for key in COMPLETENESS_VARIANTS:
            scores[(qid, key)] = 0.8
    # q4 diverges across variants and must fall to the matched filter.
    scores.update({("q4", "nature"): 0.9, ("q4", "trunc"): 0.5, ("q4", "strunc"): 0.9})

    out = tmp_path / "completeness.csv"
    reports = run_completeness(samples, reader, generator, "AIG", "generated_first",
                               seed=0, metric="external", aggregation="max",
                               external_scores=scores, threshold=0.05,
                               abstentions=ABST, out_path=out, manifest_hash="aa",
                               workers=2)
    assert list(reports) == list(COMPLETENESS_VARIANTS)
    for variant, report in reports.items():
        assert report.subset == variant
        assert report.n == 3  # q4 filtered out
        assert report.rho_gen == pytest.approx(2 / 3)
        assert report.rho_ret == pytest.approx(1 / 3)
        assert report.diff_gr == pytest.approx(1 / 3)
        assert report.em_percent == pytest.approx(200 / 3)
    manifest, seed, columns, rows = read_csv(out)
    assert columns == COMPLETENESS_COLUMNS
    assert [row[0] for row in rows] == list(COMPLETENESS_VARIANTS)

    divergent = {(qid, key): (0.9 if key == "nature" else 0.4)
                 for qid in ("q1", "q2", "q3", "q4") for key in COMPLETENESS_VARIANTS}
    with pytest.raises(ValidationError):
        run_completeness(samples, reader, generator, "AIG", "generated_first",
                         seed=0, metric="external", aggregation="max",
                         external_scores=divergent, threshold=0.05,
                         abstentions=ABST, out_path=out, manifest_hash="aa")
