"""Acceptance suite: ten end-to-end guarantees, one test per criterion.

Each test prints a PASS line with its elapsed time; the criteria pin exact
values, tolerances, and runtime budgets.
"""
from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

from ctxtrace import analysis, pipeline, textnorm
from ctxtrace.backends import (
    BM25_STOPWORDS,
    BackendSpec,
    Bm25Index,
    Bm25Params,
    KeyedRetriever,
)
from ctxtrace.cli import main as cli_main
from ctxtrace.jsonl import header_obj, write_jsonl
from ctxtrace.metrics import (
    MetricsReport,
    build_report,
    diff_gr,
    proportions,
    read_report_csv,
    write_report_csv,
)
from ctxtrace.pipeline import (
    Context,
    Generator,
    HybridRecord,
    PromptSet,
    QaExample,
    Reader,
    TracedSample,
    read_contexts,
    read_questions,
    run_evaluate,
    run_prepare,
    run_trace,
)

from .conftest import WorldBuilder
from .conftest import write_jsonl as write_plain_jsonl

SEED = 20260816


class _Clock:
    def __init__(self, budget_seconds: float) -> None:
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def done(self, label: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{label}: {elapsed:.2f}s over {self.budget}s budget"
        print(f"PASS {label} ({elapsed:.2f}s < {self.budget:.0f}s)")


def test_criterion_01_diff_gr_matches_published_values():
    clock = _Clock(1.0)
    assert abs(diff_gr(0.6608, 0.1871) - 0.5586) <= 5e-4
    assert abs(diff_gr(0.6783, 0.1291) - 0.6802) <= 5e-4
    clock.done("criterion 1: diff_gr reproduces both published operating points")


def test_criterion_02_retriever_table_report_roundtrip(tmp_path):
    clock = _Clock(1.0)
    table = [("bm25", 1507, 493, 2000, "0.5070"),
             ("contriever", 1877, 623, 2500, "0.5016"),
             ("gold", 458, 167, 625, "0.4656")]
    reports = []
    for name, gen_n, ret_n, total, expect in table:
        example = QaExample(name, "?", ("right",))
        records = ([HybridRecord(name, "random", 0, "right", "gen")] * gen_n
                   + [HybridRecord(name, "random", 0, "wrong", "ret")] * ret_n)
        assert len(records) == total
        report = build_report(name, records, {name: example}, llm_tracked=False)
        assert f"{report.diff_gr:.4f}" == expect
        reports.append(report)

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(first, reports, "feedface00000000", 0)
    _, _, reread = read_report_csv(first)
    write_report_csv(second, reread, "feedface00000000", 0)
    assert first.read_bytes() == second.read_bytes()
    for report, row in zip(reports, reread):
        assert f"{row.diff_gr:.4f}" == f"{report.diff_gr:.4f}"
    clock.done("criterion 2: retriever-table report round-trips bit-exactly")


def test_criterion_03_injected_bias_recovery(tmp_path):
    clock = _Clock(30.0)
    p_gen, p_ret = 0.7, 0.2
    rng = random.Random(SEED)
    world = WorldBuilder(tmp_path)
    for i in range(2000):
        coin = rng.random()
        pick = "gen" if coin < p_gen else ("ret" if coin < p_gen + p_ret else "other")
        world.add_case(f"q{i:04d}", outcome="AIG", hybrid_pick=pick)
    world.write()

    reader = Reader(BackendSpec(kind="scripted", script_path=world.reader_path),
                    PromptSet())
    generator = Generator(BackendSpec(kind="scripted", script_path=world.gen_path),
                          PromptSet())
    retriever = KeyedRetriever.load(world.gold_path, "golden")
    examples = read_questions(world.questions_path)
    run_prepare(examples, retriever, generator, (80, 100, 120),
                tmp_path / "contexts.jsonl", "aaaaaaaaaaaaaaaa", seed=SEED)
    _, by_id = read_contexts(tmp_path / "contexts.jsonl")
    samples = run_trace(examples, by_id, reader, pipeline.DEFAULT_ABSTENTIONS, False,
                        tmp_path / "traced.jsonl", "aaaaaaaaaaaaaaaa", seed=SEED)
    reports = run_evaluate(samples, reader, "random", SEED, tmp_path / "eval.jsonl",
                           tmp_path / "report.csv", "aaaaaaaaaaaaaaaa")
    measured = {r.subset: r for r in reports}["ALL"].diff_gr

    # Recount oracle: classify counts straight from the written eval file.
    counts = {"gen": 0, "ret": 0, "llm": 0, "other": 0}
    with open(tmp_path / "eval.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows[0]["_manifest"] == "aaaaaaaaaaaaaaaa"
    for row in rows[1:]:
        counts[row["classification"]] += 1
    n = sum(counts.values())
    assert n == 2000
    oracle = ((counts["gen"] / n - counts["ret"] / n)
              / (counts["gen"] / n + counts["ret"] / n))
    assert measured == oracle
    planned = {"gen": 0, "ret": 0, "other": 0}
    for expect in world.expected.values():
        planned[expect["pick"]] += 1
    assert counts["gen"] == planned["gen"] and counts["ret"] == planned["ret"]
    assert abs(measured - (p_gen - p_ret) / (p_gen + p_ret)) <= 0.05
    clock.done("criterion 3: measured diff_gr equals the recount oracle exactly "
               f"({measured:.4f} vs target 0.5556)")


def _random_traced_fixture(rng, index):
    filler = ["meadow", "granite", "lantern", "orchard", "thimble", "harbor",
              "velvet", "saddle", "chimney", "barley", "copper", "juniper"]

    def sentence(entity=None):
        words = [rng.choice(filler) for _ in range(rng.randint(3, 8))]
        if entity is not None:
            words.insert(rng.randint(0, len(words)), entity)
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    gold = f"prize{index}"
    if rng.random() < 0.3:
        gold += f" token{index}"
    alt = f"decoy{index}"
    subset = rng.choice(("AIG", "AIR"))
    gen_entity, ret_entity = (gold, alt) if subset == "AIG" else (alt, gold)

    gen_text = " ".join(sentence(gen_entity if i == 0 else None)
                        for i in range(rng.randint(1, 3)))
    title = f"Entry {index}"
    body = " ".join(sentence(ret_entity if i == 0 else None)
                    for i in range(rng.randint(1, 3)))
    ret_text = pipeline.render_passage(title, body)

    def ctx(source, text, title_value):
        return Context(id=f"q{index}", source=source, backend="scripted",
                       title=title_value, text=text,
                       word_count=textnorm.word_count(text),
                       gen_target_words=100 if source == "generated" else None,
                       variant="nature" if source == "generated" else "retrieved")

    return TracedSample(
        example=QaExample(f"q{index}", f"who holds item {index}?", (gold,)),
        retrieved=ctx("retrieved", ret_text, title),
        generated=ctx("generated", gen_text, None),
        answer_from_retrieved=ret_entity,
        answer_from_generated=gen_entity,
        closed_book=None,
        subset=subset,
        dropped=None,
    )


def test_criterion_04_cc_invariants_on_random_fixtures(tmp_path):
    clock = _Clock(10.0)
    rng = random.Random(SEED)
    samples = [_random_traced_fixture(rng, i) for i in range(1000)]
    assert {s.subset for s in samples} == {"AIG", "AIR"}
    path = tmp_path / "traced.jsonl"
    write_jsonl(path, (pipeline.traced_to_row(s) for s in samples),
                header=header_obj("bbbbbbbbbbbbbbbb", SEED))
    assert cli_main(["validate", str(path)]) == 0
    clock.done("criterion 4: 1000 random AIG/AIR fixtures validate with zero violations")


def _brute_force_top1(docs, query_tokens, k1, b):
    analyzed = [[t for t in textnorm.tokens(f"{title} {body}")
                 if t not in BM25_STOPWORDS]
                for _, title, body in docs]
    lengths = [len(toks) for toks in analyzed]
    avgdl = sum(lengths) / len(docs) if sum(lengths) else 1.0
    n = len(docs)
    best_id, best_score = None, None
    for (doc_id, _, _), toks, dl in zip(docs, analyzed, lengths):
        score = 0.0
        for term in dict.fromkeys(query_tokens):
            tf = toks.count(term)
            if not tf:
                continue
            df = sum(1 for other in analyzed if term in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            norm = k1 * (1.0 - b + b * dl / avgdl)
            score += query_tokens.count(term) * idf * tf * (k1 + 1.0) / (tf + norm)
        if best_score is None or score > best_score or (score == best_score
                                                        and doc_id < best_id):
            best_id, best_score = doc_id, score
    return best_id, best_score


def test_criterion_05_bm25_matches_brute_force():
    clock = _Clock(10.0)
    rng = random.Random(SEED)
    vocab = ["ash", "birch", "cedar", "dogwood", "elm", "fir", "gum", "hazel",
             "ivy", "juniper", "kapok", "larch", "maple", "nutmeg", "oak",
             "pine", "quince", "rowan", "spruce", "teak"]
    for trial in range(200):
        n_docs = rng.randint(1, 50)
        docs = []
        for d in range(n_docs):
            words = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            docs.append((f"doc{d:02d}", rng.choice(vocab), " ".join(words)))
        k1 = rng.choice([0.5, 1.2, 2.0])
        b = rng.choice([0.0, 0.4, 0.75, 1.0])
        index = Bm25Index(docs, Bm25Params(k1, b))
        question = " ".join(rng.choice(vocab + ["zebrawood"])
                            for _ in range(rng.randint(1, 8)))
        hit = index.top1(question)
        query = [t for t in textnorm.tokens(question) if t not in BM25_STOPWORDS]
        want_id, want_score = _brute_force_top1(docs, query, k1, b)
        assert hit.doc_id == want_id, f"trial {trial}"
        assert math.isclose(hit.score, want_score, rel_tol=1e-9, abs_tol=1e-12)
    clock.done("criterion 5: bm25 top1 equals brute force on 200 random corpora")


def test_criterion_06_length_control(tmp_path):
    clock = _Clock(5.0)
    emitted = {80: 90, 100: 104, 120: 121}
    questions, gold_rows, gen_rows = [], [], []
    for i in range(40):
        qid = f"q{i:03d}"
        questions.append({"id": qid, "question": f"length probe {i}?",
                          "answers": ["whatever"]})
        body = " ".join(f"{qid}w{j}" for j in range(104))
        gold_rows.append({"question_id": qid, "doc_id": f"d{i}",
                          "title": "T", "body": body})
        for target, words in emitted.items():
            gen_rows.append({"question_id": qid, "target_words": target,
                             "text": " ".join(f"{qid}g{j}" for j in range(words))})
    q_path = write_plain_jsonl(tmp_path / "q.jsonl", questions)
    gold_path = write_plain_jsonl(tmp_path / "gold.jsonl", gold_rows)
    gen_path = write_plain_jsonl(tmp_path / "gen.jsonl", gen_rows)

    generator = Generator(BackendSpec(kind="scripted", script_path=gen_path),
                          PromptSet())
    retriever = KeyedRetriever.load(gold_path, "golden")
    examples = read_questions(q_path)
    contexts, stats = run_prepare(examples, retriever, generator, (80, 100, 120),
                                  tmp_path / "contexts.jsonl", "cccccccccccccccc",
                                  seed=0)
    generated = [c for c in contexts if c.source == "generated"]
    retrieved = [c for c in contexts if c.source == "retrieved"]
    assert len(generated) == len(retrieved) == 40
    assert all(c.word_count == 107 for c in retrieved)
    assert all(c.word_count == 104 for c in generated)
    assert all(c.gen_target_words == 100 for c in generated)
    assert stats.mean_retrieved == 107.0
    assert stats.mean_generated == 104.0
    assert stats.discrepancy == abs(104.0 - 107.0) / 107.0
    assert stats.discrepancy < 0.03
    assert not stats.warn
    clock.done("criterion 6: length matching picks 104 everywhere, "
               f"discrepancy {stats.discrepancy:.4f} < 0.03")


def _random_prose(rng):
    vocab = ["amber", "basil", "cobalt", "durum", "ember", "fennel", "garnet",
             "heather", "indigo", "jasper"]
    sentences = []
    for _ in range(rng.randint(1, 7)):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + rng.choice([".", "!", "?"]))
    return " ".join(sentences)


def test_criterion_07_truncation_contracts():
    clock = _Clock(5.0)
    rng = random.Random(SEED)
    for _ in range(500):
        text = _random_prose(rng)
        target = rng.randint(1, 50)
        total = textnorm.word_count(text)

        cut = analysis.trunc(text, target)
        assert textnorm.word_count(cut) == min(target, total)
        if total <= target:
            assert cut == text
        assert analysis.trunc(cut, target) == cut

        snipped = analysis.s_trunc(text, target)
        spans = textnorm.split_sentences(text)
        boundaries = {text[:span.end] for span in spans} | {text}
        assert snipped in boundaries  # always ends at a sentence boundary
        if textnorm.word_count(snipped) > target:
            assert snipped == text[:spans[0].end]  # oversize first sentence
        assert analysis.s_trunc(snipped, target) == snipped
    clock.done("criterion 7: trunc and s_trunc contracts hold on 500 random texts")


def test_criterion_08_slicing_contracts():
    clock = _Clock(10.0)
    rng = random.Random(SEED)
    for _ in range(20):
        size = rng.randint(5, 5000)
        records = [analysis.SimilarityRecord(f"r{i:05d}", 0.5, 0.5, "jaccard", "max",
                                             round(rng.uniform(-1, 1), 2))
                   for i in range(size)]
        evals = [HybridRecord(r.example_id, "random", 0, "x",
                              rng.choice(("gen", "ret"))) for r in records]
        for n in range(2, 11):
            if n > size:
                continue
            slices = analysis.quantile_slices(records, n)
            sizes = [len(s.example_ids) for s in slices]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == size
            flat = [qid for s in slices for qid in s.example_ids]
            assert sorted(flat) == sorted(r.example_id for r in records)
            deltas = {r.example_id: r.delta_sim for r in records}
            for left, right in zip(slices, slices[1:]):
                last = (deltas[left.example_ids[-1]], left.example_ids[-1])
                first = (deltas[right.example_ids[0]], right.example_ids[0])
                assert last <= first

        single = analysis.slice_report(analysis.quantile_slices(records, 1), evals)
        parts = proportions(evals)
        assert single[0].diff_gr == diff_gr(parts.rho_gen, parts.rho_ret)
    clock.done("criterion 8: quantile slices partition, balance, order, "
               "and preserve global diff_gr at n=1")


def test_criterion_09_metric_algebra_properties():
    clock = _Clock(5.0)
    rng = random.Random(SEED)
    for _ in range(10000):
        a, b = rng.uniform(0, 1), rng.uniform(0, 1)
        if a + b == 0:
            continue
        forward = diff_gr(a, b)
        assert forward == -diff_gr(b, a)  # antisymmetry
        assert -1.0 <= forward <= 1.0
        scale = rng.uniform(0.1, 100.0)
        assert math.isclose(diff_gr(scale * a, scale * b), forward,
                            rel_tol=1e-9, abs_tol=1e-12)
    for _ in range(10000):
        positive = rng.uniform(1e-6, 1)
        assert diff_gr(positive, 0.0) == 1.0
        assert diff_gr(0.0, positive) == -1.0
        assert diff_gr(positive, positive) == 0.0
    for _ in range(10000):
        counts = [rng.randint(0, 12) for _ in range(4)]
        if sum(counts) == 0:
            counts[rng.randrange(4)] = 1
        records = []
        for label, count in zip(("gen", "ret", "llm", "other"), counts):
            records.extend(HybridRecord("q", "random", 0, "x", label)
                           for _ in range(count))
        parts = proportions(records, llm_tracked=True)
        assert abs(sum(parts) - 1.0) <= 1e-9
    clock.done("criterion 9: diff_gr algebra and proportion sums hold over "
               "10000 random inputs per property")


def _run_stage_chain(world, out_dir, scores_path):
    out_dir.mkdir(exist_ok=True)
    paths = {name: str(out_dir / name) for name in (
        "contexts.jsonl", "traced.jsonl", "eval.jsonl", "report.csv",
        "sim.csv", "slices.csv", "order.csv", "completeness.csv")}
    base = [*world.config_args(), "--seed", "7", "--workers", "2"]
    steps = [
        ["prepare", "--questions", world.questions_path,
         "--out", paths["contexts.jsonl"], *base],
        ["trace", "--questions", world.questions_path,
         "--contexts", paths["contexts.jsonl"], "--out", paths["traced.jsonl"],
         "--parametric", *base],
        ["evaluate", "--traced", paths["traced.jsonl"], "--out", paths["eval.jsonl"],
         "--report", paths["report.csv"], *base],
        ["analyze", "sim", "--traced", paths["traced.jsonl"],
         "--out", paths["sim.csv"], "--subset", "ALL", *base],
        ["analyze", "slices", "--sim", paths["sim.csv"], "--eval", paths["eval.jsonl"],
         "--out", paths["slices.csv"], "--slices", "4", *base],
        ["analyze", "order", "--traced", paths["traced.jsonl"],
         "--out", paths["order.csv"], "--subset", "AIG", *base],
        ["analyze", "completeness", "--traced", paths["traced.jsonl"],
         "--out", paths["completeness.csv"], "--subset", "AIG",
         "--order", "generated-first", "--sim-metric", "external",
         "--scores", scores_path, *base],
    ]
    for argv in steps:
        code = cli_main(argv)
        assert code == 0, argv
    return paths


def test_criterion_10_scripted_runs_are_byte_identical(tmp_path, capsys):
    clock = _Clock(60.0)
    rng = random.Random(SEED)
    world = WorldBuilder(tmp_path)
    aig_ids = []
    for i in range(40):
        qid = f"q{i:03d}"
        outcome = "AIG" if i < 30 else "AIR"
        pick = rng.choice(("gen", "ret"))
        if outcome == "AIG":
            aig_ids.append(qid)
            gold = f"g{qid}"
            unconstrained = (
                f"Every chronicle agrees that {gold} settled the matter of {qid}. "
                f"The point was revisited often. Scholars kept arguing about the "
                f"framing for many further decades without reaching anything new.")
            world.add_case(qid, outcome=outcome, hybrid_pick=pick,
                           unconstrained=unconstrained)
        else:
            world.add_case(qid, outcome=outcome, hybrid_pick=pick)
    world.write()
    scores_path = write_plain_jsonl(tmp_path / "scores.jsonl", [
        {"example_id": qid, "key": key, "score": 0.8}
        for qid in aig_ids for key in ("nature", "trunc", "strunc")])

    first = _run_stage_chain(world, tmp_path / "run1", scores_path)
    second = _run_stage_chain(world, tmp_path / "run2", scores_path)
    capsys.readouterr()  # stage chatter is not under test
    for name in first:
        left = Path(first[name]).read_bytes()
        right = Path(second[name]).read_bytes()
        assert left == right, f"{name} differs between identical runs"
        assert left  # every stage produced content
    clock.done("criterion 10: two identical scripted runs produce byte-identical "
               "files across all eight outputs")
