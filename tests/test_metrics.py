"""Answer-origin proportions, diff_gr, EM, lengths, and report files."""
from __future__ import annotations

import random

import pytest

from ctxtrace.errors import UndefinedMetricError, ValidationError
from ctxtrace.metrics import (
    LENGTH_WARN_THRESHOLD,
    REPORT,
    MetricsReport,
    build_report,
    diff_gr,
    em_score,
    length_stats,
    proportions,
    read_report_csv,
    recall,
    render_markdown,
    write_report_csv,
)
from ctxtrace.pipeline import Context, HybridRecord, QaExample
from ctxtrace.textnorm import word_count


def _rec(classification, answer="x", qid="q1"):
    return HybridRecord(qid, "random", 0, answer, classification)


def _ctx(text, source="retrieved", qid="q1", words=None):
    return Context(id=qid, source=source, backend="scripted",
                   title="T" if source == "retrieved" else None,
                   text=text, word_count=word_count(text) if words is None else words,
                   gen_target_words=None if source == "retrieved" else 100,
                   variant="retrieved" if source == "retrieved" else "nature")


# ---------------------------------------------------------------------------
# proportions and diff_gr


def test_proportions_recount():
    records = ([_rec("gen")] * 1022 + [_rec("ret")] * 66 + [_rec("other")] * 32)
    parts = proportions(records)
    assert parts.rho_gen == pytest.approx(1022 / 1120)
    assert round(parts.rho_gen, 4) == 0.9125
    assert round(parts.rho_ret, 4) == 0.0589
    assert round(parts.others, 4) == 0.0286
    assert parts.rho_llm is None


def test_proportions_llm_tracking():
    records = [_rec("gen"), _rec("llm"), _rec("other"), _rec("other")]
    parts = proportions(records)  # inferred from the llm record
    assert parts == (0.25, 0.0, 0.25, 0.5)
    explicit = proportions([_rec("gen"), _rec("other")], llm_tracked=True)
    assert explicit.rho_llm == 0.0
    untracked = proportions([_rec("gen"), _rec("other")], llm_tracked=False)
    assert untracked.rho_llm is None
    with pytest.raises(ValidationError):
        proportions(records, llm_tracked=False)
    with pytest.raises(UndefinedMetricError):
        proportions([])


def test_proportions_always_sum_to_one():
    rng = random.Random(20260816)
    for _ in range(200):
        n = rng.randint(1, 40)
        records = [_rec(rng.choice(["gen", "ret", "llm", "other"])) for _ in range(n)]
        parts = proportions(records, llm_tracked=True)
        total = parts.rho_gen + parts.rho_ret + parts.rho_llm + parts.others
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for p in parts)


def test_diff_gr_published_operating_points():
    assert diff_gr(0.6608, 0.1871) == pytest.approx(0.5586, abs=5e-4)
    assert diff_gr(0.6783, 0.1291) == pytest.approx(0.6802, abs=5e-4)


def test_diff_gr_range_and_symmetry():
    assert diff_gr(0.3, 0.0) == 1.0
    assert diff_gr(0.0, 0.4) == -1.0
    assert diff_gr(0.25, 0.25) == 0.0
    rng = random.Random(99)
    for _ in range(300):
        a, b = rng.random(), rng.random()
        if a + b == 0:
            continue
        value = diff_gr(a, b)
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(-diff_gr(b, a))
    with pytest.raises(UndefinedMetricError):
        diff_gr(0.0, 0.0)


# ---------------------------------------------------------------------------
# em, recall, lengths


def test_em_score_normalizes():
    examples = {"q1": QaExample("q1", "?", ("The Kremlin",)),
                "q2": QaExample("q2", "?", ("Paris", "Lutetia"))}
    records = [_rec("gen", "kremlin.", "q1"), _rec("ret", "LUTETIA", "q2"),
               _rec("other", "London", "q2"), _rec("other", "", "q2")]
    assert em_score(records, examples) == 50.0
    # An article in the answer, a later gold, and an example with no golds.
    examples = {"q3": QaExample("q3", "?", ("Hindenburg Line", "Siegfried Line")),
                "q4": QaExample("q4", "?", ())}
    records = [_rec("gen", "the Hindenburg line", "q3"), _rec("ret", "siegfried line.", "q3"),
               _rec("other", "Maginot Line", "q3"), _rec("other", "anything", "q4")]
    assert [em_score([record], examples) for record in records] == [100.0, 100.0, 0.0, 0.0]
    with pytest.raises(UndefinedMetricError):
        em_score([], examples)
    with pytest.raises(ValidationError):
        em_score([_rec("gen", "x", "q9")], examples)


def test_recall_counts_containing_contexts():
    examples = {"q1": QaExample("q1", "?", ("beta",)),
                "q2": QaExample("q2", "?", ("zeta", "eta")),
                "q3": QaExample("q3", "?", ("missing",))}
    contexts = {"q1": _ctx("alpha beta gamma", qid="q1"),
                "q2": _ctx("epsilon Eta theta", qid="q2"),
                "q3": _ctx("nothing to see", qid="q3")}
    assert recall(contexts, examples) == pytest.approx(2 / 3)
    with pytest.raises(UndefinedMetricError):
        recall({}, examples)
    with pytest.raises(ValidationError):
        recall({"q9": _ctx("x", qid="q9")}, examples)


def test_recall_ignores_blank_gold_answers():
    examples = {"q1": QaExample("q1", "?", ("   ",))}
    assert recall({"q1": _ctx("anything", qid="q1")}, examples) == 0.0


def test_length_stats_discrepancy():
    contexts = ([_ctx("r", words=107) for _ in range(7)]
                + [_ctx("r", words=108) for _ in range(3)]
                + [_ctx("g", source="generated", words=108) for _ in range(10)])
    stats = length_stats(contexts)
    assert stats.mean_retrieved == pytest.approx(107.3)
    assert stats.mean_generated == pytest.approx(108.0)
    assert stats.discrepancy == pytest.approx(0.7 / 107.3)
    assert round(stats.discrepancy, 4) == 0.0065
    assert not stats.warn


def test_length_stats_warn_threshold_is_strict():
    def stats_for(gen_words):
        return length_stats([_ctx("r", words=100),
                             _ctx("g", source="generated", words=gen_words)])
    assert LENGTH_WARN_THRESHOLD == 0.03
    assert not stats_for(103).warn
    assert stats_for(104).warn
    assert stats_for(96).warn  # gap is symmetric
    with pytest.raises(ValidationError):
        length_stats([_ctx("r")])
    with pytest.raises(UndefinedMetricError):
        length_stats([_ctx("r", words=0), _ctx("g", source="generated", words=5)])


# ---------------------------------------------------------------------------
# report objects and files


def test_build_report():
    examples = {"q1": QaExample("q1", "?", ("a",)), "q2": QaExample("q2", "?", ("b",))}
    records = [_rec("gen", "a", "q1"), _rec("ret", "c", "q2")]
    report = build_report("ALL", records, examples, llm_tracked=False)
    assert report == MetricsReport("ALL", 2, 0.5, 0.5, None, 0.0, 0.0, 50.0)


def test_report_cells_roundtrip():
    with_llm = MetricsReport("AIG", 1207, 0.6608, 0.1871, 0.0704, 0.0817,
                             diff_gr(0.6608, 0.1871), 41.2593)
    without = MetricsReport("AIR", 623, 0.1291, 0.6783, None, 0.1926,
                            diff_gr(0.1291, 0.6783), 77.05)
    for report in (with_llm, without):
        cells = REPORT.cells(report)
        assert len(cells) == len(REPORT.keys)
        parsed = REPORT.parse(cells, "p")
        assert parsed.subset == report.subset and parsed.n == report.n
        assert parsed.rho_gen == pytest.approx(report.rho_gen, abs=5e-7)
        assert parsed.diff_gr == pytest.approx(report.diff_gr, abs=5e-7)
        assert parsed.em_percent == pytest.approx(report.em_percent, abs=5e-5)
    # Fraction cells carry six decimals, EM four; absent rho_llm is empty.
    cells = REPORT.cells(without)
    assert cells[2] == "0.129100"
    assert cells[4] == ""
    assert cells[7] == "77.0500"
    parsed = REPORT.parse(cells, "p")
    assert parsed.rho_llm is None
    assert parsed.n == 623
    assert parsed.rho_gen == pytest.approx(0.1291, abs=5e-7)
    with pytest.raises(ValidationError):
        REPORT.parse(cells[:-1], "p")


def test_report_csv_roundtrip_is_stable(tmp_path):
    reports = [MetricsReport("AIG", 3, 2 / 3, 1 / 3, None, 0.0,
                             diff_gr(2 / 3, 1 / 3), 100 / 3),
               MetricsReport("ALL", 9, 1 / 3, 1 / 9, 2 / 9, 1 / 3,
                             diff_gr(1 / 3, 1 / 9), 55.5556)]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_report_csv(first, reports, "abcd1234abcd1234", 11)
    manifest, seed, reread = read_report_csv(first)
    assert (manifest, seed) == ("abcd1234abcd1234", 11)
    assert [r.subset for r in reread] == ["AIG", "ALL"]
    write_report_csv(second, reread, manifest, seed)
    assert first.read_bytes() == second.read_bytes()
    for before, after in zip(reports, reread):
        assert after.n == before.n
        assert after.rho_gen == pytest.approx(before.rho_gen, abs=5e-7)
        assert after.em_percent == pytest.approx(before.em_percent, abs=5e-5)


def test_read_report_csv_checks_columns(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# manifest=x seed=1\nsubset,n\nAIG,3\n")
    with pytest.raises(ValidationError):
        read_report_csv(path)


def test_render_markdown():
    reports = [MetricsReport("AIG", 1207, 0.6608, 0.1871, 0.0704, 0.0817, 0.5587, 41.26),
               MetricsReport("AIR", 623, 0.1291, 0.6783, None, 0.1926, -0.6802, 77.05)]
    text = render_markdown(reports)
    assert text.startswith("## Exact match\n")
    assert "| AIG | 1207 | 41.26 |" in text
    assert "| AIG | 66.08 | 18.71 | 7.04 | 8.17 | 0.5587 |" in text
    assert "| AIR | 12.91 | 67.83 | - | 19.26 | -0.6802 |" in text
    assert text.endswith("\n")
