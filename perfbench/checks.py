"""Recount the program's outputs against the outcomes planted by worldgen.

Output files are parsed here with plain ``json`` and ``csv``; nothing in this
module calls the code under test.  Every comparison goes through
``Checker.expect``, so each one counts as an attempted operation.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

DROPPED = ("abstained_gen", "abstained_ret", "not_in_gen", "not_in_ret")
FRACTION_TOLERANCE = 5e-7   # report cells carry six decimals
EM_TOLERANCE = 5e-5         # and em_percent four


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows or "_manifest" not in rows[0]:
        raise ValueError(f"{path.name}: missing manifest header")
    return rows[1:]


def _csv(path: Path) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        if not fh.readline().startswith("# manifest="):
            raise ValueError(f"{path.name}: missing manifest header")
        rows = list(csv.reader(fh))
    return {row[0]: row for row in rows[1:] if row}


class Checker:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _tally(picks: list[str], gold_picks: int) -> dict:
    n = len(picks)
    gen, ret = picks.count("gen"), picks.count("ret")
    return {"n": n, "rho_gen": gen / n, "rho_ret": ret / n, "rho_llm": picks.count("llm") / n,
            "others": picks.count("other") / n, "diff_gr": (gen - ret) / (gen + ret),
            "em_percent": 100.0 * gold_picks / n}


def _check_row(check: Checker, name: str, row: list[str] | None, want: dict) -> None:
    if row is None:
        check.expect(False, f"{name}: row missing")
        return
    n, rho_gen, rho_ret, rho_llm, others, diff_gr, em = row[1:8]
    check.expect(int(n) == want["n"], f"{name}: n {n} != {want['n']}")
    for label, cell, value in (("rho_gen", rho_gen, want["rho_gen"]),
                               ("rho_ret", rho_ret, want["rho_ret"]),
                               ("rho_llm", rho_llm, want["rho_llm"]),
                               ("others", others, want["others"]),
                               ("diff_gr", diff_gr, want["diff_gr"])):
        check.expect(abs(float(cell) - value) <= FRACTION_TOLERANCE,
                     f"{name}: {label} {cell} != {value:.6f}")
    check.expect(abs(float(em) - want["em_percent"]) <= EM_TOLERANCE,
                 f"{name}: em_percent {em} != {want['em_percent']:.4f}")


def check_contexts(check: Checker, out: Path, planted: dict) -> None:
    seen: dict[tuple[str, str], dict] = {}
    for row in _jsonl(out / "contexts.jsonl"):
        seen[(row["id"], row["source"])] = row
    check.expect(len(seen) == 2 * len(planted),
                 f"contexts.jsonl: {len(seen)} contexts for {len(planted)} questions")
    for qid, want in planted.items():
        ret, gen = seen.get((qid, "retrieved")), seen.get((qid, "generated"))
        check.expect(ret is not None and _sha(ret["text"]) == want["ret_sha"]
                     and ret["word_count"] == want["ret_words"]
                     and ret["title"] == want.get("doc_title", ret["title"]),
                     f"contexts.jsonl: retrieved context of {qid} differs from the planted one")
        check.expect(gen is not None and _sha(gen["text"]) == want["gen_sha"]
                     and gen["gen_target_words"] == want["gen_target"],
                     f"contexts.jsonl: generated context of {qid} is not the length-matched one")


def check_qa(check: Checker, out: Path, expected: dict, analyses: tuple[str, ...]) -> None:
    planted = expected["questions"]
    check_contexts(check, out, planted)

    traced = {row["id"]: row for row in _jsonl(out / "traced.jsonl")}
    check.expect(len(traced) == len(planted),
                 f"traced.jsonl: {len(traced)} rows for {len(planted)} questions")
    for qid, want in planted.items():
        row = traced.get(qid, {})
        outcome = want["outcome"]
        subset = {"AIG": "AIG", "AIR": "AIR", "parametric": "AIG"}.get(outcome, "none")
        dropped = outcome if outcome in DROPPED + ("parametric",) else None
        read_closed = outcome in ("AIG", "AIR", "parametric")
        check.expect(row.get("subset") == subset and row.get("dropped") == dropped
                     and (row.get("closed_book") is not None) == read_closed,
                     f"traced.jsonl: {qid} ({outcome}) stored subset {row.get('subset')!r}, "
                     f"dropped {row.get('dropped')!r}")

    live = {qid: want for qid, want in planted.items() if "pick" in want}
    evaluated = {row["id"]: row for row in _jsonl(out / "eval.jsonl")}
    check.expect(sorted(evaluated) == sorted(live),
                 f"eval.jsonl: {len(evaluated)} records for {len(live)} live samples")
    for qid, want in live.items():
        got = evaluated.get(qid, {}).get("classification")
        check.expect(got == want["pick"],
                     f"eval.jsonl: {qid} classified {got!r}, planted {want['pick']!r}")

    def tally(qids) -> dict:
        picks = [live[q]["pick"] for q in qids]
        gold = sum(1 for q in qids
                   if live[q]["pick"] == {"AIG": "gen", "AIR": "ret"}[live[q]["outcome"]])
        return _tally(picks, gold)

    report = _csv(out / "report.csv")
    check.expect(list(report) == ["AIG", "AIR", "ALL"], f"report.csv: rows {list(report)}")
    for subset in ("AIG", "AIR"):
        _check_row(check, f"report.csv {subset}", report.get(subset),
                   tally([q for q, w in live.items() if w["outcome"] == subset]))
    everything = tally(list(live))
    _check_row(check, "report.csv ALL", report.get("ALL"), everything)

    order = _csv(out / "order.csv")
    for name in ("generated_first", "retrieved_first", "random"):
        _check_row(check, f"order.csv {name}", order.get(name), everything)

    matched = [q for q, w in live.items() if w["matched"]]
    completeness = _csv(out / "completeness.csv")
    for variant, qids in (("nature", matched), ("strunc", matched),
                          ("trunc", [q for q in matched if live[q]["trunc_ok"]])):
        _check_row(check, f"completeness.csv {variant}", completeness.get(variant), tally(qids))

    if "sim" in analyses:
        sim = _csv(out / "sim.csv")
        check.expect(sorted(sim) == sorted(live), f"sim.csv: {len(sim)} rows for {len(live)}")
        slices = _csv(out / "slices.csv")
        check.expect(sum(int(row[1]) for row in slices.values()) == len(live),
                     "slices.csv: slice sizes do not add up to the live samples")


def check_digests(check: Checker, reps: list[dict]) -> None:
    """Every repetition at this seed must write byte-identical outputs."""
    first = reps[0]["digests"]
    for index, rep in enumerate(reps[1:], start=1):
        digests = rep.get("digests", {})
        check.expect(sorted(digests) == sorted(first),
                     f"repetition {index} wrote files {sorted(digests)}, not {sorted(first)}")
        for name, digest in first.items():
            check.expect(digests.get(name) == digest,
                         f"repetition {index}: {name} differs from repetition 0")
