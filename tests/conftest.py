"""Shared fixtures: scripted worlds that drive the pipeline end to end.

A WorldBuilder lays down the four input files a fully scripted run needs
(questions, gold passages, generation script, reader script) and records
what the pipeline is expected to conclude about every question, so tests
can recount results independently of the code under test.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from ctxtrace.analysis import ingest_similarity, s_trunc, trunc
from ctxtrace.backends import (
    Bm25Index,
    Bm25Params,
    GenerationScript,
    KeyedRetriever,
    ReaderScript,
    context_fingerprint,
)
from ctxtrace.cli import main as cli_main
from ctxtrace.pipeline import DEFAULT_LENGTH_CANDIDATES, read_questions, render_passage
from ctxtrace.textnorm import word_count

OUTCOMES = (
    "AIG", "AIR", "both", "neither", "parametric",
    "abstained_gen", "abstained_ret", "not_in_gen", "not_in_ret",
)

# Each loader of a user-written input file, by a name, and a row it takes.
INPUT_LOADERS = {
    "questions": (read_questions, {"id": "q1", "question": "Who?", "answers": ["x"]}),
    "reader-script": (ReaderScript.load, {"question_id": "q1", "mode": "closed_book",
                                          "context_fingerprint": None, "answer": "x"}),
    "generation-script": (GenerationScript.load,
                          {"question_id": "q1", "target_words": None, "text": "x"}),
    "corpus": (lambda path: Bm25Index.from_corpus_file(path, Bm25Params()),
               {"doc_id": "d1", "title": "T", "text": "x"}),
    "golden": (lambda path: KeyedRetriever.load(path, "golden"),
               {"question_id": "q1", "doc_id": "d1", "title": "T", "body": "x"}),
    "ingest": (lambda path: KeyedRetriever.load(path, "ingest"),
               {"question_id": "q1", "doc_id": "d1", "title": "T", "body": "x", "score": 0.5}),
    "scores": (ingest_similarity, {"example_id": "q1", "key": "generated", "score": 0.5}),
}


def write_jsonl(path: str | Path, rows) -> str:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return str(path)


class WorldBuilder:
    """Accumulates cases, then writes the scripted input files.

    Entities are single unique tokens derived from the question id, so
    containment and match outcomes are exact by construction: g<qid> is the
    gold answer, w<qid>/d<qid> are wrong answers planted in the generated
    and retrieved texts, c<qid> is the closed-book reply, s<qid> is a stray
    reply matching nothing.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.questions: list[dict] = []
        self.annotations: list[dict] = []
        self.gen_rows: list[dict] = []
        self.reader_rows: list[dict] = []
        self.expected: dict[str, dict] = {}
        self._seen: set[tuple] = set()

    # -- construction ------------------------------------------------------

    def _reader_row(self, qid: str, mode: str, fingerprint: str | None,
                    answer: str) -> None:
        key = (qid, mode, fingerprint)
        if key in self._seen:
            return
        self._seen.add(key)
        self.reader_rows.append({"question_id": qid, "mode": mode,
                                 "context_fingerprint": fingerprint,
                                 "answer": answer})

    def add_case(self, qid: str, outcome: str = "AIG", hybrid_pick: str = "other",
                 unconstrained: str | None = None) -> None:
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        gold, wrong, decoy = f"g{qid}", f"w{qid}", f"d{qid}"
        closed, stray, missing = f"c{qid}", f"s{qid}", f"m{qid}"

        gen_entity = {"AIG": gold, "both": gold, "parametric": gold}.get(outcome, wrong)
        ret_entity = {"AIR": gold, "both": gold}.get(outcome, decoy)
        gen_text = (f"One account of {qid} concludes that {gen_entity} settled the "
                    f"matter, naming {gen_entity} a second time for weight.")
        title = f"Record {qid}"
        body = (f"The ledger for {qid} lists {ret_entity} beside the seal, and the "
                f"margin repeats {ret_entity} in a later hand.")
        rendered = render_passage(title, body)

        gen_ans = {"AIG": gold, "both": gold, "parametric": gold,
                   "abstained_gen": "unknown", "not_in_gen": missing}.get(outcome, wrong)
        ret_ans = {"AIR": gold, "both": gold,
                   "abstained_ret": "unknown", "not_in_ret": missing}.get(outcome, decoy)
        if outcome == "parametric":
            closed = gen_ans

        subset = {"AIG": "AIG", "AIR": "AIR", "parametric": "AIG"}.get(outcome, "none")
        dropped = outcome if outcome.startswith(("abstained", "not_in")) else None

        hybrid = {"gen": gen_ans, "ret": ret_ans, "llm": closed, "other": stray}[hybrid_pick]

        self.questions.append({"id": qid, "question": f"Who settled the matter of {qid}?",
                               "answers": [gold]})
        self.annotations.append({"question_id": qid, "doc_id": f"doc-{qid}",
                                 "title": title, "body": body})
        for n in DEFAULT_LENGTH_CANDIDATES:
            self.gen_rows.append({"question_id": qid, "target_words": n, "text": gen_text})
        self._reader_row(qid, "single_context", context_fingerprint(gen_text), gen_ans)
        self._reader_row(qid, "single_context", context_fingerprint(rendered), ret_ans)
        self._reader_row(qid, "closed_book", None, closed)
        self._reader_row(qid, "hybrid", None, hybrid)

        if unconstrained is not None:
            self.gen_rows.append({"question_id": qid, "target_words": None,
                                  "text": unconstrained})
            target = word_count(rendered)
            for text in (trunc(unconstrained, target), s_trunc(unconstrained, target)):
                self._reader_row(qid, "single_context", context_fingerprint(text), gen_ans)

        self.expected[qid] = {
            "gold": gold, "gen_ans": gen_ans, "ret_ans": ret_ans, "closed": closed,
            "hybrid": hybrid, "pick": hybrid_pick, "outcome": outcome,
            "subset": subset, "dropped": dropped,
            "gen_text": gen_text, "rendered": rendered,
        }

    # -- output ------------------------------------------------------------

    def write(self) -> "WorldBuilder":
        self.questions_path = write_jsonl(self.root / "questions.jsonl", self.questions)
        self.gold_path = write_jsonl(self.root / "gold.jsonl", self.annotations)
        self.gen_path = write_jsonl(self.root / "gen_script.jsonl", self.gen_rows)
        self.reader_path = write_jsonl(self.root / "reader_script.jsonl", self.reader_rows)
        return self

    def config_args(self) -> list[str]:
        return ["--retriever.kind", "golden",
                "--retriever.gold_path", self.gold_path,
                "--reader.script_path", self.reader_path,
                "--generator.script_path", self.gen_path]

    def path(self, name: str) -> str:
        return str(self.root / name)


@pytest.fixture
def world(tmp_path: Path) -> WorldBuilder:
    return WorldBuilder(tmp_path)


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def run(*argv: str):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
