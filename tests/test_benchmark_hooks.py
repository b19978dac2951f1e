"""The names perfbench wraps from outside the program still exist.

``perfbench/tracer.py`` and ``perfbench/worker.py`` patch library functions
and methods by name, so renaming one breaks the benchmark rather than the
program.  This installs both, in a fresh process, and drives the BM25 index
through the wrapped constructor and query, each input loader that
perfbench times through its wrapped name, and the completeness variants'
scoring through the wrapped sentence split and similarity.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import tracer, worker
from ctxtrace import backends

t = tracer.Tracer()
t.install()
worker.count_backend_calls()
index = backends.Bm25Index([("d1", "T", "apple pie"), ("d2", "T", "banana")],
                           backends.Bm25Params())
print(index.top1("apple").doc_id, sorted({span[1] for span in t.spans}))
"""


def test_perfbench_tracer_and_call_counter_install():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "d1 ['backends.bm25.build', 'backends.bm25.query']"


LOADERS_PROBE = """
import sys
from collections import Counter
from pathlib import Path

import tracer
from ctxtrace import backends

t = tracer.Tracer()
t.install()
root = Path(sys.argv[1])
reader = backends.ReaderScript.load(root / "reader.jsonl")
generation = backends.GenerationScript.load(root / "generation.jsonl")
gold = backends.KeyedRetriever.load(root / "gold.jsonl", "golden")
index = backends.Bm25Index.from_corpus_file(root / "corpus.jsonl", backends.Bm25Params())
print(reader.answer("q1", "closed_book", None), generation.text_for("q1", None),
      gold.retrieve("q1", "?").body, index.top1("apple").doc_id,
      sorted(Counter(span[1] for span in t.spans).items()))
"""


def test_perfbench_wraps_each_input_loader(tmp_path):
    files = {
        "reader.jsonl": {"question_id": "q1", "mode": "closed_book",
                         "context_fingerprint": None, "answer": "Lisbon"},
        "generation.jsonl": {"question_id": "q1", "target_words": None, "text": "Porto"},
        "gold.jsonl": {"question_id": "q1", "doc_id": "d1", "title": "T", "body": "Faro"},
        "corpus.jsonl": {"doc_id": "d1", "title": "T", "text": "apple pie"},
    }
    for name, row in files.items():
        (tmp_path / name).write_text(json.dumps(row) + "\n", encoding="utf-8")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run([sys.executable, "-c", LOADERS_PROBE, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    # The loaders keep their traced names and read through the traced iter_jsonl.
    assert done.stdout.strip() == (
        "Lisbon Porto Faro d1 [('backends.bm25.build', 1), ('backends.bm25.query', 1), "
        "('backends.script.load', 2), ('backends.script.lookup', 2), ('jsonl.iter_jsonl', 4)]")


COMPLETENESS_PROBE = """
from collections import Counter

import tracer
from ctxtrace import analysis, pipeline

t = tracer.Tracer()
t.install()


def context(source, text):
    return pipeline.Context("q1", source, "scripted", None, text, len(text.split()), None, source)


sample = pipeline.TracedSample(
    pipeline.QaExample("q1", "Where is the red tower?", ("Bologna",)),
    retrieved=context("retrieved", "The red tower stands in Bologna."),
    generated=context("generated", "The red tower is in Bologna."),
    answer_from_retrieved="Bologna", answer_from_generated="Bologna",
    closed_book=None, subset="AIG", dropped=None)
analysis.build_completeness_variants(
    sample, "The red tower is in Bologna. It leans. Pilgrims climb it each spring.")
spans = Counter(span[1] for span in t.spans)
print(spans["textnorm.split_sentences"], spans["analysis.context_similarity"])
"""


def test_perfbench_traces_the_completeness_scoring():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run([sys.executable, "-c", COMPLETENESS_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    # Each text goes through one textnorm.split_words pass, none through
    # split_sentences: nature is scored through context_similarity, and trunc
    # and strunc are cut and scored from the unconstrained generation's pass.
    assert done.stdout.strip() == "0 1"
