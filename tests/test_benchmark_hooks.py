"""The names perfbench wraps from outside the program still exist.

``perfbench/tracer.py`` and ``perfbench/worker.py`` patch library functions
and methods by name, so renaming one breaks the benchmark rather than the
program.  This installs both, in a fresh process, and drives the BM25 index
through the wrapped constructor and query.
"""
from __future__ import annotations

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
