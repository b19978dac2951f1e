"""Span tracing of ctxtrace from outside the program.

``Tracer.install`` wraps the public functions of each module (and the
script, retriever and HTTP methods of ``backends``) so every call records a
span: id, name, parent span, start, end, and one measured argument or result
size.  Spans stay in memory until the repetition ends.  Parents follow the
calling thread; ``pipeline.map_examples`` hands its span to the pool threads
it starts, so work done on a worker thread nests under the stage that asked
for it.

Self time is wall time attributed to the innermost spans running at each
instant; when spans on two threads overlap, each gets an equal share.  So the
self times of every span inside a stage add up to exactly that stage's wall
time, with or without threads.
"""
from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from ctxtrace import analysis, backends, config, jsonl, metrics, pipeline, textnorm, validate

_keep_first = lambda args, result: args[0]  # noqa: E731
_result_len = lambda args, result: len(result)  # noqa: E731

# (module, function, span name, extra) for module-level functions.
FUNCTIONS = [
    (textnorm, "normalize_answer", "textnorm.normalize_answer", _keep_first),
    (textnorm, "contains_answer", "textnorm.contains_answer", None),
    (textnorm, "word_count", "textnorm.word_count", None),
    (textnorm, "split_sentences", "textnorm.split_sentences", None),
    (textnorm, "exact_match", "textnorm.exact_match", None),
    (backends, "context_fingerprint", "backends.fingerprint", _keep_first),
    (jsonl, "read_output_jsonl", "jsonl.read_output_jsonl", None),
    (jsonl, "read_csv", "jsonl.read_csv", lambda args, result: len(result[3]) + 1),
    (jsonl, "write_jsonl", "jsonl.write_jsonl", _keep_first),
    (jsonl, "write_csv", "jsonl.write_csv", _keep_first),
    (pipeline, "run_prepare", "pipeline.run_prepare", None),
    (pipeline, "run_trace", "pipeline.run_trace", None),
    (pipeline, "run_evaluate", "pipeline.run_evaluate", None),
    (analysis, "context_similarity", "analysis.context_similarity", None),
    (analysis, "run_order", "analysis.run_order", None),
    (analysis, "run_completeness", "analysis.run_completeness", None),
    (metrics, "build_report", "metrics.build_report", None),
    (validate, "validate_files", "validate.validate_files", _keep_first),
    (config, "load_config", "config.load_config", None),
]

# (class, method, span name, extra) for methods; classmethods stay classmethods.
METHODS = [
    (backends.ReaderScript, "load", "backends.script.load", None),
    (backends.GenerationScript, "load", "backends.script.load", None),
    (backends.ReaderScript, "answer", "backends.script.lookup", None),
    (backends.GenerationScript, "text_for", "backends.script.lookup", None),
    (backends.Bm25Index, "__init__", "backends.bm25.build", lambda args, result: len(args[1])),
    (backends.Bm25Index, "top1", "backends.bm25.query", None),
    (backends.HttpBackend, "complete", "backends.http.complete", None),
]


def _rebind(original, replacement) -> None:
    """Point every ctxtrace module global bound to *original* at *replacement*,
    so names imported with ``from .x import y`` are traced too."""
    for name, module in list(sys.modules.items()):
        if name == "ctxtrace" or name.startswith("ctxtrace."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self) -> None:
        # (id, name, parent id, start, end, extra, ok); list.append is atomic.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, name: str, fn, extra=None):
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok, result = False, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, parent, start, end,
                              extra(args, result) if ok and extra else None, ok))

        return traced

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, name, parent, start, time.perf_counter(), None, True))
            stack.pop()

    def install(self) -> None:
        for module, fname, name, extra in FUNCTIONS:
            original = getattr(module, fname)
            _rebind(original, self.wrap(name, original, extra))

        original_iter = jsonl.iter_jsonl
        read_all = self.wrap("jsonl.iter_jsonl", lambda path: list(original_iter(path)),
                             _result_len)

        def iter_jsonl(path):
            # One span for the whole parse, so the consumer's per-row work is
            # charged to the consumer, not to the reader.
            yield from read_all(path)

        _rebind(original_iter, iter_jsonl)

        original_map = pipeline.map_examples
        stack_of = self._stack

        def map_examples(fn, items, workers):
            parent = stack_of()[-1]

            def run(item):
                stack = stack_of()
                stack.append(parent)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            return original_map(run, items, workers)

        _rebind(original_map, self.wrap("pipeline.map_examples", map_examples))

        for cls, mname, name, extra in METHODS:
            raw = cls.__dict__[mname]
            if isinstance(raw, classmethod):
                setattr(cls, mname, classmethod(self.wrap(name, raw.__func__, extra)))
            else:
                setattr(cls, mname, self.wrap(name, raw, extra))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, _, ok in self.spans:
                fh.write(json.dumps([sid, name, parent, start, end, ok]) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Wall time attributed to each span by a sweep over span boundaries.

    At every instant the running spans with no running child share the
    elapsed time equally; ties in time order starts by id (parents first)
    and ends by reverse id (children first).
    """
    parent_of = {s[0]: s[2] for s in spans}
    events = []
    for sid, _, _, start, end, _, _ in spans:
        events.append((start, 1, sid))
        events.append((end, 0, -sid))
    events.sort()
    running_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: set[int] = set()
    owned: dict[int, float] = defaultdict(float)
    last = events[0][0] if events else 0.0
    for when, kind, key in events:
        if leaves and when > last:
            share = (when - last) / len(leaves)
            for sid in leaves:
                owned[sid] += share
        last = when
        sid = key if kind else -key
        parent = parent_of[sid]
        if kind:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                running_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                running_children[parent] -= 1
                if not running_children[parent]:
                    leaves.add(parent)
    return owned


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _data_rows(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    return lines - (2 if path.endswith(".csv") else 1)


def layer_metrics(spans: list[tuple], http: dict, stage_names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition, plus self-time problems."""
    owned = self_times(spans)
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def calls(name: str) -> int:
        return len(by_name[name])

    def own(*names: str) -> float:
        return sum(owned[s[0]] for n in names for s in by_name[n])

    def durations(name: str) -> list[float]:
        return [s[4] - s[3] for s in by_name[name]]

    normalize_inputs = [s[5] for s in by_name["textnorm.normalize_answer"] if s[6]]
    fingerprint_inputs = [s[5] for s in by_name["backends.fingerprint"] if s[6]]
    build_s = sum(durations("backends.bm25.build"))
    build_docs = sum(s[5] for s in by_name["backends.bm25.build"] if s[6])
    query_ms = [d * 1000 for d in durations("backends.bm25.query")]
    call_ms = [d * 1000 for d in durations("backends.http.complete")]
    validate_s = sum(durations("validate.validate_files"))
    validated_rows = sum(_data_rows(p) for s in by_name["validate.validate_files"] if s[6]
                         for p in s[5])
    written = sum(os.path.getsize(s[5]) for n in ("jsonl.write_jsonl", "jsonl.write_csv")
                  for s in by_name[n] if s[6])
    rows_read = sum(s[5] for n in ("jsonl.iter_jsonl", "jsonl.read_csv")
                    for s in by_name[n] if s[6])
    http_calls = http.get("calls", 0)

    out = {
        "textnorm.normalize_answer.calls": calls("textnorm.normalize_answer"),
        "textnorm.normalize_answer.self_s": own("textnorm.normalize_answer"),
        "textnorm.normalize_answer.chars": sum(len(t) for t in normalize_inputs),
        "textnorm.normalize_answer.distinct_frac":
            len(set(normalize_inputs)) / len(normalize_inputs) if normalize_inputs else 0.0,
        "textnorm.contains_answer.calls": calls("textnorm.contains_answer"),
        "textnorm.contains_answer.self_s": own("textnorm.contains_answer"),
        "textnorm.word_count.calls": calls("textnorm.word_count"),
        "textnorm.word_count.self_s": own("textnorm.word_count"),
        "textnorm.split_sentences.calls": calls("textnorm.split_sentences"),
        "textnorm.split_sentences.self_s": own("textnorm.split_sentences"),
        "textnorm.exact_match.calls": calls("textnorm.exact_match"),
        "backends.fingerprint.calls": calls("backends.fingerprint"),
        "backends.fingerprint.self_s": own("backends.fingerprint"),
        "backends.fingerprint.bytes": sum(len(t.encode("utf-8")) for t in fingerprint_inputs),
        "backends.script.lookups": calls("backends.script.lookup"),
        "backends.script.load_s": sum(durations("backends.script.load")),
        "backends.bm25.build_s": build_s,
        "backends.bm25.docs_per_s": build_docs / build_s if build_s else 0.0,
        "backends.bm25.query.calls": calls("backends.bm25.query"),
        "backends.bm25.query_p50_ms": percentile(query_ms, 50),
        "backends.bm25.query_p99_ms": percentile(query_ms, 99),
        "backends.http.calls": http_calls,
        "backends.http.attempts": http.get("attempts", 0),
        "backends.http.retries": http.get("retries", 0),
        "backends.http.failures": sum(1 for s in by_name["backends.http.complete"] if not s[6]),
        "backends.http.call_p50_ms": percentile(call_ms, 50),
        "backends.http.call_p99_ms": percentile(call_ms, 99),
        "backends.http.gate_wait_s":
            sum(call_ms) / 1000 - http.get("service_s", 0.0) if call_ms else 0.0,
        "backends.http.peak_in_flight": http.get("peak_in_flight", 0),
        "backends.http.dup_prompt_frac":
            http.get("dup_prompts", 0) / http_calls if http_calls else 0.0,
        "jsonl.write_s": own("jsonl.write_jsonl", "jsonl.write_csv"),
        "jsonl.read_s": own("jsonl.iter_jsonl", "jsonl.read_output_jsonl", "jsonl.read_csv"),
        "jsonl.bytes_written": written,
        "jsonl.rows_read": rows_read,
        "pipeline.run_prepare.self_s": own("pipeline.run_prepare"),
        "pipeline.run_trace.self_s": own("pipeline.run_trace"),
        "pipeline.run_evaluate.self_s": own("pipeline.run_evaluate"),
        "analysis.context_similarity.calls": calls("analysis.context_similarity"),
        "analysis.context_similarity.self_s": own("analysis.context_similarity"),
        "analysis.run_order.self_s": own("analysis.run_order"),
        "analysis.run_completeness.self_s": own("analysis.run_completeness"),
        "metrics.build_report.self_s": own("metrics.build_report"),
        "validate.validate_files.self_s": own("validate.validate_files"),
        "validate.rows_per_s": validated_rows / validate_s if validate_s else 0.0,
        "config.load_config.s": sum(durations("config.load_config")),
    }

    # Self times inside each stage must add up to no more than its wall time.
    children: dict[int, list[int]] = defaultdict(list)
    for span in spans:
        children[span[2]].append(span[0])
    problems = []
    for span in spans:
        if span[1] not in stage_names:
            continue
        total, todo = 0.0, [span[0]]
        while todo:
            sid = todo.pop()
            total += owned[sid]
            todo.extend(children[sid])
        wall = span[4] - span[3]
        if total > wall * (1 + 1e-6) + 1e-6:
            problems.append(f"{span[1]}: self times add up to {total:.6f}s "
                            f"over a wall time of {wall:.6f}s")
    return out, problems
