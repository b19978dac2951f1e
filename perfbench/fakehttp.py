"""In-process stand-in for a chat-completions server.

It is handed to ``HttpBackend`` through its ``session=`` argument.  Each
``post`` costs one table lookup plus a fixed real sleep, so the workload
measures ``HttpBackend`` and the pipeline around it, not this fake.  The
first attempt of a seeded set of prompts gets a 503, so the client's retry
path runs with its real backoff.  The session counts, from outside the
program, what the client did: attempts, retries, peak concurrent posts and
prompts already sent by an earlier call.
"""
from __future__ import annotations

import json
import threading
import time
from pathlib import Path


class _Response:
    __slots__ = ("status_code", "_body")

    def __init__(self, status_code: int, body: dict | None) -> None:
        self.status_code = status_code
        self._body = body

    def json(self) -> dict:
        return self._body


_UNAVAILABLE = _Response(503, None)
_UNKNOWN = _Response(400, None)


class FakeSession:
    def __init__(self, table_path: Path, service_s: float) -> None:
        self.service_s = service_s
        self._replies: dict[str, _Response] = {}
        self._fail_first: set[str] = set()
        with open(table_path, encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                body = {"choices": [{"message": {"role": "assistant", "content": row["reply"]}}]}
                self._replies[row["prompt"]] = _Response(200, body)
                if row["fail_first"]:
                    self._fail_first.add(row["prompt"])
        self._lock = threading.Lock()
        self._sent: set[str] = set()
        self._awaiting_retry: set[str] = set()
        self._in_flight = 0
        self.attempts = 0
        self.calls = 0
        self.retries = 0
        self.dup_prompts = 0
        self.unknown_prompts = 0
        self.peak_in_flight = 0
        self.service_total_s = 0.0

    def post(self, url, json=None, headers=None, timeout=None) -> _Response:
        start = time.perf_counter()
        prompt = json["messages"][0]["content"]
        with self._lock:
            self.attempts += 1
            if prompt in self._awaiting_retry:
                self._awaiting_retry.discard(prompt)
                self.retries += 1
            else:
                self.calls += 1
                if prompt in self._sent:
                    self.dup_prompts += 1
                self._sent.add(prompt)
            failing = prompt in self._fail_first
            if failing:
                self._fail_first.discard(prompt)
                self._awaiting_retry.add(prompt)
            self._in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
        response = _UNAVAILABLE if failing else self._replies.get(prompt, _UNKNOWN)
        time.sleep(self.service_s)
        with self._lock:
            self._in_flight -= 1
            if response is _UNKNOWN:
                self.unknown_prompts += 1
            self.service_total_s += time.perf_counter() - start
        return response

    def stats(self) -> dict:
        return {"attempts": self.attempts, "calls": self.calls, "retries": self.retries,
                "dup_prompts": self.dup_prompts, "unknown_prompts": self.unknown_prompts,
                "peak_in_flight": self.peak_in_flight, "service_s": self.service_total_s}
