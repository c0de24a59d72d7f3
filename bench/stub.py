"""Stub completion provider and headline services, run as their own process.

Serves, on one local port:

- ``POST /v1/chat/completions``: chat/completions-shaped replies after a fixed
  delay. Reply shapes follow ``tests/fixtures/mock.rules``, but the text comes
  from the event's ``ref-<hex>`` token, so no two events share a prompt or a
  reply. Every reply to a repeated prompt also carries a note that differs
  per sample, as a sampling model's would: the 8 samples of a request and
  the prompts built from them stay distinct, so a cache cannot fold them
  together. The note has a fixed width, so traces keep the same size from
  round to round. Prediction replies carry a percentage given by
  :func:`stub_percent`, whatever the note; extraction prompts get the bare
  number.
- ``GET /hn`` and ``GET /nyt``: story and article search shaped results.
- ``GET /stats``: the number of POSTs and GETs served so far.

Run ``python3 bench/stub.py --delay-ms 5``; it prints ``PORT <n>`` once it
listens and serves until terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

_TOKEN = re.compile(r"ref-([0-9a-f]{10})")
_ESTIMATE = re.compile(r"my estimate is (\d+)%")
_JOBS = (
    "a policy analyst", "a supply chain economist", "an epidemiologist",
    "a regulatory lawyer", "an aerospace engineer", "a central bank economist",
    "a technology journalist", "a public health official",
)
_WORDS = (
    "regulators", "earnings", "launch", "approval", "inflation", "merger",
    "vaccine", "satellite", "tariffs", "elections", "outage", "guidance",
)


def _hash(text: str) -> int:
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def stub_percent(token: str, strategy: str) -> int:
    """The percentage the stub answers for ``strategy``'s prediction on an event."""
    return 2 + _hash(f"{token}:{strategy}") % 97


def _token(prompt: str) -> str:
    found = _TOKEN.findall(prompt)
    return found[-1] if found else "0000000000"


def _word(token: str, kind: str) -> str:
    # keyed on the event and the reply kind only, so a reply's length does not
    # depend on the notes that earlier replies put into its prompt
    return _WORDS[_hash(f"{token}:{kind}") % len(_WORDS)]


def _headline_lines(prompt: str) -> list[str]:
    return [line for line in prompt.splitlines() if line.startswith("Headline ")]


def reply_for(prompt: str, sample: int) -> str:
    """The completion text for the ``sample``-th call with ``prompt``; first matching rule wins."""
    token = _token(prompt)
    note = f"{_hash(f'{sample}:{prompt}') % 16**8:08x}"
    if "emit only the final probability value" in prompt:
        found = _ESTIMATE.findall(prompt)
        return f"{int(found[-1]) / 100:.2f}" if found else "NONE"
    if "primary entities involved in this event" in prompt:
        # the search terms become news queries: keep them fixed per event
        return f"*ref-{token}\n*{_word(token, 'keywords')}\n*{_word(token, 'entity')}"
    if "remove any which are totally irrelevant" in prompt:
        return "\n".join(_headline_lines(prompt)[:2]) or "NONE"
    if "pull all information from the headlines" in prompt:
        return f"2022-07-18: {_word(token, 'nyt')} reported in connection with case ref-{token} (note {note})"
    if "paraphrase each one as it relates" in prompt:
        return f"2022-07-18: reports on {_word(token, 'paraphrase')} bear on case ref-{token} (note {note})"
    if "cause an event to happen" in prompt:
        return (
            "[PATH TO POSITIVE OUTCOME]\n"
            f"1. Progress on {_word(token, 'positive')} accelerates for case ref-{token} (note {note})\n"
            "2. The remaining obstacles clear before the deadline\n"
            "OUTCOME ACHIEVED: the condition is met\nEND"
        )
    if "[EVENT OPPOSITE]" in prompt:
        return (
            f"1. Delays in {_word(token, 'negative')} persist for case ref-{token} (note {note})\n"
            "OUTCOME NOT ACHIEVED: the condition is not met\nEND"
        )
    if "[OPPOSITE]" in prompt:
        return f"[OPPOSITE] The condition of case ref-{token} is not met (note {note})\n[END]"
    if "You must ask an expert" in prompt:
        return f"{_JOBS[_hash(token) % len(_JOBS)]} at desk {note}"
    if "Using your expertise, you will make a prediction" in prompt:
        percent = stub_percent(token, "crowd")
        return (
            f"As a specialist on {_word(token, 'crowd')} (note {note}), the chance it ever happens "
            f"is 0.9. Within the window for case ref-{token}, my estimate is {percent}%"
        )
    for marker, strategy in (
        ("Here are a number sequences", "sequences"),
        ("Based on all the information available to you", "news"),
        ("Predict the likelihood of the following event", "basic"),
    ):
        if marker in prompt:
            return (f"Weighing {_word(token, strategy)} for case ref-{token} (note {note}), "
                    f"my estimate is {stub_percent(token, strategy)}%.")
    return "No comment."


def _hn_hits(query: str) -> list[dict]:
    base = _hash(query)
    hits = [
        {"title": f"{_WORDS[(base + i) % len(_WORDS)]} update {i} on {query}",
         "created_at": f"2022-07-{10 + i:02d}T12:00:00Z"}
        for i in range(4)
    ]
    # one item after every prediction date: the client's cutoff must drop it
    hits.append({"title": f"late story on {query}", "created_at": "2022-12-30T12:00:00Z"})
    return hits


def _nyt_docs(query: str) -> list[dict]:
    base = _hash(query)
    return [
        {"headline": {"main": f"{_WORDS[(base + i) % len(_WORDS)]} coverage {i}: {query}"},
         "pub_date": f"2022-07-{20 + i:02d}T08:00:00+0000"}
        for i in range(3)
    ]


class _Counts:
    def __init__(self):
        self.posts = 0
        self.gets = 0
        self.samples: dict[str, int] = {}  # prompt digest -> samples answered
        self.lock = threading.Lock()

    def next_samples(self, prompt: str, n: int) -> range:
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self.lock:
            first = self.samples.get(key, 0)
            self.samples[key] = first + n
        return range(first, first + n)


def make_server(delay: float) -> ThreadingHTTPServer:
    counts = _Counts()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Nagle's algorithm plus delayed ACK adds about 40 ms to each
        # keep-alive round trip; the provider stub must not.
        disable_nagle_algorithm = True
        timeout = 60

        def log_message(self, *args):
            pass

        def _reply(self, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            with counts.lock:
                counts.posts += 1
            time.sleep(delay)
            prompt = payload["messages"][0]["content"]
            choices = [{"index": i, "message": {"role": "assistant", "content": reply_for(prompt, sample)}}
                       for i, sample in enumerate(counts.next_samples(prompt, payload.get("n", 1)))]
            self._reply({"choices": choices})

        def do_GET(self):
            parsed = urlparse(self.path)
            params = {key: values[0] for key, values in parse_qs(parsed.query).items()}
            if parsed.path == "/stats":
                with counts.lock:
                    self._reply({"posts": counts.posts, "gets": counts.gets})
                return
            with counts.lock:
                counts.gets += 1
            time.sleep(delay)
            if parsed.path == "/hn":
                self._reply({"hits": _hn_hits(params.get("query", ""))})
            else:
                docs = _nyt_docs(params.get("q", "")) if params.get("page", "0") == "0" else []
                self._reply({"response": {"docs": docs}})

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def _exit_with_parent(server: ThreadingHTTPServer) -> None:
    """Stop serving once the process that started the stub is gone."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(1.0)
    server.shutdown()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=5.0)
    args = parser.parse_args()
    server = make_server(args.delay_ms / 1000.0)
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    threading.Thread(target=_exit_with_parent, args=(server,), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
