"""Local HTTP stand-ins for the headline services and a completion provider,
for offline tests.

The stubs speak just enough of each service's response shape. They do not
filter by date; serving future-dated items is deliberate, so tests can prove
the client-side cutoff guard drops them.
"""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

NYT_PAGE_SIZE = 10


class StubNewsServer:
    """Serves /hn (story search shaped) and /nyt (article search shaped)."""

    def __init__(self, hn_hits=(), nyt_docs=()):
        self.hn_hits = list(hn_hits)
        self.nyt_docs = list(nyt_docs)
        self.hn_fail_times = 0
        self.nyt_fail_times = 0
        self.fail_status = 500
        self.requests = []
        self._lock = threading.Lock()
        self._server = None
        self._thread = None

    # -- bookkeeping used by tests

    def record(self, path, params):
        with self._lock:
            self.requests.append((path, params))

    def count(self, path):
        with self._lock:
            return sum(1 for p, _ in self.requests if p == path)

    def params_for(self, path):
        with self._lock:
            return [params for p, params in self.requests if p == path]

    def take_failure(self, path):
        with self._lock:
            if path == "/hn" and self.hn_fail_times > 0:
                self.hn_fail_times -= 1
                return True
            if path == "/nyt" and self.nyt_fail_times > 0:
                self.nyt_fail_times -= 1
                return True
        return False

    # -- lifecycle

    def __enter__(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _reply(self, status, payload):
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                parsed = urlparse(self.path)
                params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                stub.record(parsed.path, params)
                if stub.take_failure(parsed.path):
                    self._reply(stub.fail_status, {"error": "injected failure"})
                    return
                if parsed.path == "/hn":
                    self._reply(200, {"hits": stub.hn_hits})
                elif parsed.path == "/nyt":
                    page = int(params.get("page", "0"))
                    start = page * NYT_PAGE_SIZE
                    docs = stub.nyt_docs[start : start + NYT_PAGE_SIZE]
                    self._reply(
                        200,
                        {"response": {"docs": docs, "meta": {"hits": len(stub.nyt_docs)}}},
                    )
                else:
                    self._reply(404, {"error": "unknown path"})

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def hn_endpoint(self):
        return f"{self.url}/hn"

    @property
    def nyt_endpoint(self):
        return f"{self.url}/nyt"


def hn_hit(title, created_at):
    return {"title": title, "created_at": created_at}


def nyt_doc(main, pub_date):
    return {"headline": {"main": main}, "pub_date": pub_date}


class StubProvider:
    """A chat/completions stand-in speaking HTTP/1.1 with keep-alive.

    Every POST gets ``status`` with a one-choice chat reply, after ``delay``
    seconds; a GET gets the same status with an empty search reply.  A
    connection that stays idle for ``idle_timeout`` seconds is closed, as a
    server's keep-alive timeout would close it.  ``connections`` counts the
    connections accepted, and ``seen`` holds each request's method, target
    and headers.
    """

    def __init__(self, *, status=200, headers=(), delay=0.0, idle_timeout=None):
        self.status = status
        self.headers = dict(headers)
        self.delay = delay
        self.idle_timeout = idle_timeout
        self.connections = 0
        self.seen = []
        self._lock = threading.Lock()
        self._server = None
        self._thread = None

    def __enter__(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = stub.idle_timeout

            def log_message(self, *args):
                pass

            def _reply(self, payload):
                with stub._lock:
                    stub.seen.append((self.command, self.path, dict(self.headers)))
                time.sleep(stub.delay)
                body = json.dumps(payload).encode("utf-8")
                self.send_response(stub.status)
                for name, value in stub.headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", "0")))
                self._reply({"choices": [{"message": {"content": "ok"}}]})

            def do_GET(self):
                self._reply({"hits": []})

            def do_CONNECT(self):
                with stub._lock:
                    stub.seen.append((self.command, self.path, dict(self.headers)))
                self.send_error(403)

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def process_request(self, request, client_address):
                with stub._lock:
                    stub.connections += 1
                super().process_request(request, client_address)

            def handle_error(self, request, client_address):
                pass  # a client that gave up on a slow reply

        self._server = Server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False

    @property
    def url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def count(self, method):
        with self._lock:
            return sum(1 for seen in self.seen if seen[0] == method)
