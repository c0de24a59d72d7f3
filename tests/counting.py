"""A completion backend that counts the requests it passes on."""

import threading


class Counting:
    """Passes each request on to ``backend`` and counts it, exactly across
    threads; ``backend``'s answer or error is returned or raised unchanged."""

    def __init__(self, backend):
        self.backend = backend
        self.backend_id = backend.backend_id
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        return self.backend.complete(request)
