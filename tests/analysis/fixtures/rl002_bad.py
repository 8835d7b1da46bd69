# repro-lint test fixture: RL002 positives.  Parsed only, never run.
import threading


class LeakyRegistry:
    """Writes self._counters both under and outside its lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}  # init writes are exempt

    def inc(self, name):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1

    def reset(self):
        self._counters = {}  # line 17: unguarded write -> finding

    def merge(self, other):
        self._counters.update(other)  # line 20: in-place call -> finding
        with self._lock:
            self._counters["merged"] = 1
