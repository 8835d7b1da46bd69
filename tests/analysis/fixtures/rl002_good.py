# repro-lint test fixture: RL002 negatives.  Parsed only, never run.
import threading


class DisciplinedRegistry:
    """Every post-init write of guarded state happens under the lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._epoch = 0

    def inc(self, name):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1
            self._epoch += 1

    def snapshot(self):
        with self._lock:
            return dict(self._counters)

    def total(self):
        # lock-free reads, method calls included, are not writes
        return len(self._counters) + self._counters.get("merged", 0)

    def drain(self):
        with self._lock:
            self._counters.clear()


class Lockless:
    """No lock owned: single-threaded state is out of scope."""

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1
