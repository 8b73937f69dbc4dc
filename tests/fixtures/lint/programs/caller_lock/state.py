# lint-fixture-path: src/repro/service/state.py
# lint-expect: REP006@10 REP006@36
import threading

_LOCK = threading.Lock()
_STATE = {}


def bump(key):
    _STATE[key] = _STATE.get(key, 0) + 1


def locked_bump(key):
    with _LOCK:
        bump(key)


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}
        self._misses = {}

    def put(self, key, value):
        with self._lock:
            self._insert(key, value)

    def _insert(self, key, value):
        # clean: the only caller chain (put) holds the lock
        self._entries[key] = value

    def tally(self, key):
        self._count(key)

    def _count(self, key):
        self._misses[key] = self._misses.get(key, 0) + 1
