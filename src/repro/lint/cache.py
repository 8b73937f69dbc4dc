"""Incremental analysis cache for the lint engine.

Keyed three ways, so a stale result can never surface:

* the **analyzer digest** — a hash of every source file in the
  ``repro.lint`` package.  Any change to the analyzer itself (a rule
  tweak, a typeinfer fix) discards the whole cache;
* the **content hash** of each analyzed module — an edited file is
  re-analyzed;
* the **import graph** — an unchanged module whose (transitive) project
  dependency changed is *invalidated* too, so interprocedural facts
  that flowed into its analysis can never go stale.

The cached payload per module is phase 1's complete output (raw
findings, suppression list, module summary), which means a fully warm
run re-does only phase 2 — and phase 2 is a pure function of the
summaries, so warm and cold runs are bit-identical by construction.

Cache corruption (truncated file, pickle drift across Python versions)
degrades to a cold start, never to an error.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .._hashing import sha256
from .summaries import module_name_for_path

__all__ = ["LintCache", "analyzer_digest", "content_hash"]

CACHE_VERSION = 1


def content_hash(source: str) -> str:
    """Stable content address of one module's source text."""
    return sha256(source.encode("utf-8")).hexdigest()


_ANALYZER_DIGEST: str | None = None


def analyzer_digest() -> str:
    """Hash of the ``repro.lint`` package sources (cache master key)."""
    global _ANALYZER_DIGEST
    if _ANALYZER_DIGEST is None:
        package_dir = Path(__file__).resolve().parent
        hasher = sha256()
        for path in sorted(package_dir.rglob("*.py")):
            hasher.update(path.relative_to(package_dir).as_posix().encode())
            hasher.update(b"\x00")
            hasher.update(path.read_bytes())
        # the memoized IO is the *point*: the analyzer's own sources
        # are immutable within one process, so reading them once and
        # caching the digest is deterministic for the process lifetime
        _ANALYZER_DIGEST = hasher.hexdigest()  # repro: noqa[REP011]
    return _ANALYZER_DIGEST


@dataclass
class _Entry:
    sha: str
    #: absolute module names the module imports (from its summary)
    imports: tuple[str, ...]
    #: phase 1's full output for the module (engine-defined, picklable)
    payload: Any


class LintCache:
    """Load/validate/update the on-disk cache for one lint run."""

    def __init__(self, path: Path, config_key: str = "") -> None:
        self.path = path
        #: rule-selection fingerprint: cached findings depend on which
        #: rules ran, so a selection change is a cold start too
        self.config_key = config_key
        self._entries: dict[str, _Entry] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                data = pickle.load(fh)
            if (
                isinstance(data, dict)
                and data.get("version") == CACHE_VERSION
                and data.get("analyzer") == analyzer_digest()
                and data.get("config") == self.config_key
            ):
                self._entries = data["entries"]
        except FileNotFoundError:
            pass
        except Exception:
            # corrupt/foreign cache: cold start, never an error
            self._entries = {}

    # -- validation -----------------------------------------------------------

    def partition(
        self, hashes: dict[str, str]
    ) -> tuple[set[str], set[str]]:
        """Split the current file set into ``(valid, invalidated)`` paths.

        ``hashes`` maps every repo-relative path in this run to its
        content hash.  A path is *valid* when its own hash matches the
        cached entry **and** every project module it imports is valid —
        the transitive-invalidation fixpoint.  *Invalidated* paths are
        the interesting diagnostic: their own content is unchanged but
        a dependency's change forces re-analysis.  Paths absent from
        the cache (or edited) are in neither set.
        """
        module_to_path = {
            module_name_for_path(path)[0]: path for path in hashes
        }
        memo: dict[str, bool] = {}

        def valid(path: str, stack: frozenset[str]) -> bool:
            if path in memo:
                return memo[path]
            if path in stack:
                return True  # import cycle of unchanged files is fine
            entry = self._entries.get(path)
            if entry is None or entry.sha != hashes.get(path):
                memo[path] = False
                return False
            deeper = stack | {path}
            for module in entry.imports:
                dep_path = module_to_path.get(module)
                if dep_path is not None and dep_path != path:
                    if not valid(dep_path, deeper):
                        memo[path] = False
                        return False
            memo[path] = True
            return True

        valid_paths: set[str] = set()
        invalidated: set[str] = set()
        for path in hashes:
            if valid(path, frozenset()):
                valid_paths.add(path)
            elif (
                path in self._entries
                and self._entries[path].sha == hashes[path]
            ):
                invalidated.add(path)
        return valid_paths, invalidated

    # -- access ----------------------------------------------------------------

    def payload(self, path: str) -> Any:
        return self._entries[path].payload

    def store(
        self, path: str, sha: str, imports: tuple[str, ...], payload: Any
    ) -> None:
        self._entries[path] = _Entry(sha=sha, imports=imports, payload=payload)

    def prune(self, keep: set[str]) -> None:
        """Drop entries for files no longer in the analyzed set."""
        for path in list(self._entries):
            if path not in keep:
                del self._entries[path]

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "version": CACHE_VERSION,
            "analyzer": analyzer_digest(),
            "config": self.config_key,
            "entries": self._entries,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(self.path)
