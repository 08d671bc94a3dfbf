"""A SQLite-backed persistent mirror of the solver's LRU caches.

The in-memory caches of :class:`~repro.api.solver.Solver` die with the
process, so a service worker restarts cold and sibling workers cannot
share answers.  :class:`PersistentCache` mirrors the same three caches
(chase, containment, rewrite) to disk, keyed on the *same* canonical
fingerprints the LRU keys are built from — the fingerprints are stable
across processes by design (see :mod:`repro.api.fingerprints`), so a
fresh worker pointed at an existing database starts warm.

Layering: the LRU stays in front.  A solver probes its LRU first, then
the persistent store; a persistent hit is promoted into the LRU, and a
computed answer is written to both.  Values are pickled result objects
(the library's results are immutable-by-convention and pickle cleanly —
the process-pool executor already relies on that); a value that fails to
unpickle (version skew, truncated write) is dropped and counted as a
miss rather than surfaced as an error.

Concurrency: one connection per :class:`PersistentCache`, serialized by
a lock; cross-process sharing goes through SQLite's own WAL locking, so
several shard workers can point at one file.
"""

from __future__ import annotations

import enum
import hashlib
import pickle
import sqlite3
import threading
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.api.cache import CacheInfo
from repro.exceptions import ReproError
from repro.obs.clock import wall_time

#: Bump when the pickled value layout changes incompatibly; a store whose
#: recorded version differs is cleared on open instead of serving values
#: that would unpickle into stale shapes.
PERSISTENT_FORMAT_VERSION = 1

#: The cache namespaces a solver mirrors (one per in-memory cache).
NAMESPACES = ("containment", "chase", "rewrite")


class PersistentCacheError(ReproError):
    """The on-disk cache could not be opened or written."""


def stable_key_digest(key: Hashable) -> str:
    """Render an LRU cache key as a process-stable hex digest.

    LRU keys are nested tuples of strings (fingerprints, names), ints,
    bools, ``None``, and enums.  Python's ``hash()`` is salted per
    process, so the digest is built from an explicit canonical rendering
    instead; enums render as their value so the digest does not depend on
    the enum's repr.
    """
    digest = hashlib.sha256(_render(key).encode("utf-8"))
    return digest.hexdigest()


def _render(value: Any) -> str:
    if isinstance(value, tuple):
        return "(" + ",".join(_render(entry) for entry in value) + ")"
    if isinstance(value, enum.Enum):
        return f"e:{type(value).__name__}:{value.value!r}"
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    raise PersistentCacheError(
        f"cache key component {value!r} has no stable rendering; "
        "persistent keys must be tuples of primitives and enums")


class PersistentCache:
    """Durable (namespace, key) → pickled-value store behind the solver.

    ``path`` may be a filesystem path or ``":memory:"`` (useful in
    tests; an in-memory store is still exercised through the exact same
    code path, it just does not survive the process).

    The solver's only warm tier.  Solvers handed one object share its
    connection (a pool's thread and inline shards do); processes share
    through the file.
    """

    def __init__(self, path: str):
        self._path = str(path)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        try:
            self._connection = sqlite3.connect(
                self._path, check_same_thread=False, timeout=30.0)
        except sqlite3.Error as error:
            raise PersistentCacheError(
                f"cannot open persistent cache at {self._path!r}: {error}") from error
        self._initialize()

    # -- schema --------------------------------------------------------------

    def _initialize(self) -> None:
        with self._lock, self._connection as connection:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " namespace TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " value BLOB NOT NULL,"
                " created_at REAL NOT NULL,"
                " PRIMARY KEY (namespace, key))")
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'format_version'").fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES ('format_version', ?)",
                    (str(PERSISTENT_FORMAT_VERSION),))
            elif row[0] != str(PERSISTENT_FORMAT_VERSION):
                # Old-format values would unpickle into stale shapes;
                # dropping them is always safe (it is a cache).
                connection.execute("DELETE FROM entries")
                connection.execute(
                    "UPDATE meta SET value = ? WHERE key = 'format_version'",
                    (str(PERSISTENT_FORMAT_VERSION),))

    # -- the cache surface ---------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    def get(self, namespace: str, key: Hashable) -> Optional[Any]:
        """The stored value, or ``None`` on a miss (counters updated)."""
        digest = stable_key_digest(key)
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM entries WHERE namespace = ? AND key = ?",
                (namespace, digest)).fetchone()
            if row is None:
                self._misses += 1
                return None
            try:
                value = pickle.loads(row[0])
            except Exception:
                # A value this build cannot unpickle is dead weight;
                # evict it so the slot can be refilled.
                with self._connection:
                    self._connection.execute(
                        "DELETE FROM entries WHERE namespace = ? AND key = ?",
                        (namespace, digest))
                self._misses += 1
                return None
            self._hits += 1
            return value

    def put(self, namespace: str, key: Hashable, value: Any) -> None:
        digest = stable_key_digest(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:
            raise PersistentCacheError(
                f"cannot persist a {type(value).__name__}: {error}") from error
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO entries (namespace, key, value, created_at) "
                "VALUES (?, ?, ?, ?)",
                (namespace, digest, payload, wall_time()))
            self._writes += 1

    def sizes(self) -> Dict[str, int]:
        """Row counts per namespace (namespaces with no rows included as 0)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT namespace, COUNT(*) FROM entries GROUP BY namespace").fetchall()
        counts = {namespace: 0 for namespace in NAMESPACES}
        for namespace, count in rows:
            counts[namespace] = count
        return counts

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._connection.execute(
                "SELECT COUNT(*) FROM entries").fetchone()
        return count

    def info(self) -> CacheInfo:
        """Counters in the same shape as the in-memory caches.

        ``maxsize`` is reported as the current size — the store is
        unbounded, and :class:`CacheInfo` has no "unbounded" marker.
        """
        size = len(self)
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             size=size, maxsize=size)

    def stats(self) -> Dict[str, Any]:
        """A JSON-ready snapshot: counters, write count, per-namespace sizes."""
        info = self.info()
        return {
            "path": self._path,
            "hits": info.hits,
            "misses": info.misses,
            "writes": self._writes,
            "size": info.size,
            "hit_rate": round(info.hit_rate, 4),
            "namespaces": self.sizes(),
        }

    def clear(self) -> None:
        with self._lock, self._connection:
            self._connection.execute("DELETE FROM entries")

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "PersistentCache":
        return self

    def __exit__(self, *exc_info: Tuple) -> None:
        self.close()
