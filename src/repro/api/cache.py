"""Concurrency and eviction primitives behind the :class:`~repro.api.Session`.

Two small, independently-testable pieces:

* :class:`KeyedLocks` — a registry of per-cache-key build locks.  Holding a
  key serialises work on *that key only*: two different scenarios build
  their artefacts concurrently, while two identical requests coalesce onto
  one build (the second holder finds the first holder's value in the cache).
  Entries are reference counted and removed when the last holder releases,
  so the registry never grows beyond the number of in-flight keys.

* :class:`WeightedLRU` — an ordered map bounded by *total weight* as well as
  entry count.  A synthesis fixpoint over a 93k-state space and a 200-byte
  :class:`~repro.api.results.CheckResult` no longer cost the same cache
  slot: every entry carries an estimated byte weight
  (:func:`estimate_weight`), and eviction pops least-recently-used entries
  until both bounds hold.  Keys named in ``pinned`` — the session passes the
  keys currently held in its :class:`KeyedLocks` registry — are never
  evicted, so an artefact a concurrent build (or a coalescing waiter) is
  about to read cannot be dropped out from under it.

Weights are *estimates*, calibrated against pickled sizes of real artefacts
(the floodset n=3 t=1 space pickles at ~122 bytes/state; live CPython
objects with their cached bitmasks run a few times larger).  The model only
has to rank artefact classes sensibly — spaces and synthesis fixpoints scale
with the state count, typed results with their wire size — for eviction
pressure to land on the heavy entries first.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Tuple

#: Default total-weight budget for a session cache (bytes).
DEFAULT_MAX_WEIGHT_BYTES = 256 * 1024 * 1024

#: Estimated live bytes per reachable global state (tuple-of-tuples state,
#: successor slots, amortised share of the cached observation/atom masks).
BYTES_PER_STATE = 512

#: Base weight per artefact class, independent of state count.
_BASE_WEIGHT: Dict[str, int] = {
    "model": 4 * 1024,
    "space": 16 * 1024,
    "checker": 32 * 1024,  # satisfaction memo tables grow with use
    "spec": 8 * 1024,
    "synthesis": 64 * 1024,  # condition tables, rule and space reference
    "result": 1 * 1024,
}


def _num_states_of(value: object) -> int:
    """The state count behind an artefact, probing ``.space`` indirection."""
    probe = getattr(value, "space", value)
    num_states = getattr(probe, "num_states", None)
    if not callable(num_states):
        return 0
    try:
        return int(num_states())
    except Exception:  # pragma: no cover - defensive: weigh by base only
        return 0


def estimate_weight(key: Tuple, value: object) -> int:
    """Estimated resident bytes of one cached artefact.

    ``key[0]`` names the artefact class (the session's cache-key
    convention); state-bearing artefacts add :data:`BYTES_PER_STATE` per
    reachable state, and typed results add twice their JSON wire size (the
    dict-of-fields form is heavier than the serialised text).
    """
    kind = key[0] if isinstance(key, tuple) and key else "result"
    weight = _BASE_WEIGHT.get(kind, 1024)
    states = _num_states_of(value)
    if states:
        weight += BYTES_PER_STATE * states
    if kind == "result":
        to_json = getattr(value, "to_json", None)
        if callable(to_json):
            try:
                weight += 2 * len(json.dumps(to_json()))
            except (TypeError, ValueError):  # pragma: no cover - defensive
                pass
    return weight


class KeyedLocks:
    """A reference-counted registry of per-key mutexes.

    ``holding(key)`` acquires the key's lock for the duration of a ``with``
    block; the entry is created on first use and dropped when the last
    holder (or waiter) releases, so idle keys cost nothing.
    ``active_keys()`` snapshots the keys currently held *or waited on* —
    exactly the set a cache must not evict, because a waiter that coalesces
    onto a finished build is about to read that key's entry.
    """

    def __init__(self) -> None:
        self._registry_lock = threading.Lock()
        # key -> [lock, refcount]
        self._entries: Dict[object, List] = {}  # guarded by: _registry_lock

    @contextmanager
    def holding(self, key: object) -> Iterator[None]:
        with self._registry_lock:
            entry = self._entries.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        entry[0].acquire()
        try:
            yield
        finally:
            entry[0].release()
            with self._registry_lock:
                entry[1] -= 1
                if entry[1] <= 0:
                    self._entries.pop(key, None)

    def active_keys(self) -> frozenset:
        """The keys currently held or waited on (never safe to evict)."""
        with self._registry_lock:
            return frozenset(self._entries)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._entries)


class WeightedLRU:
    """An insertion-ordered map bounded by entry count *and* total weight.

    Not thread-safe on its own — the session serialises access behind its
    cache lock.  ``put`` returns the evicted ``(key, value)`` pairs so
    callers can count or log them; eviction scans from the least recently
    used end, skipping ``pinned`` keys and the key just inserted.  If every
    candidate is pinned the cache is left temporarily over budget rather
    than dropping an entry a concurrent build still needs.
    """

    def __init__(self, max_entries: int, max_weight: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_weight < 1:
            raise ValueError(f"max_weight must be >= 1, got {max_weight}")
        self.max_entries = max_entries
        self.max_weight = max_weight
        # The guard is external: Session owns the lock, so the declaration
        # below is documentation (LOCK01 only enforces locks the class
        # itself holds; see the class docstring).
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()  # guarded by: Session._lock
        self.total_weight = 0  # guarded by: Session._lock

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def keys(self) -> List[object]:
        """Keys in eviction order (least recently used first)."""
        return list(self._entries)

    def get(self, key: object) -> object:
        """The value for ``key`` (marked most recently used); ``KeyError`` if absent."""
        value, _ = self._entries[key]
        self._entries.move_to_end(key)
        return value

    def pop(self, key: object) -> object:
        """Remove and return ``key``'s value; ``KeyError`` if absent."""
        value, weight = self._entries.pop(key)
        self.total_weight -= weight
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.total_weight = 0

    def put(
        self, key: object, value: object, weight: int,
        pinned: Iterable[object] = (),
    ) -> List[Tuple[object, object]]:
        """Insert (or replace) an entry and evict until both bounds hold.

        Returns the evicted ``(key, value)`` pairs, oldest first.
        """
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        if key in self._entries:
            _, old_weight = self._entries.pop(key)
            self.total_weight -= old_weight
        self._entries[key] = (value, weight)
        self.total_weight += weight
        pinned = frozenset(pinned)
        evicted: List[Tuple[object, object]] = []
        while len(self._entries) > self.max_entries or self.total_weight > self.max_weight:
            victim = next(
                (candidate for candidate in self._entries
                 if candidate != key and candidate not in pinned),
                None,
            )
            if victim is None:
                break  # everything left is pinned: stay over budget for now
            evicted.append((victim, self.pop(victim)))
        return evicted
