"""The persistent on-disk artefact store behind warm-starting sessions.

A store directory is a content-addressed map from query identity to
versioned result JSON, shared safely between processes:

* **Key schema.**  A result's identity is the triple ``(op,
  Scenario.canonical_json(), results schema version)``.  The identity is
  serialised to canonical JSON and hashed (SHA-256) into the file name;
  the identity is *also* stored inside the record and checked on read, so
  a renamed or colliding file can never answer the wrong query.

* **Crash consistency.**  Writes go to a temporary file in the store
  directory and are published with ``os.replace`` — readers see either the
  old record or the complete new one, never a torn write.  A file that
  fails to parse, carries the wrong format/schema version, or does not
  match its own key is **quarantined**: moved (atomically) into
  ``quarantine/`` with a warning, counted, and treated as a miss — a
  corrupt store degrades to cold queries, it never takes the service down.

* **Durability is best-effort.**  A failed write (``ENOSPC``, permissions,
  a vanished directory) is counted and logged; the query that triggered it
  still answers from the freshly built artefact.

* **The store is bounded.**  With ``max_bytes``/``max_entries`` set, a
  compaction pass (:meth:`ArtefactStore.compact`) drops the least recently
  used entries — recency is file mtime, refreshed on every hit — until the
  live entries fit the bounds again, and the store runs that pass itself
  every ``compact_interval`` writes.
  Compaction is safe under concurrent readers *in any process*: removal is
  a plain ``unlink``, and a reader that loses the race simply sees a miss —
  the same degraded path a crash or quarantine already exercises.  ``repro
  store stats|compact`` runs the scan/pass from the command line.

* **Only JSON is read.**  Typed results are plain JSON.  Store directories
  written by older builds may also hold pickled spaces under
  ``artefacts/``; they count towards the bounds and compaction evicts them,
  but nothing ever reads them, because unpickling runs code.

``repro serve --store DIR`` points the serving session here, so a restarted
or second server process answers repeated queries from the store tier
without rebuilding anything.

Each store counts its events in its own metrics registry
(``ArtefactStore.metrics``, the ``repro_store_events_total`` series);
:meth:`ArtefactStore.stats` is a view over those series.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api.results import SCHEMA_VERSION
from repro.obs import metrics as obs_metrics

logger = logging.getLogger(__name__)

#: Version of the on-disk record layout (wrapper shape, directory scheme).
#: Bump when the wrapper changes; readers quarantine anything else.
STORE_FORMAT_VERSION = 1

_RESULTS_DIR = "results"
#: Where older builds wrote pickled spaces; counted and compacted, never read.
_ARTEFACTS_DIR = "artefacts"
_QUARANTINE_DIR = "quarantine"

#: Subdirectories whose entries count towards the size/entry bounds.
_BOUNDED_DIRS = (_RESULTS_DIR, _ARTEFACTS_DIR)

#: Stray ``.tmp`` files (crashed writers) older than this are removed
#: during compaction.
_STALE_TMP_SECONDS = 3600.0

#: The store's events, in the order :meth:`ArtefactStore.stats` lists them.
_EVENTS = ("hits", "misses", "writes", "write_errors", "quarantined",
           "compactions", "compacted")


class ArtefactStore:
    """A process-shared, crash-consistent store of serialised artefacts.

    ``max_bytes``/``max_entries`` bound the live entries (see module docs);
    ``compact_interval`` is how many successful writes may land between the
    store's own compaction passes when a bound is configured.
    """

    def __init__(
        self,
        root,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        compact_interval: int = 64,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if compact_interval < 1:
            raise ValueError(
                f"compact_interval must be >= 1, got {compact_interval}"
            )
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._compact_interval = compact_interval
        self._writes_since_compact = 0
        self._compact_lock = threading.Lock()
        self._lock = threading.Lock()
        self.metrics = obs_metrics.MetricsRegistry()
        self._m_events = self.metrics.counter(
            "repro_store_events_total",
            f"Persistent artefact-store events ({', '.join(_EVENTS)})",
        )
        for subdir in (_RESULTS_DIR, _QUARANTINE_DIR):
            (self.root / subdir).mkdir(parents=True, exist_ok=True)
        if self.max_bytes is not None or self.max_entries is not None:
            # A restarted process trims an over-bound directory immediately
            # instead of waiting out the first compact_interval writes.
            self.compact()

    # ---------------------------------------------------------------- keying

    @staticmethod
    def result_identity(op: str, scenario_key: str) -> str:
        """The canonical identity string of one result entry.

        ``scenario_key`` is :meth:`Scenario.canonical_json` output; the
        results schema version is part of the identity, so a schema bump
        starts a disjoint namespace instead of serving stale shapes.
        """
        return json.dumps(
            {"op": op, "scenario": scenario_key, "schema_version": SCHEMA_VERSION},
            sort_keys=True, separators=(",", ":"),
        )

    def result_path(self, op: str, scenario_key: str) -> Path:
        """Where the record for ``(op, scenario)`` lives (exists or not)."""
        identity = self.result_identity(op, scenario_key)
        digest = hashlib.sha256(identity.encode()).hexdigest()
        return self.root / _RESULTS_DIR / f"{digest}.json"

    # ------------------------------------------------------------- plumbing

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime so compaction sees it as recently used."""
        try:
            os.utime(str(path))
        except OSError:  # raced with an unlink; the read already succeeded
            pass

    def stats(self) -> Dict[str, int]:
        """A fresh snapshot of the store counters (safe to hand out)."""
        totals = self._m_events.totals("event")
        return {event: totals.get(event, 0) for event in _EVENTS}

    def _atomic_write(self, path: Path, data: bytes) -> bool:
        """Publish ``data`` at ``path`` via write-to-temp + rename.

        Returns False (and counts ``write_errors``) on any OS failure —
        a full disk must degrade durability, not break the query.
        """
        fd = None
        tmp_name = None
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
            )
            os.write(fd, data)
            os.close(fd)
            fd = None
            os.replace(tmp_name, str(path))
            tmp_name = None
            self._m_events.inc(event="writes")
            self._maybe_compact()
            return True
        except OSError as exc:
            reason = errno.errorcode.get(exc.errno, exc.errno) if exc.errno else exc
            logger.warning("artefact store: write of %s failed (%s); "
                           "continuing without persisting", path.name, reason)
            self._m_events.inc(event="write_errors")
            return False
        finally:
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed/invalid
                    pass
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass

    def quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside (atomically, without clobbering) and log why.

        The moved file keeps its name under ``quarantine/`` (a numeric
        suffix separates generations), so an operator can inspect what went
        wrong; the live directory is clean again and the next query simply
        rebuilds.  The claim on a quarantine name is an **exclusive-create
        hard link**: ``os.link`` fails with ``EEXIST`` instead of silently
        replacing, so two processes quarantining concurrently — or a new
        corrupt generation racing an old one — can never overwrite a
        quarantined file, unlike the probe-then-``os.replace`` dance this
        replaces (the probe was stale by the time the replace ran).
        """
        quarantine_root = self.root / _QUARANTINE_DIR
        target = quarantine_root / path.name
        attempt = 0
        linked = False
        while True:
            try:
                os.link(str(path), str(target))
                linked = True
                break
            except FileExistsError:
                attempt += 1
                if attempt > 1000:
                    break
                target = quarantine_root / f"{path.name}.{attempt}"
            except FileNotFoundError:
                break  # a racing process quarantined (or removed) it first
            except OSError:
                # Filesystem without hard links: fall back to a rename onto
                # a per-process-unique name, which no other process can be
                # targeting, so it still cannot clobber a sibling's work.
                target = quarantine_root / (
                    f"{path.name}.pid{os.getpid()}.{attempt}"
                )
                try:
                    os.replace(str(path), str(target))
                    linked = True
                except OSError:
                    pass
                break
        if linked:
            try:
                os.unlink(str(path))
            except OSError:  # raced: the link is what mattered
                pass
        self._m_events.inc(event="quarantined")
        logger.warning(
            "artefact store: quarantined %s (%s)", path.name, reason
        )

    # ------------------------------------------------------------- lifecycle

    def _bounded_entries(self) -> List[Tuple[float, int, Path]]:
        """Live ``(mtime, size, path)`` entries, sweeping stale tmp files."""
        now = time.time()
        entries: List[Tuple[float, int, Path]] = []
        for subdir in _BOUNDED_DIRS:
            try:
                listing = list(os.scandir(self.root / subdir))
            except OSError:
                continue
            for item in listing:
                try:
                    stat = item.stat()
                    if not item.is_file():
                        continue
                    if item.name.endswith(".tmp"):
                        # A crashed writer's leavings; sweep once stale.
                        if now - stat.st_mtime > _STALE_TMP_SECONDS:
                            os.unlink(item.path)
                        continue
                    entries.append((stat.st_mtime, stat.st_size, Path(item.path)))
                except OSError:  # vanished mid-scan: someone else's unlink
                    continue
        return entries

    def disk_stats(self) -> Dict[str, Dict[str, int]]:
        """On-disk entry counts and byte totals, per subdirectory.

        ``total`` covers the bounded set (``results`` + ``artefacts``) —
        the number compaction compares against ``max_bytes``/``max_entries``.
        ``quarantine`` is reported alongside but never counts towards the
        bounds (it is diagnostic state an operator clears by hand).
        """
        stats: Dict[str, Dict[str, int]] = {}
        total = {"entries": 0, "bytes": 0}
        for subdir in _BOUNDED_DIRS + (_QUARANTINE_DIR,):
            entries = 0
            size = 0
            try:
                listing = list(os.scandir(self.root / subdir))
            except OSError:
                listing = []
            for item in listing:
                try:
                    if not item.is_file() or item.name.endswith(".tmp"):
                        continue
                    entries += 1
                    size += item.stat().st_size
                except OSError:
                    continue
            stats[subdir] = {"entries": entries, "bytes": size}
            if subdir in _BOUNDED_DIRS:
                total["entries"] += entries
                total["bytes"] += size
        stats["total"] = total
        return stats

    def _maybe_compact(self) -> None:
        """Run the store's own compaction pass every ``compact_interval`` writes."""
        if self.max_bytes is None and self.max_entries is None:
            return
        with self._lock:
            self._writes_since_compact += 1
            due = self._writes_since_compact >= self._compact_interval
            if due:
                self._writes_since_compact = 0
        if due:
            self.compact()

    def compact(
        self,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> Dict[str, int]:
        """Drop least-recently-used entries until the store fits its bounds.

        Recency is mtime — refreshed on every read hit, so the pass is a
        true LRU, not insertion order.  Arguments override the configured
        bounds for one pass (the ``repro store compact`` command).  Removal
        is plain ``unlink``: concurrent readers in other processes observe
        either the entry or a miss, never an error, and two concurrent
        compactors merely race to remove the same victims.  Returns a
        summary of what was examined, kept and removed.
        """
        bound_bytes = self.max_bytes if max_bytes is None else max_bytes
        bound_entries = self.max_entries if max_entries is None else max_entries
        with self._compact_lock:
            entries = self._bounded_entries()
            entries.sort(key=lambda entry: entry[0], reverse=True)  # newest first
            kept = kept_bytes = 0
            removed = removed_bytes = 0
            for _mtime, size, path in entries:
                over_entries = (
                    bound_entries is not None and kept + 1 > bound_entries
                )
                over_bytes = (
                    bound_bytes is not None and kept_bytes + size > bound_bytes
                )
                if not over_entries and not over_bytes:
                    kept += 1
                    kept_bytes += size
                    continue
                try:
                    os.unlink(str(path))
                except OSError:  # already gone: a racing compactor's unlink
                    continue
                removed += 1
                removed_bytes += size
        if removed:
            self._m_events.inc(removed, event="compacted")
        self._m_events.inc(event="compactions")
        if removed:
            logger.info(
                "artefact store: compacted %d entries (%d bytes); "
                "%d entries (%d bytes) remain",
                removed, removed_bytes, kept, kept_bytes,
            )
        return {
            "examined": len(entries),
            "kept": kept,
            "kept_bytes": kept_bytes,
            "removed": removed,
            "removed_bytes": removed_bytes,
        }

    # -------------------------------------------------------------- results

    def put_result(self, op: str, scenario_key: str, payload: Dict[str, object]) -> bool:
        """Persist one typed-result JSON payload; best-effort, never raises."""
        record = {
            "format": STORE_FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "op": op,
            "scenario": scenario_key,
            "result": payload,
        }
        path = self.result_path(op, scenario_key)
        try:
            data = json.dumps(record, sort_keys=True).encode()
        except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
            logger.warning("artefact store: unserialisable result for %s: %s",
                           path.name, exc)
            self._m_events.inc(event="write_errors")
            return False
        return self._atomic_write(path, data)

    def get_result(self, op: str, scenario_key: str) -> Optional[Dict[str, object]]:
        """The stored result payload for ``(op, scenario)``, or None.

        Counts a hit or miss; anything unreadable or mismatched is
        quarantined and reported as a miss.
        """
        path = self.result_path(op, scenario_key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._m_events.inc(event="misses")
            return None
        except OSError as exc:  # pragma: no cover - unreadable, not absent
            self.quarantine(path, f"unreadable: {exc}")
            self._m_events.inc(event="misses")
            return None
        try:
            record = json.loads(raw)
        except ValueError as exc:
            self.quarantine(path, f"corrupt JSON: {exc}")
            self._m_events.inc(event="misses")
            return None
        reason = self._validate_result_record(record, op, scenario_key)
        if reason is not None:
            self.quarantine(path, reason)
            self._m_events.inc(event="misses")
            return None
        self._m_events.inc(event="hits")
        self._touch(path)
        return record["result"]

    @staticmethod
    def _validate_result_record(
        record: object, op: str, scenario_key: str
    ) -> Optional[str]:
        """Why a parsed record must not be served (None when it may be)."""
        if not isinstance(record, dict):
            return "record is not a JSON object"
        if record.get("format") != STORE_FORMAT_VERSION:
            return (f"store format {record.get('format')!r} "
                    f"(this build reads {STORE_FORMAT_VERSION})")
        if record.get("schema_version") != SCHEMA_VERSION:
            return (f"result schema version {record.get('schema_version')!r} "
                    f"(this build reads {SCHEMA_VERSION})")
        if record.get("op") != op or record.get("scenario") != scenario_key:
            return "key mismatch (file does not answer this query)"
        result = record.get("result")
        if not isinstance(result, dict):
            return "record carries no result object"
        if result.get("schema_version") != SCHEMA_VERSION:
            return (f"payload schema version {result.get('schema_version')!r} "
                    f"(this build reads {SCHEMA_VERSION})")
        return None
