"""On-disk repository for fleet aggregates: a snapshot plus an append log.

Layout, per program fingerprint under the repository root:

* ``<fp>.json`` — the snapshot, a version-2 profile dict (exactly
  ``json.dumps(aggregate.to_dict(), separators=(",", ":"))``, so
  ``repro-mini run --load-profile <root>/<fp>.json`` works on it
  directly).  Its ``fleet.publishes`` is the sequence number of the
  last logged delta it folds in.
* ``<fp>.log`` — the append log: one JSON line per accepted delta,
  ``{"seq", "epoch", "run_id", "edges"[, "receivers"][, "paths"]}``,
  in wire row shape.  ``seq`` numbers a program's deltas 1, 2, 3, …
  across compactions.  Absent or empty when the snapshot is current.
* ``<fp>.runs`` — the run ids the snapshot counts in ``fleet.runs``
  (``{"seq", "run_ids"}``), so a run that publishes on both sides of a
  compaction still counts once after a restart.

:meth:`ProfileRepository.append` writes one record; :meth:`load`
returns the snapshot with every log record whose ``seq`` is above the
snapshot's ``fleet.publishes`` replayed on top — an incremental merge.
:meth:`store` is the compaction: it writes the snapshot, then the run
ids, then retires the log.  A crash between any two of those steps is
safe: records at or below the snapshot's ``publishes`` are skipped on
replay (their run ids are still read), so every logged delta folds in
exactly once.

Durability contract:

* **Logged means kept.**  A delta whose record :meth:`append` wrote
  survives the death of the writing process.  There is no ``fsync``,
  so it is not safe against power loss.
* **Torn tails are dropped.**  A record cut short by a crash was never
  acknowledged; replay stops at it and the next append truncates it.
* **Atomic snapshots.**  Snapshots and run-id files are written to a
  temporary file in the repository directory and ``os.replace``d into
  place; a reader (or a crash) never observes a torn one.
* **Corruption recovery.**  A snapshot that fails to parse is
  quarantined (renamed to ``<fp>.json.corrupt``) and treated as
  absent, so one bad file never takes the service down or blocks
  future aggregation for that program.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass

from repro.fleet.merge import AggregateProfile, MergeError, MergePolicy

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,64}$")

#: A program's log is compacted once its records outgrow this multiple
#: of the snapshot (or of :data:`COMPACT_MIN_BYTES`, for small ones).
COMPACT_RATIO = 4
COMPACT_MIN_BYTES = 64 * 1024


class RepositoryError(Exception):
    """The repository root is unusable or a fingerprint is invalid."""


def _check_fingerprint(fingerprint: str) -> str:
    if not _FINGERPRINT_RE.match(fingerprint or ""):
        raise RepositoryError(f"invalid fingerprint {fingerprint!r}")
    return fingerprint


def _encode(document) -> str:
    return json.dumps(document, separators=(",", ":"))


@dataclass
class _LogState:
    """What this process knows about one program's log."""

    #: Highest sequence number logged or folded into the snapshot.
    seq: int = 0
    #: Bytes of complete records; anything past it is a torn tail.
    end: int = 0
    #: The file is longer than ``end``; the next append truncates it.
    torn: bool = False
    #: Size of the current snapshot, for the compaction trigger.
    snapshot_bytes: int = 0


class ProfileRepository:
    """Stores one :class:`AggregateProfile` per fingerprint as a snapshot
    plus an append log of the deltas accepted since."""

    def __init__(self, root: str, policy: MergePolicy | None = None):
        self.root = os.path.abspath(root)
        self.policy = policy if policy is not None else MergePolicy()
        self.quarantined = 0
        self._logs: dict[str, _LogState] = {}
        try:
            os.makedirs(self.root, exist_ok=True)
        except OSError as error:
            raise RepositoryError(f"cannot create repository at {root}: {error}")

    def path_for(self, fingerprint: str) -> str:
        return os.path.join(self.root, _check_fingerprint(fingerprint) + ".json")

    def log_path(self, fingerprint: str) -> str:
        return os.path.join(self.root, _check_fingerprint(fingerprint) + ".log")

    def _runs_path(self, fingerprint: str) -> str:
        return os.path.join(self.root, _check_fingerprint(fingerprint) + ".runs")

    def fingerprints(self) -> list[str]:
        """Fingerprints with a (non-quarantined) snapshot or a log, sorted."""
        found = set()
        for name in os.listdir(self.root):
            stem, ext = os.path.splitext(name)
            if ext in (".json", ".log") and _FINGERPRINT_RE.match(stem):
                found.add(stem)
        return sorted(found)

    # -- reading ------------------------------------------------------------------

    def load(self, fingerprint: str) -> AggregateProfile | None:
        """The snapshot with the log replayed on top; ``None`` if the
        program has neither (or only a quarantined snapshot)."""
        aggregate = self._load_snapshot(fingerprint)
        log = _LogState()
        folded = 0
        counted: set[str] = set()
        if aggregate is not None:
            log.snapshot_bytes = os.path.getsize(self.path_for(fingerprint))
            folded = aggregate.publishes
            runs = self._read_runs(fingerprint)
            if runs is not None and runs[0] <= folded:
                counted.update(runs[1])
        for record, end in self._read_log(fingerprint, log):
            if record["seq"] <= folded:
                # Already in the snapshot (a compaction died before
                # retiring the log); only its run id is news.
                if record.get("run_id") is not None:
                    counted.add(str(record["run_id"]))
            else:
                if aggregate is None:
                    aggregate = AggregateProfile(fingerprint, self.policy)
                try:
                    aggregate.merge_delta(
                        record["edges"],
                        epoch=record["epoch"],
                        run_id=record.get("run_id"),
                        receivers=record.get("receivers"),
                        paths=record.get("paths"),
                    )
                except MergeError:
                    log.torn = True
                    break
                aggregate.publishes = max(aggregate.publishes, record["seq"])
            log.end = end
        if aggregate is not None:
            aggregate.count_runs_as_seen(counted)
            log.seq = aggregate.publishes
        self._logs[fingerprint] = log
        return aggregate

    def _load_snapshot(self, fingerprint: str) -> AggregateProfile | None:
        path = self.path_for(fingerprint)
        try:
            with open(path) as handle:
                data = json.load(handle)
            return AggregateProfile.from_dict(data, self.policy)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, MergeError, ValueError):
            self._quarantine(path)
            return None

    def _read_runs(self, fingerprint: str) -> tuple[int, list[str]] | None:
        """The ``.runs`` file as ``(seq, run ids)``; ``None`` if absent
        or unreadable."""
        try:
            with open(self._runs_path(fingerprint)) as handle:
                data = json.load(handle)
            return int(data["seq"]), [str(run_id) for run_id in data["run_ids"]]
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def _read_log(self, fingerprint: str, log: _LogState):
        """Yield ``(record, end offset)`` for each complete, well-formed
        record in order; stop at the first that is not (a torn tail)."""
        try:
            with open(self.log_path(fingerprint), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        offset = 0
        while True:
            newline = data.find(b"\n", offset)
            if newline < 0:
                break
            try:
                record = json.loads(data[offset:newline])
                valid = (
                    isinstance(record, dict)
                    and isinstance(record.get("seq"), int)
                    and isinstance(record.get("epoch"), int)
                    and isinstance(record.get("edges"), list)
                )
            except ValueError:
                valid = False
            if not valid:
                break
            offset = newline + 1
            yield record, offset
        log.torn = offset < len(data)

    # -- writing ------------------------------------------------------------------

    def _log_for(self, fingerprint: str) -> _LogState:
        log = self._logs.get(fingerprint)
        if log is None:
            self.load(fingerprint)
            log = self._logs[fingerprint]
        return log

    def append(
        self,
        fingerprint: str,
        epoch: int,
        run_id,
        edges: list,
        receivers: list | None = None,
        paths: list | None = None,
    ) -> bool:
        """Log one validated delta; returns whether the log has outgrown
        its snapshot and is due for compaction (:meth:`store`).

        The record is on disk when this returns.  Raises ``OSError``
        if it could not be written; the delta is then not logged.
        """
        log = self._log_for(fingerprint)
        record = {"seq": log.seq + 1, "epoch": epoch, "run_id": run_id, "edges": edges}
        if receivers:
            record["receivers"] = receivers
        if paths:
            record["paths"] = paths
        line = (_encode(record) + "\n").encode()
        fd = os.open(
            self.log_path(fingerprint), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            if log.torn:
                os.ftruncate(fd, log.end)
                log.torn = False
            written = 0
            while written < len(line):
                written += os.write(fd, line[written:])
        except BaseException:
            log.torn = True
            raise
        finally:
            os.close(fd)
        log.seq += 1
        log.end += len(line)
        return log.end > COMPACT_RATIO * max(log.snapshot_bytes, COMPACT_MIN_BYTES)

    def store(self, aggregate: AggregateProfile) -> str:
        """Compact: atomically write ``aggregate``'s snapshot and run ids,
        then retire the log if the snapshot folds every record in it.
        Returns the snapshot path."""
        fingerprint = aggregate.fingerprint
        path = self.path_for(fingerprint)
        log = self._log_for(fingerprint)
        snapshot = _encode(aggregate.to_dict())
        self._replace(path, snapshot)
        log.snapshot_bytes = len(snapshot)
        self._replace(
            self._runs_path(fingerprint),
            _encode({"seq": aggregate.publishes, "run_ids": sorted(aggregate.run_ids())}),
        )
        if aggregate.publishes >= log.seq:
            try:
                os.unlink(self.log_path(fingerprint))
            except FileNotFoundError:
                pass
            log.seq = aggregate.publishes
            log.end = 0
            log.torn = False
        return path

    def _replace(self, path: str, text: str) -> None:
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path)[:12] + ".", suffix=".tmp", dir=self.root
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + ".corrupt")
            self.quarantined += 1
        except OSError:
            pass
