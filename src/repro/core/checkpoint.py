"""Checkpoint journal: crash-safe persistence of completed shards.

Long campaigns (14 modules x dies x patterns x tAggON points x trials)
must be resumable: the litex-rowhammer-tester harnesses this repo is
modeled on checkpoint per-row progress for exactly this reason.  The
journal is a JSONL file:

* line 1 -- a header ``{"format": "repro-checkpoint-v1", "fingerprint":
  ..., "n_shards": ...}``; the fingerprint is a SHA-256 digest of the
  campaign configuration plus the fully enumerated plan order, so a
  journal can never be replayed against a different campaign
  (:class:`~repro.errors.CheckpointError` names both fingerprints).
* one line per completed shard -- ``{"shard": index, "measurements":
  [...]}`` with censuses included, so resumed measurements are
  bit-identical to freshly computed ones.

Write discipline
----------------

:meth:`CheckpointJournal.start` writes the header through
:func:`repro.atomicio.atomic_write_text` (write-temp + ``os.replace``);
:meth:`CheckpointJournal.record` then *appends* each shard line
(``open("a")`` + write + flush + ``fsync``), so journaling shard *k*
costs O(len(shard k)) bytes -- not a rewrite of the whole journal, which
would make a campaign's total checkpoint I/O quadratic in its shard
count and widen the crash window as the file grows.

The failure mode of an append is a *torn trailing line* (the process
died mid-``write``).  :meth:`CheckpointJournal.load` tolerates exactly
that: an unparseable **last** line after a valid header is skipped with
a logged warning (the shard it described is simply re-measured), and the
file is truncated back to the last complete line so subsequent appends
extend a consistent journal.  An unparseable line anywhere *else* -- or
a torn header -- is real corruption and still raises
:class:`~repro.errors.CheckpointError`.

All lines are encoded with ``allow_nan=False`` (non-finite measurement
fields are converted to ``None`` at record-encode time), so a journal is
always strict RFC 8259 JSON that other tools can parse.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.atomicio import atomic_write_text, write_digest
from repro.core.results import (
    DieMeasurement,
    measurement_from_record,
    measurement_to_record,
)
from repro.errors import ArtifactCorruptError, CheckpointBusyError, CheckpointError
from repro.validate.integrity import has_digest, verify_journal_bytes
from repro.validate.provenance import check_provenance, provenance_stamp

JOURNAL_FORMAT = "repro-checkpoint-v1"

__all__ = [
    "JOURNAL_FORMAT",
    "plan_fingerprint",
    "JournalCodec",
    "MEASUREMENT_CODEC",
    "AdvisoryLock",
    "CheckpointJournal",
    "parse_journal",
]

logger = logging.getLogger("repro.checkpoint")

#: Lock tokens held by live lock objects in *this* process, so a
#: same-pid lockfile can be told apart from one abandoned by an earlier
#: (garbage-collected) owner: a token that no longer maps to a live
#: object is stale and is reclaimed instead of deadlocking the process.
_LIVE_LOCKS: "weakref.WeakValueDictionary[str, AdvisoryLock]" = (
    weakref.WeakValueDictionary()
)


class AdvisoryLock:
    """``O_EXCL`` advisory lockfile guarding appends to one file.

    One live writer per journal: the lockfile ``<target>.lock`` holds
    ``"<pid> <token>"``.  A lock held by a *live* writer makes
    :meth:`acquire` raise :class:`~repro.errors.CheckpointBusyError`
    unless ``steal=True`` (lease reclaim), in which case the lockfile is
    atomically replaced and the displaced writer's next
    :meth:`verify` fails instead of letting it interleave appends.  A
    lock whose owner is dead -- a killed process, or a same-pid owner
    object that was garbage-collected -- is reclaimed with a logged
    warning.  Shared by :class:`CheckpointJournal` and the campaign
    service's queue journal (:mod:`repro.service.queue`).
    """

    def __init__(
        self,
        target: Union[str, os.PathLike],
        steal: bool = False,
        what: str = "journal",
    ) -> None:
        self._target = Path(target)
        self._steal = steal
        self._what = what
        self._token: Optional[str] = None

    @property
    def lock_path(self) -> Path:
        """The advisory lockfile guarding the target's appends."""
        return self._target.with_name(self._target.name + ".lock")

    @property
    def held(self) -> bool:
        return self._token is not None

    def _read_lock(self) -> Optional[Tuple[Optional[int], str]]:
        """Parse the lockfile into ``(owner_pid, token)``.

        ``None`` when no lockfile exists; a malformed lockfile parses as
        ``(None, "")`` -- unclaimable, hence stale.
        """
        try:
            text = self.lock_path.read_text(encoding="utf-8")
        except OSError:
            return None
        parts = text.split()
        if len(parts) >= 2 and parts[0].isdigit():
            return int(parts[0]), parts[1]
        return (None, "")

    @staticmethod
    def _owner_alive(pid: Optional[int], token: str) -> bool:
        """Whether the lock's recorded owner is still a live writer."""
        if pid is None:
            return False
        if pid == os.getpid():
            # Same process: the owner is live iff some lock object
            # still holds the token (a token abandoned by an owner that
            # errored out and was collected must not wedge the process).
            return token in _LIVE_LOCKS
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except OSError:
            pass  # e.g. EPERM: the pid exists but is not ours -- alive
        return True

    def acquire(self) -> None:
        """Take the lock (idempotent while held)."""
        if self._token is not None:
            return
        token = f"{os.getpid()}-{os.urandom(8).hex()}"
        content = f"{os.getpid()} {token}\n"
        self._target.parent.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                fd = os.open(
                    str(self.lock_path),
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                    0o644,
                )
            except FileExistsError:
                owner = self._read_lock()
                if owner is None:
                    continue  # released between our open and read: retry
                owner_pid, owner_token = owner
                if self._owner_alive(owner_pid, owner_token):
                    if not self._steal:
                        raise CheckpointBusyError(
                            f"{self._what} {self._target} is locked by "
                            f"a live writer (pid {owner_pid}, lockfile "
                            f"{self.lock_path.name}); a second writer "
                            f"appending would interleave records -- "
                            f"release the other writer, or open with "
                            f"steal_lock=True to revoke it (lease reclaim)"
                        )
                    logger.warning(
                        "%s %s: stealing the append lock from live "
                        "writer pid %s (lease reclaim); its next append "
                        "will be refused",
                        self._what,
                        self._target,
                        owner_pid,
                    )
                else:
                    logger.warning(
                        "%s %s: reclaiming a stale append lock left by "
                        "dead writer pid %s",
                        self._what,
                        self._target,
                        owner_pid,
                    )
                # Atomic takeover: replace the lockfile in one rename so
                # no third writer can slip in through a missing-lock gap.
                tmp_fd, tmp_name = tempfile.mkstemp(
                    dir=str(self._target.parent),
                    prefix=self.lock_path.name + ".",
                    suffix=".tmp",
                )
                try:
                    with os.fdopen(tmp_fd, "w", encoding="utf-8") as handle:
                        handle.write(content)
                        handle.flush()
                        os.fsync(handle.fileno())
                    os.replace(tmp_name, self.lock_path)
                except BaseException:
                    try:
                        os.unlink(tmp_name)
                    except OSError:
                        pass
                    raise
                self._register(token)
                return
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(content)
                    handle.flush()
                    os.fsync(handle.fileno())
                self._register(token)
                return

    def _register(self, token: str) -> None:
        self._token = token
        _LIVE_LOCKS[token] = self

    def verify(self) -> None:
        """Require that this object still owns the lock."""
        owner = self._read_lock()
        if owner is None or owner[1] != self._token:
            holder = "no writer" if owner is None else f"pid {owner[0]}"
            raise CheckpointBusyError(
                f"{self._what} {self._target} append lock was revoked "
                f"(now held by {holder}): this writer's lease was "
                f"reclaimed; refusing to append a record that would "
                f"interleave with the new owner's"
            )

    def release(self) -> None:
        """Release the lock (idempotent).

        Only removes the lockfile if this object still owns it -- a
        stolen lock is left to its new owner.
        """
        token = self._token
        if token is None:
            return
        self._token = None
        _LIVE_LOCKS.pop(token, None)
        owner = self._read_lock()
        if owner is not None and owner[1] == token:
            try:
                os.unlink(self.lock_path)
            except OSError:
                pass

    def __del__(self) -> None:  # best-effort: explicit release preferred
        try:
            self.release()
        except Exception:  # noqa: BLE001 - never raise during teardown
            pass


def plan_fingerprint(config, plan) -> str:
    """Deterministic fingerprint of (configuration, plan order).

    Built from the config's value-based dataclass repr and every work
    unit of every shard in canonical order; two campaigns share a
    fingerprint iff they would measure the same points in the same
    order under the same knobs.
    """
    parts = [repr(config)]
    for shard in plan.shards:
        parts.append(
            f"shard|{shard.index}|{shard.module_key}|"
            f"{shard.manufacturer}|{shard.die}"
        )
        parts.extend(
            f"unit|{u.pattern.name}|{u.t_on!r}|{u.trial}" for u in shard.units
        )
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class JournalCodec:
    """How one campaign kind's shard results are journaled.

    ``entries`` names the per-record format; ``None`` means the default
    characterization measurements, for which the header is byte-identical
    to journals written before codecs existed.  A non-``None`` name is
    written into the header as ``"entries"`` and checked on load, so a
    journal of one record kind can never be decoded as another.
    """

    entries: Optional[str]
    encode: Callable[[object], dict]
    decode: Callable[[dict], object]


#: The default codec: characterization :class:`DieMeasurement` records,
#: censuses included so resumed measurements are bit-identical.
MEASUREMENT_CODEC = JournalCodec(
    entries=None,
    encode=lambda m: measurement_to_record(m, include_census=True),
    decode=lambda rec: measurement_from_record(rec, census_included=True),
)


class CheckpointJournal:
    """Append-only journal of completed shards.

    ``start()`` writes the header atomically; every ``record()`` is one
    O(1) append (write + flush + fsync).  ``load()`` is byte-compatible
    with journals written by the earlier rewrite-the-world
    implementation -- the on-disk format is unchanged.

    With ``digest=True`` the journal maintains a running sha256 of its
    content in a ``<path>.sha256`` sidecar (restamped atomically after
    every append, without re-reading the file) and the header carries a
    provenance stamp; ``load()`` then verifies the bytes before trusting
    them -- any flipped bit raises
    :class:`~repro.errors.ArtifactCorruptError` -- tolerating the two
    legal crash windows (torn append; append durable but sidecar stale).
    A journal that already has a sidecar keeps it maintained even when
    the flag is off, so a digest-less resume cannot silently invalidate
    an earlier run's integrity cover.  With the flag off and no sidecar
    present, the bytes written are identical to earlier releases.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        digest: bool = False,
        codec: Optional[JournalCodec] = None,
        steal_lock: bool = False,
    ) -> None:
        self._path = Path(path)
        self._started = False
        self._digest = digest
        self._codec = codec if codec is not None else MEASUREMENT_CODEC
        self._hash = None  # running sha256 of the journal's content
        self._lock = AdvisoryLock(
            self._path, steal=steal_lock, what="checkpoint journal"
        )

    @property
    def path(self) -> Path:
        return self._path

    @property
    def lock_path(self) -> Path:
        """The advisory lockfile guarding this journal's appends."""
        return self._lock.lock_path

    def exists(self) -> bool:
        return self._path.exists()

    # ----------------------------------------------------------- locking

    def _acquire_lock(self) -> None:
        self._lock.acquire()

    def _verify_lock(self) -> None:
        self._lock.verify()

    def release(self) -> None:
        """Release the advisory append lock (idempotent).

        Only removes the lockfile if this journal still owns it -- a
        stolen lock is left to its new owner.
        """
        self._lock.release()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # (no __del__ here: the AdvisoryLock's own finalizer releases the
    # lockfile when an unreleased journal is collected)

    # ----------------------------------------------------------- writing

    def start(self, fingerprint: str, n_shards: int) -> None:
        """Begin a fresh journal (truncating any previous one)."""
        self._acquire_lock()
        header = {
            "format": JOURNAL_FORMAT,
            "fingerprint": fingerprint,
            "n_shards": n_shards,
        }
        if self._codec.entries is not None:
            header["entries"] = self._codec.entries
        if self._digest:
            header["provenance"] = provenance_stamp()
        text = json.dumps(header) + "\n"
        atomic_write_text(self._path, text)
        self._started = True
        if self._digest:
            self._hash = hashlib.sha256(text.encode("utf-8"))
            write_digest(self._path, self._hash.hexdigest())

    def record(self, shard_index: int, measurements: Sequence) -> None:
        """Journal one completed shard with a single durable append."""
        if not self._started:
            raise CheckpointError(
                "journal must be start()ed or load()ed before recording"
            )
        self._acquire_lock()
        self._verify_lock()
        entry = {
            "shard": shard_index,
            "measurements": [self._codec.encode(m) for m in measurements],
        }
        line = json.dumps(entry, allow_nan=False) + "\n"
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if self._hash is not None:
            # Fold the appended line into the running hash and restamp
            # the sidecar -- O(len(line)), never a re-read of the file.
            # A crash between the append and the restamp leaves a stale
            # sidecar covering everything but the final line, which
            # load() recognizes and repairs.
            self._hash.update(line.encode("utf-8"))
            write_digest(self._path, self._hash.hexdigest())

    # ----------------------------------------------------------- reading

    def load(self, expected_fingerprint: str) -> Dict[int, List[DieMeasurement]]:
        """Load completed shards, verifying the plan fingerprint.

        Returns ``{shard_index: measurements}`` and primes the journal
        so subsequent :meth:`record` calls extend the same file.  A torn
        trailing line (crash mid-append) is skipped with a warning and
        truncated away; corruption anywhere else raises
        :class:`~repro.errors.CheckpointError`.

        Loading is an open-for-append (the journal is primed for
        :meth:`record` and may truncate-repair a torn line), so the
        advisory lock is taken first: a journal being written by another
        live process raises :class:`~repro.errors.CheckpointBusyError`.
        """
        self._acquire_lock()
        try:
            raw = self._path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint journal {self._path}: {exc}"
            ) from exc
        if has_digest(self._path):
            # A sidecar means a digest-enabled run wrote this journal:
            # verify before trusting, and keep maintaining the sidecar
            # for the rest of this run even if our flag is off --
            # otherwise our appends would silently invalidate it.
            try:
                _, note = verify_journal_bytes(self._path, raw)
            except ArtifactCorruptError as exc:
                raise CheckpointError(str(exc)) from exc
            if note:
                logger.warning("checkpoint journal %s: %s", self._path, note)
            self._digest = True
        parsed = parse_journal(self._path, raw, "checkpoint journal")
        if not parsed:
            raise CheckpointError(f"checkpoint journal {self._path} is empty")
        header = parsed[0]
        if header.get("format") != JOURNAL_FORMAT:
            raise CheckpointError(
                f"checkpoint journal {self._path} has unknown format "
                f"{header.get('format')!r} (expected {JOURNAL_FORMAT!r})"
            )
        entries = header.get("entries")
        if entries != self._codec.entries:
            raise CheckpointError(
                f"checkpoint journal {self._path} records "
                f"{entries or 'characterization measurement'!r} entries, but "
                f"this campaign journals "
                f"{self._codec.entries or 'characterization measurement'!r} "
                f"entries; refusing to decode one record kind as another"
            )
        found = header.get("fingerprint")
        if found != expected_fingerprint:
            raise CheckpointError(
                f"checkpoint journal {self._path} was written for plan "
                f"fingerprint {found!r}, but the current campaign's "
                f"fingerprint is {expected_fingerprint!r}; refusing to mix "
                f"measurements from different campaigns (delete the journal "
                f"or drop --resume to start over)"
            )
        completed: Dict[int, List] = {}
        for entry in parsed[1:]:
            index = entry.get("shard")
            if not isinstance(index, int):
                raise CheckpointError(
                    f"checkpoint journal {self._path} has a shard entry "
                    f"without an index"
                )
            if index in completed:
                raise CheckpointError(
                    f"checkpoint journal {self._path} records shard {index} "
                    f"twice"
                )
            completed[index] = [
                self._codec.decode(rec) for rec in entry["measurements"]
            ]
        if "provenance" in header:
            for drift in check_provenance(header["provenance"]):
                logger.warning(
                    "checkpoint journal %s resumed in a different "
                    "environment: %s (resumed measurements may not be "
                    "bit-identical to fresh ones)",
                    self._path,
                    drift,
                )
        self._started = True
        if self._digest:
            # Re-prime the running hash from the surviving bytes (the
            # torn-line repair may have truncated) and restamp so the
            # sidecar covers exactly the current content.
            self._hash = hashlib.sha256(self._path.read_bytes())
            write_digest(self._path, self._hash.hexdigest())
        return completed


def parse_journal(
    path: Path, raw: bytes, label: str, log: logging.Logger = logger
) -> List[dict]:
    """Parse a JSONL journal's bytes, repairing a torn trailing line.

    Shared by the checkpoint journal and the service queue journal;
    ``label`` names the journal kind in messages ("checkpoint journal",
    "queue journal").  Works on bytes so a line torn inside a multi-byte
    UTF-8 sequence is recognized as torn instead of crashing the decode.
    A torn final line after the header (crash mid-append) is dropped
    with a warning on ``log`` and truncated away, so the next append
    starts on a clean line; an unparseable line anywhere else raises
    :class:`~repro.errors.CheckpointError`.
    """
    segments = raw.split(b"\n")
    lines = [
        (position, segment)
        for position, segment in enumerate(segments)
        if segment.strip()
    ]
    parsed: List[dict] = []
    for ordinal, (position, segment) in enumerate(lines):
        try:
            parsed.append(json.loads(segment.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if ordinal == len(lines) - 1 and ordinal > 0:
                # str(exc): a retained log record must not pin the
                # journal (and its advisory lock) alive through the
                # exception's traceback frames.
                log.warning(
                    "%s %s has a torn trailing line (%s); dropping it and "
                    "replaying the %d intact line(s) after the header",
                    label,
                    path,
                    str(exc),
                    len(parsed) - 1,
                )
                keep = sum(len(line) + 1 for line in segments[:position])
                try:
                    with open(path, "r+b") as handle:
                        handle.truncate(keep)
                except OSError as error:
                    raise CheckpointError(
                        f"cannot repair torn {label} {path}: {error}"
                    ) from error
                break
            raise CheckpointError(f"{label} {path} is malformed: {exc}") from exc
    return parsed
