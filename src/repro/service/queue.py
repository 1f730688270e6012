"""Crash-safe persistent job queue for the campaign service.

The queue's durable form is a ``repro-service-queue-v1`` JSONL journal
(:class:`QueueJournal`) with the same write discipline as the campaign
checkpoint journal: an atomically written header, one fsync'd append
per state transition, a running sha256 sidecar restamped after every
append, a torn-trailing-line repair on replay, and the
:class:`~repro.core.checkpoint.AdvisoryLock` keeping a second service
process from interleaving appends.

Event vocabulary (validated by
:func:`repro.validate.schema.validate_queue_event` and replayed by
``repro-characterize validate``):

* ``submit``  -- a job enters the queue (tenant, kind, spec recorded);
* ``lease``   -- a worker takes the job (state ``queued -> running``);
* ``requeue`` -- the job returns to the queue (graceful drain, or a
  lease reclaimed from a wedged worker);
* ``complete`` / ``fail`` / ``cancel`` -- terminal transitions;
* ``seal``    -- a graceful shutdown closed the journal.

:class:`JobQueue` is the in-memory face: thread-safe admission control
(bounded globally and per tenant, rejecting with
:class:`~repro.errors.ServiceOverloadError`), fair round-robin
scheduling across tenants (FIFO within a tenant), lease bookkeeping
with per-attempt tokens (a reclaimed job's stale worker cannot record
an outcome), and journal replay on ``serve --resume``.  On resume the
journal is *rotated*: terminal jobs stay queryable in memory, and every
open job is re-submitted into a fresh journal -- so journals stay
bounded and a sealed journal is never appended to.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.atomicio import atomic_write_text, write_digest
from repro.core.checkpoint import AdvisoryLock, parse_journal
from repro.errors import (
    ArtifactCorruptError,
    CheckpointError,
    JobNotFoundError,
    ServiceDrainingError,
    ServiceOverloadError,
    ServiceProtocolError,
)
from repro.validate.integrity import has_digest, verify_journal_bytes
from repro.validate.provenance import provenance_stamp
from repro.validate.schema import KNOWN_JOB_KINDS, QUEUE_FORMAT

__all__ = [
    "QUEUE_FORMAT",
    "JobRecord",
    "QueueJournal",
    "JobQueue",
    "validate_tenant",
]

logger = logging.getLogger("repro.service")

#: Tenant names become filesystem path components (the per-tenant
#: checkpoint/artifact namespace), so they are restricted to a safe
#: alphabet -- no separators, no dots, no traversal.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$")

#: Job states; ``queued`` and ``running`` are the open (re-adoptable)
#: states, the rest are terminal.
OPEN_STATES = ("queued", "running")
TERMINAL_STATES = ("complete", "fail", "cancel")


def validate_tenant(tenant: str) -> str:
    """Admit only path-safe tenant names (typed rejection otherwise)."""
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ServiceProtocolError(
            f"invalid tenant name {tenant!r}: tenant names must match "
            f"[A-Za-z0-9][A-Za-z0-9_-]{{0,63}} (they become checkpoint "
            f"namespace directories)"
        )
    return tenant


@dataclass
class JobRecord:
    """One job's full lifecycle state (in-memory view of the journal)."""

    job_id: str
    tenant: str
    kind: str
    spec: Dict
    state: str = "queued"
    submitted_t: float = 0.0
    attempt: int = 0  # lease generation; bumped on every lease
    worker: Optional[str] = None  # current lease holder
    lease_t: Optional[float] = None  # monotonic time of last heartbeat
    requeues: int = 0
    reason: Optional[str] = None  # why the job was last requeued/failed
    result: Optional[Dict] = None  # terminal payload (digests, error)

    def to_wire(self) -> Dict:
        """The client-facing job description (no scheduler internals)."""
        payload = {
            "job": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state,
            "attempt": self.attempt,
            "requeues": self.requeues,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.result is not None:
            payload["result"] = self.result
        return payload


class QueueJournal:
    """Append-only, digest-stamped journal of queue state transitions.

    Mirrors :class:`~repro.core.checkpoint.CheckpointJournal`'s write
    discipline exactly (atomic header, fsync'd O(1) appends, running
    sha256 sidecar, torn-trailing-line repair, advisory append lock) --
    the queue is a campaign artifact like any other and
    ``repro-characterize validate`` replays it.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        steal_lock: bool = False,
    ) -> None:
        self._path = Path(path)
        self._lock = AdvisoryLock(
            self._path, steal=steal_lock, what="service queue journal"
        )
        self._hash: Optional["hashlib._Hash"] = None
        self._started = False
        self._sealed = False

    @property
    def path(self) -> Path:
        return self._path

    @property
    def sealed(self) -> bool:
        return self._sealed

    def exists(self) -> bool:
        return self._path.exists()

    def release(self) -> None:
        self._lock.release()

    # --------------------------------------------------------- writing

    def start(self) -> None:
        """Begin a fresh journal (truncating any previous one)."""
        self._lock.acquire()
        header = {
            "format": QUEUE_FORMAT,
            "provenance": provenance_stamp(),
        }
        text = json.dumps(header) + "\n"
        atomic_write_text(self._path, text)
        self._hash = hashlib.sha256(text.encode("utf-8"))
        write_digest(self._path, self._hash.hexdigest())
        self._started = True
        self._sealed = False

    def append(self, event: Dict) -> None:
        """Journal one queue event with a single durable append.

        The append is flushed and fsync'd before this method returns,
        so a transition acknowledged to a client is never lost to a
        SIGKILL.
        """
        if not self._started:
            raise CheckpointError(
                "queue journal must be start()ed or load()ed before "
                "appending"
            )
        if self._sealed:
            raise CheckpointError(
                f"queue journal {self._path} is sealed; a drained "
                f"journal admits no more events"
            )
        self._lock.acquire()
        self._lock.verify()
        line = json.dumps(event, allow_nan=False) + "\n"
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        if self._hash is not None:
            self._hash.update(line.encode("utf-8"))
            write_digest(self._path, self._hash.hexdigest())
        if event.get("op") == "seal":
            self._sealed = True

    # --------------------------------------------------------- reading

    def load(self) -> Tuple[Dict[str, JobRecord], bool]:
        """Replay the journal into job records.

        Returns ``(jobs, sealed)`` with ``jobs`` in submit order.  A
        torn trailing line (SIGKILL mid-append) is dropped and truncated
        away, exactly like a checkpoint resume; corruption anywhere
        else raises :class:`~repro.errors.CheckpointError`.  Loading
        takes the advisory lock (the replayed journal is about to be
        rotated by this process).
        """
        self._lock.acquire()
        try:
            raw = self._path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read queue journal {self._path}: {exc}"
            ) from exc
        if has_digest(self._path):
            try:
                _, note = verify_journal_bytes(self._path, raw)
            except ArtifactCorruptError as exc:
                raise CheckpointError(str(exc)) from exc
            if note:
                logger.warning("queue journal %s: %s", self._path, note)
        parsed = parse_journal(self._path, raw, "queue journal", logger)
        if not parsed:
            raise CheckpointError(f"queue journal {self._path} is empty")
        header = parsed[0]
        if header.get("format") != QUEUE_FORMAT:
            raise CheckpointError(
                f"queue journal {self._path} has unknown format "
                f"{header.get('format')!r} (expected {QUEUE_FORMAT!r})"
            )
        jobs: Dict[str, JobRecord] = {}
        sealed = False
        for event in parsed[1:]:
            op = event.get("op")
            if sealed:
                raise CheckpointError(
                    f"queue journal {self._path} has events after its "
                    f"seal; the journal was corrupted"
                )
            if op == "seal":
                sealed = True
                continue
            job_id = event.get("job")
            if op == "submit":
                if not isinstance(job_id, str) or job_id in jobs:
                    raise CheckpointError(
                        f"queue journal {self._path} has a malformed or "
                        f"duplicate submit for job {job_id!r}"
                    )
                jobs[job_id] = JobRecord(
                    job_id=job_id,
                    tenant=event.get("tenant", ""),
                    kind=event.get("kind", ""),
                    spec=event.get("spec", {}),
                    submitted_t=event.get("t", 0.0),
                )
                continue
            record = jobs.get(job_id)
            if record is None:
                raise CheckpointError(
                    f"queue journal {self._path} transitions job "
                    f"{job_id!r}, which was never submitted"
                )
            if record.state in TERMINAL_STATES:
                raise CheckpointError(
                    f"queue journal {self._path} transitions job "
                    f"{job_id!r} past its terminal state {record.state!r}"
                )
            if op == "lease":
                record.state = "running"
                record.attempt += 1
                record.worker = event.get("worker")
            elif op == "requeue":
                record.state = "queued"
                record.worker = None
                record.requeues += 1
                record.reason = event.get("reason")
            elif op in TERMINAL_STATES:
                record.state = op
                record.worker = None
                if op == "complete":
                    record.result = event.get("result")
                elif op == "fail":
                    record.result = {"error": event.get("error")}
                    record.reason = event.get("error")
            else:
                raise CheckpointError(
                    f"queue journal {self._path} has unknown op {op!r}"
                )
        self._started = True
        self._sealed = sealed
        # Re-prime the running hash from the surviving bytes (the torn
        # repair may have truncated) so later appends -- after a
        # rotation -- keep the sidecar consistent.
        self._hash = hashlib.sha256(self._path.read_bytes())
        write_digest(self._path, self._hash.hexdigest())
        return jobs, sealed


class JobQueue:
    """Thread-safe bounded multi-tenant job queue over a journal.

    Admission control rejects with
    :class:`~repro.errors.ServiceOverloadError` when the global or the
    submitting tenant's queued backlog is full, and with
    :class:`~repro.errors.ServiceDrainingError` once :meth:`drain` has
    been called.  :meth:`next_job` hands out leases fairly: tenants are
    served round-robin, FIFO within each tenant.  Every lease carries an
    attempt number; an outcome reported with a stale attempt (the lease
    was reclaimed meanwhile) is dropped, which is what makes a hung
    worker's late ``complete`` harmless.
    """

    def __init__(
        self,
        journal: QueueJournal,
        max_queued: int = 16,
        max_queued_per_tenant: int = 8,
    ) -> None:
        self._journal = journal
        self._max_queued = max_queued
        self._max_per_tenant = max_queued_per_tenant
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._tenant_order: List[str] = []  # round-robin rotation
        self._next_seq = 1
        self._draining = False

    # ------------------------------------------------------- lifecycle

    def open(self, resume: bool = False) -> int:
        """Start (or resume) the journal; returns re-adopted job count.

        With ``resume=True`` and an existing journal, its history is
        replayed: terminal jobs stay queryable, and every open job --
        queued *or* running, since a running job's worker died with the
        old process -- is re-adopted as queued into a freshly rotated
        journal.
        """
        adopted = 0
        with self._lock:
            replayed: Dict[str, JobRecord] = {}
            if resume and self._journal.exists():
                replayed, _ = self._journal.load()
            self._journal.start()
            max_seq = 0
            for record in replayed.values():
                match = re.search(r"(\d+)$", record.job_id)
                if match:
                    max_seq = max(max_seq, int(match.group(1)))
                if record.state in OPEN_STATES:
                    # Re-adopt: journal a fresh submit (the rotation
                    # dropped history) and queue it again.
                    record.state = "queued"
                    record.worker = None
                    record.lease_t = None
                    self._append_submit(record)
                    adopted += 1
                self._jobs[record.job_id] = record
            self._next_seq = max_seq + 1
            self._notify()
        if adopted:
            logger.info(
                "queue journal %s: re-adopted %d open job(s) after "
                "restart",
                self._journal.path,
                adopted,
            )
        return adopted

    def seal(self) -> None:
        """Seal the journal (graceful drain reached quiescence)."""
        with self._lock:
            if not self._journal.sealed:
                self._journal.append({"op": "seal", "t": time.time()})
            self._journal.release()

    def drain(self) -> None:
        """Stop admitting; wake every waiting worker."""
        with self._lock:
            self._draining = True
            self._not_empty.notify_all()

    @property
    def draining(self) -> bool:
        return self._draining

    def _notify(self) -> None:
        self._not_empty.notify_all()

    # ------------------------------------------------------- admission

    def submit(self, tenant: str, kind: str, spec: Dict) -> JobRecord:
        """Admit one job (durably journaled before this returns)."""
        validate_tenant(tenant)
        if kind not in KNOWN_JOB_KINDS:
            raise ServiceProtocolError(
                f"unknown job kind {kind!r} (this service runs "
                f"{list(KNOWN_JOB_KINDS)})"
            )
        if not isinstance(spec, dict):
            raise ServiceProtocolError(
                f"job spec must be an object, got {type(spec).__name__}"
            )
        with self._lock:
            if self._draining:
                raise ServiceDrainingError(
                    "service is draining: no new submissions are "
                    "admitted; queued and running jobs are checkpointed "
                    "and re-adopted by the next serve --resume"
                )
            queued = [
                r for r in self._jobs.values() if r.state == "queued"
            ]
            if len(queued) >= self._max_queued:
                raise ServiceOverloadError(
                    f"queue is full ({len(queued)}/{self._max_queued} "
                    f"queued job(s)); retry with backoff"
                )
            tenant_queued = sum(1 for r in queued if r.tenant == tenant)
            if tenant_queued >= self._max_per_tenant:
                raise ServiceOverloadError(
                    f"tenant {tenant!r} queue is full ({tenant_queued}/"
                    f"{self._max_per_tenant} queued job(s)); retry with "
                    f"backoff"
                )
            record = JobRecord(
                job_id=f"job-{self._next_seq:04d}",
                tenant=tenant,
                kind=kind,
                spec=spec,
                submitted_t=time.time(),
            )
            self._next_seq += 1
            self._append_submit(record)
            self._jobs[record.job_id] = record
            self._notify()
            return record

    def _append_submit(self, record: JobRecord) -> None:
        self._journal.append(
            {
                "op": "submit",
                "t": record.submitted_t or time.time(),
                "job": record.job_id,
                "tenant": record.tenant,
                "kind": record.kind,
                "spec": record.spec,
            }
        )

    # ------------------------------------------------------ scheduling

    def next_job(
        self, worker: str, timeout: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Lease the next job, fair round-robin across tenants.

        Blocks up to ``timeout`` seconds for work; returns ``None`` on
        timeout or when draining.  The lease is journaled before the
        record is returned.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._lock:
            while True:
                if self._draining:
                    return None
                record = self._pick_fair()
                if record is not None:
                    record.state = "running"
                    record.attempt += 1
                    record.worker = worker
                    record.lease_t = time.monotonic()
                    self._journal.append(
                        {
                            "op": "lease",
                            "t": time.time(),
                            "job": record.job_id,
                            "worker": worker,
                            "attempt": record.attempt,
                        }
                    )
                    return record
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._not_empty.wait(remaining)

    def _pick_fair(self) -> Optional[JobRecord]:
        """The next queued job under tenant round-robin (FIFO within)."""
        queued_by_tenant: Dict[str, List[JobRecord]] = {}
        for record in self._jobs.values():  # insertion order == FIFO
            if record.state == "queued":
                queued_by_tenant.setdefault(record.tenant, []).append(
                    record
                )
        if not queued_by_tenant:
            return None
        for tenant in list(self._tenant_order):
            if tenant not in queued_by_tenant:
                self._tenant_order.remove(tenant)
        for tenant in queued_by_tenant:
            if tenant not in self._tenant_order:
                self._tenant_order.append(tenant)
        tenant = self._tenant_order.pop(0)
        self._tenant_order.append(tenant)  # rotate: served goes last
        return queued_by_tenant[tenant][0]

    # ------------------------------------------------------- outcomes

    def heartbeat(self, job_id: str, attempt: int) -> bool:
        """Refresh a running job's lease; False if the lease is stale."""
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != "running"
                or record.attempt != attempt
            ):
                return False
            record.lease_t = time.monotonic()
            return True

    def complete(self, job_id: str, attempt: int, result: Dict) -> bool:
        return self._finish(
            job_id, attempt, "complete", {"result": result}
        )

    def fail(self, job_id: str, attempt: int, error: str) -> bool:
        return self._finish(job_id, attempt, "fail", {"error": error})

    def requeue(self, job_id: str, attempt: int, reason: str) -> bool:
        """Return a running job to the queue (drain or lease reclaim).

        Bumping nothing but state: the *next* lease bumps the attempt,
        which is what invalidates the displaced worker's token.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != "running"
                or record.attempt != attempt
            ):
                return False
            record.state = "queued"
            record.worker = None
            record.lease_t = None
            record.requeues += 1
            record.reason = reason
            self._journal.append(
                {
                    "op": "requeue",
                    "t": time.time(),
                    "job": job_id,
                    "reason": reason,
                }
            )
            self._notify()
            return True

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running jobs finish their lease)."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobNotFoundError(f"unknown job id {job_id!r}")
            if record.state == "queued":
                record.state = "cancel"
                self._journal.append(
                    {"op": "cancel", "t": time.time(), "job": job_id}
                )
            return record

    def _finish(
        self, job_id: str, attempt: int, op: str, extra: Dict
    ) -> bool:
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != "running"
                or record.attempt != attempt
            ):
                # A stale attempt: the lease was reclaimed and someone
                # else owns the job now.  Dropping the outcome (rather
                # than recording it) is what prevents duplicates.
                logger.warning(
                    "dropping stale %s for job %s (attempt %d)",
                    op,
                    job_id,
                    attempt,
                )
                return False
            record.state = op
            record.worker = None
            if op == "complete":
                record.result = extra["result"]
            else:
                record.result = {"error": extra["error"]}
                record.reason = extra["error"]
            self._journal.append(
                {"op": op, "t": time.time(), "job": job_id, **extra}
            )
            return True

    # -------------------------------------------------------- queries

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobNotFoundError(f"unknown job id {job_id!r}")
            return record

    def jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            return [
                record
                for record in self._jobs.values()
                if tenant is None or record.tenant == tenant
            ]

    def running(self) -> List[JobRecord]:
        with self._lock:
            return [
                r for r in self._jobs.values() if r.state == "running"
            ]

    def open_count(self) -> int:
        with self._lock:
            return sum(
                1
                for r in self._jobs.values()
                if r.state in OPEN_STATES
            )

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for record in self._jobs.values():
                out[record.state] = out.get(record.state, 0) + 1
            return out
