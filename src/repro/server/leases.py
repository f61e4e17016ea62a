"""Checkout leases: per-(library, cell) write claims with fencing tokens.

The FMCAD checkout model (one writer per cellview) was designed for
in-process sessions that cannot vanish.  Served sessions can: a client
that goes silent mid-edit would pin its cells forever.  A **lease** is
the served form of that claim — a time-bounded grant a session must keep
renewing (the protocol's ``ping`` heartbeat) and that the server
reclaims on expiry so successors can make progress.

Expiry alone is not enough: the network cannot distinguish a dead
session from a slow one, so a "zombie" whose lease expired may still
come back and try to commit over its successor's work.  Every lease
therefore carries a **fencing token** — a per-key counter that only ever
increases across grants.  Commits present the token their lease was
granted with; :meth:`LeaseTable.validate` rejects any token that is not
the key's *current, unexpired* grant with a typed
:class:`~repro.errors.LeaseFencedError`.  The check runs twice: once
when the serving engine assembles a batch, and again inside the FMCAD
checkin path itself (the armed expectations installed via :meth:`arm`),
so even a batch that outlives its leases cannot clobber a successor.

Time is caller-supplied (simulated in the deterministic engine and the
unit tests, wall-clock in the asyncio server); expiry rides the shared
:class:`~repro.clock.DeadlineTimers` lane, so no test ever sleeps.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Dict, List, Optional

from repro.clock import DeadlineTimers
from repro.errors import LeaseError, LeaseFencedError, LeaseHeldError

#: default lease lifetime between heartbeats
LEASE_TTL_MS = 30_000.0


def lease_key(library_name: str, cell_name: str) -> str:
    """The lease key for a cell — identical to the scheduler's write key."""
    return f"cell/{library_name}/{cell_name}"


@dataclasses.dataclass
class Lease:
    """One live (or reclaimed) per-cell write claim."""

    key: str
    session_id: str
    user: str
    token: int
    granted_ms: float
    expires_ms: float
    renewals: int = 0

    def expired(self, now_ms: float) -> bool:
        return now_ms >= self.expires_ms


class LeaseTable:
    """All live leases, their fencing tokens and their expiry timers.

    ``now_fn`` (optional) makes the table self-clocking for callers that
    have no timestamp at hand — recovery and the consistency audit run
    long after the engine that granted the leases — while every protocol
    method still accepts an explicit ``now_ms`` for deterministic tests.
    Without ``now_fn`` the table remembers the latest timestamp it was
    shown, so time never runs backwards.
    """

    def __init__(
        self,
        ttl_ms: float = LEASE_TTL_MS,
        now_fn: Optional[Callable[[], float]] = None,
        timers: Optional[DeadlineTimers] = None,
    ) -> None:
        if ttl_ms <= 0:
            raise ValueError(f"ttl_ms must be positive: {ttl_ms!r}")
        self.ttl_ms = ttl_ms
        self._now_fn = now_fn
        self._mutex = threading.Lock()
        self._live: Dict[str, Lease] = {}
        #: next fencing token per key — survives expiry and release, so a
        #: re-granted key always carries a strictly larger token
        self._fence: Dict[str, int] = {}
        #: commit-time expectations armed per in-flight batch (key->token)
        self._armed: Dict[str, int] = {}
        self.timers = timers if timers is not None else DeadlineTimers()
        self._last_now = 0.0
        self.granted = 0
        self.renewed = 0
        self.released = 0
        self.reclaimed = 0
        self.conflicts = 0
        self.fenced_commits = 0

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        """The table's best notion of 'now' (for clockless callers)."""
        if self._now_fn is not None:
            return self._now_fn()
        return self._last_now

    def _resolve_now(self, now_ms: Optional[float]) -> float:
        now = self.now() if now_ms is None else now_ms
        if now > self._last_now:
            self._last_now = now
        return now

    # -- grant / renew / release -------------------------------------------

    def acquire(
        self,
        session_id: str,
        user: str,
        library_name: str,
        cell_name: str,
        now_ms: Optional[float] = None,
        ttl_ms: Optional[float] = None,
    ) -> Lease:
        """Grant (or renew, for the holder) the lease on one cell.

        Raises :class:`~repro.errors.LeaseHeldError` while another
        session's unexpired lease covers the key; the ``retry_after_ms``
        hint is the time left until that lease expires on its own.
        """
        key = lease_key(library_name, cell_name)
        ttl = self.ttl_ms if ttl_ms is None else float(ttl_ms)
        with self._mutex:
            now = self._resolve_now(now_ms)
            self._reclaim_due(now)
            existing = self._live.get(key)
            if existing is not None:
                if existing.session_id != session_id:
                    self.conflicts += 1
                    raise LeaseHeldError(
                        f"lease on {key} is held by session "
                        f"{existing.session_id} ({existing.user}) until "
                        f"{existing.expires_ms:.0f}ms",
                        key=key,
                        holder=existing.session_id,
                        retry_after_ms=max(existing.expires_ms - now, 0.0),
                    )
                existing.expires_ms = now + ttl
                existing.renewals += 1
                self.renewed += 1
                self.timers.schedule(key, existing.expires_ms)
                return existing
            token = self._fence.get(key, 0) + 1
            self._fence[key] = token
            lease = Lease(
                key=key,
                session_id=session_id,
                user=user,
                token=token,
                granted_ms=now,
                expires_ms=now + ttl,
            )
            self._live[key] = lease
            self.timers.schedule(key, lease.expires_ms)
            self.granted += 1
            return lease

    def renew(
        self,
        session_id: str,
        now_ms: Optional[float] = None,
        ttl_ms: Optional[float] = None,
    ) -> int:
        """Heartbeat: extend every live lease *session_id* holds."""
        ttl = self.ttl_ms if ttl_ms is None else float(ttl_ms)
        count = 0
        with self._mutex:
            now = self._resolve_now(now_ms)
            self._reclaim_due(now)
            for lease in self._live.values():
                if lease.session_id != session_id:
                    continue
                lease.expires_ms = now + ttl
                lease.renewals += 1
                self.timers.schedule(lease.key, lease.expires_ms)
                count += 1
            self.renewed += count
        return count

    def release(self, session_id: str, key: str) -> bool:
        """Drop one lease early; only its holder may release it."""
        with self._mutex:
            lease = self._live.get(key)
            if lease is None or lease.session_id != session_id:
                return False
            del self._live[key]
            self.timers.cancel(key)
            self.released += 1
            return True

    def release_session(self, session_id: str) -> int:
        """Drop every lease *session_id* holds (graceful ``bye``)."""
        count = 0
        with self._mutex:
            for key in [
                k for k, lease in self._live.items()
                if lease.session_id == session_id
            ]:
                del self._live[key]
                self.timers.cancel(key)
                count += 1
            self.released += count
        return count

    # -- expiry reclamation ------------------------------------------------

    def reclaim_due(self, now_ms: Optional[float] = None) -> List[Lease]:
        """Reclaim every expired lease; returns what was reclaimed.

        Driven by the engine pump, by :meth:`HybridFramework.recover`
        and lazily by every grant path, so a dead session's claims are
        released the moment anyone looks.
        """
        with self._mutex:
            now = self._resolve_now(now_ms)
            return self._reclaim_due(now)

    def _reclaim_due(self, now_ms: float) -> List[Lease]:
        reclaimed: List[Lease] = []
        for key in self.timers.pop_due(now_ms):
            lease = self._live.get(key)
            if lease is None:
                continue
            if lease.expired(now_ms):
                del self._live[key]
                reclaimed.append(lease)
            else:  # renewed after this timer was armed; re-arm
                self.timers.schedule(key, lease.expires_ms)
        self.reclaimed += len(reclaimed)
        return reclaimed

    # -- fencing -----------------------------------------------------------

    def assert_writable(
        self, session_id: str, key: str, now_ms: Optional[float] = None
    ) -> None:
        """A lease is an *exclusive* write claim: refuse non-holders.

        Raises :class:`~repro.errors.LeaseHeldError` when another
        session's unexpired lease covers *key* — even for writers that
        never leased anything themselves, so a zombie whose own lease
        already expired (and whose token is therefore gone) still cannot
        submit over its successor's claim.
        """
        with self._mutex:
            now = self._resolve_now(now_ms)
            self._reclaim_due(now)
            lease = self._live.get(key)
            if lease is not None and lease.session_id != session_id:
                self.conflicts += 1
                raise LeaseHeldError(
                    f"{key} is leased to session {lease.session_id} "
                    f"({lease.user}) until {lease.expires_ms:.0f}ms",
                    key=key,
                    holder=lease.session_id,
                    retry_after_ms=max(lease.expires_ms - now, 0.0),
                )

    def token_of(self, session_id: str, key: str) -> Optional[int]:
        """The fencing token of *session_id*'s live lease on *key*."""
        with self._mutex:
            lease = self._live.get(key)
            if lease is None or lease.session_id != session_id:
                return None
            return lease.token

    def validate(
        self, key: str, token: int, now_ms: Optional[float] = None
    ) -> None:
        """Commit-time fence: *token* must be the current, unexpired grant."""
        with self._mutex:
            now = self._resolve_now(now_ms)
            lease = self._live.get(key)
            current = lease.token if lease is not None else 0
            if lease is None or lease.token != token or lease.expired(now):
                self.fenced_commits += 1
                raise LeaseFencedError(
                    f"fencing token {token} for {key} is stale "
                    f"(current grant: {current or 'none'})",
                    key=key,
                    token=token,
                    current=current,
                )

    def arm(self, key: str, token: int) -> None:
        """Expect commits on *key* to hold *token* until :meth:`disarm`.

        The serving engine arms a batch's leased keys before running its
        wave; the FMCAD checkin guard validates against the expectation
        at the instant the version is written.  Safe across the shard's
        scheduler worker threads because batches on one shard are serial
        and a library never spans shards.
        """
        with self._mutex:
            if key in self._armed:
                raise LeaseError(f"commit expectation for {key} already armed")
            self._armed[key] = token

    def disarm(self, key: str) -> None:
        with self._mutex:
            self._armed.pop(key, None)

    def expected(self, key: str) -> Optional[int]:
        """The armed commit expectation for *key*, if any."""
        with self._mutex:
            return self._armed.get(key)

    # -- introspection -----------------------------------------------------

    def holder(self, key: str) -> Optional[Lease]:
        with self._mutex:
            return self._live.get(key)

    def live_leases(self) -> List[Lease]:
        with self._mutex:
            return [self._live[key] for key in sorted(self._live)]

    def stats(self) -> Dict[str, object]:
        with self._mutex:
            return {
                "live": len(self._live),
                "granted": self.granted,
                "renewed": self.renewed,
                "released": self.released,
                "reclaimed": self.reclaimed,
                "conflicts": self.conflicts,
                "fenced_commits": self.fenced_commits,
            }
