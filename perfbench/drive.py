"""Load generator of the serving benchmark: one thread, at most nproc sockets.

Sessions are multiplexed over a few connections.  The server binds each
``run`` to its connection's latest ``hello``, so a client switching
designers sends ``hello`` pipelined with the run, and replies are
matched to requests by ``id``.

:func:`closed_loop` runs a few clients.  Each owns a share of the
designers and serves them round-robin with one run in flight, stepping
every designer through the flow chain; latency is timed from send.  A
visit either opens a fresh session for its designer or resumes the one
opened before the load phase.

Only the generated frames reach the server.  The session order is a
pure function of the seed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: samples that must lie beyond a percentile before it may be quoted
MIN_BEYOND = 10


def supports(samples: int, pct: float) -> bool:
    """True when *samples* leave at least MIN_BEYOND beyond *pct*."""
    return samples * (100.0 - pct) / 100.0 >= MIN_BEYOND


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile, refused when the sample cannot support it."""
    from repro.workloads.metrics import percentile as interpolated

    if not supports(len(values), pct):
        raise ValueError(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples leave "
            f"{len(values) * (100.0 - pct) / 100.0:.1f}"
        )
    return interpolated(values, pct)


def session_order(seed: int, items: Sequence[Any]) -> List[Any]:
    """The seeded order in which sessions arrive (or are visited)."""
    order = list(items)
    random.Random(f"sessions/{seed}").shuffle(order)
    return order


class ReplyRouter:
    """Matches reply frames to the requests that expect them, by ``id``."""

    def __init__(self) -> None:
        self._waiting: Dict[int, asyncio.Future] = {}

    def expect(self, request_id: int) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = future
        return future

    def feed(self, line: bytes) -> None:
        """Resolve the waiter of one reply with ``(arrival_s, frame)``."""
        frame = json.loads(line)
        future = self._waiting.pop(frame.get("id"), None)
        if future is None:
            raise ValueError(f"reply to an unknown request: {frame!r}")
        if not future.done():
            future.set_result((time.perf_counter(), frame))

    def fail_all(self, error: BaseException) -> None:
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(error)
        self._waiting.clear()


class Connection:
    """One socket to the server: pipelined sends, id-matched replies."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.router = ReplyRouter()
        self._next_id = 0
        self._reader_task = asyncio.get_running_loop().create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        # a blocking connect to the loopback address needs no resolver
        # thread: the load generator stays single-threaded
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader, writer = await asyncio.open_connection(
            sock=sock, limit=1024 * 1024
        )
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                self.router.feed(line)
        finally:
            self.router.fail_all(ConnectionError("server closed the connection"))

    def send(self, frames: List[Dict[str, Any]]) -> List[asyncio.Future]:
        """Write *frames* in one go; returns one reply future per frame."""
        futures = []
        payload = []
        for frame in frames:
            self._next_id += 1
            frame = dict(frame, id=self._next_id)
            futures.append(self.router.expect(self._next_id))
            payload.append(json.dumps(frame, separators=(",", ":")).encode())
        self.writer.write(b"\n".join(payload) + b"\n")
        return futures

    async def close(self, timeout_s: float = 30.0) -> None:
        (reply,) = self.send([{"op": "bye"}])
        await asyncio.wait_for(reply, timeout_s)
        self.writer.close()
        await self.writer.wait_closed()
        await self._reader_task


@dataclasses.dataclass
class Plan:
    """One provisioned designer session, as the server reported it."""

    user: str
    team: str
    library: str
    project: str
    cell: str


@dataclasses.dataclass
class LoadResult:
    """What the load phase observed, straight from the wire."""

    hello_ms: List[float] = dataclasses.field(default_factory=list)
    checkin_ms: List[float] = dataclasses.field(default_factory=list)
    lag_ms: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: (library, cell, activity) -> acked ok runs
    ok_runs: Dict[Tuple[str, str, str], int] = dataclasses.field(
        default_factory=dict
    )
    connections: int = 0
    wall_s: float = 0.0

    @property
    def ok_checkins(self) -> int:
        return len(self.checkin_ms)

    def settle(self, frame: Dict[str, Any], elapsed_ms: float, kind: str,
               key: Optional[Tuple[str, str, str]] = None) -> bool:
        """Count one reply; True when it was ok."""
        self.attempted += 1
        if not frame.get("ok"):
            self.failed += 1
            error = frame.get("error") or {}
            name = f"{kind}:{error.get('type', frame.get('status', 'unknown'))}"
            self.errors[name] = self.errors.get(name, 0) + 1
            return False
        if kind == "hello":
            self.hello_ms.append(elapsed_ms)
        else:
            self.checkin_ms.append(elapsed_ms)
            self.ok_runs[key] = self.ok_runs.get(key, 0) + 1
        return True

    def unbound(self) -> None:
        """Count a run whose ``hello`` failed as failed, whatever its reply.

        The server bound it to the connection's previous session; any
        version it committed is unplanned, so the version gate flags it.
        """
        self.attempted += 1
        self.failed += 1
        self.errors["run:unbound"] = self.errors.get("run:unbound", 0) + 1


def _hello(plan: Plan, resume: Optional[str] = None) -> Dict[str, Any]:
    frame = {
        "op": "hello",
        "user": plan.user,
        "team": plan.team,
        "library": plan.library,
        "project": plan.project,
    }
    if resume:
        frame["resume"] = resume
    return frame


def _run(plan: Plan, activity: str, script: str, key: str) -> Dict[str, Any]:
    return {
        "op": "run",
        "cell": plan.cell,
        "activity": activity,
        "script": script,
        "request_key": key,
    }


async def closed_loop(
    port: int,
    plans: Sequence[Plan],
    chain: Sequence[Tuple[str, str]],
    seed: int,
    seconds: float,
    clients: int,
    fresh_sessions: bool = False,
    reply_timeout_s: float = 60.0,
) -> LoadResult:
    """*clients* connections each rerun their designers' flow chains.

    With *fresh_sessions* every visit opens a new session for its
    designer (a ``hello`` without ``resume``); otherwise the sessions are
    opened before the load phase and each visit resumes its own.
    """
    result = LoadResult()
    order = session_order(seed, plans)
    conns = [await Connection.open(port) for _ in range(clients)]
    result.connections = len(conns)
    sessions: Dict[str, str] = {}
    if not fresh_sessions:
        # open every session first: the load phase measures reruns
        for index, plan in enumerate(order):
            (future,) = conns[index % clients].send([_hello(plan)])
            _, frame = await asyncio.wait_for(future, reply_timeout_s)
            if not frame.get("ok"):
                raise RuntimeError(f"session open refused: {frame!r}")
            sessions[plan.user] = frame["session"]

    started = time.perf_counter()
    deadline = started + seconds

    async def client(conn: Connection, own: List[Plan]) -> None:
        # generator lateness here is the gap from a reply to the next send
        ready_at = time.perf_counter()
        rounds = 0
        while True:
            for step, (activity, script) in enumerate(chain):
                for plan in own:
                    if time.perf_counter() >= deadline:
                        return
                    # the client serves its designers round-robin, so
                    # every run first binds the connection to a session
                    sent = time.perf_counter()
                    result.lag_ms.append((sent - ready_at) * 1e3)
                    hello_reply, run_reply = conn.send([
                        _hello(plan, sessions.get(plan.user)),
                        _run(plan, activity, script,
                             f"{plan.user}:{plan.cell}:{rounds}:{step}"),
                    ])
                    hello_at, hello = await asyncio.wait_for(
                        hello_reply, reply_timeout_s
                    )
                    bound = result.settle(
                        hello, (hello_at - sent) * 1e3, "hello"
                    )
                    done_at, frame = await asyncio.wait_for(
                        run_reply, reply_timeout_s
                    )
                    ready_at = time.perf_counter()
                    if bound:
                        result.settle(
                            frame, (done_at - sent) * 1e3, "run",
                            (plan.library, plan.cell, activity),
                        )
                    else:
                        result.unbound()
            rounds += 1

    await asyncio.gather(
        *(client(conn, order[index::clients]) for index, conn in enumerate(conns))
    )
    result.wall_s = time.perf_counter() - started
    for conn in conns:
        await conn.close()
    return result
