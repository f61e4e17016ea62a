"""Load generator: the paper's multi-user scenario at serving scale.

Section 3.1 describes many designers in many teams working concurrently
against one coupled framework.  :mod:`repro.workloads.sessions` replays
that scenario in-process at tens of designers; this module scales it to
10³–10⁴ *served* designer sessions for the design server:

* :func:`build_scenario` — construct the multi-team environment (one
  library + project per team, one prepared cell per designer request);
* :func:`replay_engine` — deterministic replay straight into a
  :class:`~repro.server.engine.ServeEngine` (the benchmark arm: exact
  simulated latencies, reproducible snapshots);
* :func:`replay_socket` — real asyncio clients speaking the wire
  protocol against a running :class:`DesignServer` (the integration
  arm: dropped-session accounting, used by the CI smoke job);
* a ``__main__`` entry point that boots a server in-process, replays a
  scenario over sockets and reports JSON (exit non-zero on dropped
  sessions or a dirty audit).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServerOverloadError
from repro.workloads.metrics import percentiles


@dataclasses.dataclass
class ScenarioSpec:
    """Shape of one multi-team serving scenario."""

    teams: int = 4
    designers_per_team: int = 4
    runs_per_designer: int = 1
    activity: str = "schematic_entry"
    script: str = "idempotent_inverter"
    params: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def sessions(self) -> int:
        return self.teams * self.designers_per_team

    @property
    def total_runs(self) -> int:
        return self.sessions * self.runs_per_designer


@dataclasses.dataclass
class SessionPlan:
    """One designer session: who they are and what they will run."""

    user: str
    team: str
    library: str
    project: str
    cells: List[str]


@dataclasses.dataclass
class ReplayReport:
    """What happened when a scenario was replayed."""

    sessions: int = 0
    dropped_sessions: int = 0
    submitted: int = 0
    admitted: int = 0
    rejected: Dict[str, int] = dataclasses.field(default_factory=dict)
    completed: int = 0
    ok: int = 0
    #: rejected-then-retried requests (capped jittered exponential backoff)
    retries: int = 0
    #: retries the server answered from its idempotency window instead of
    #: re-running — each one is a double commit that did not happen
    dedupe_hits: int = 0
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    makespan_ms: float = 0.0
    wall_s: float = 0.0

    @property
    def checkins_per_sim_s(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return self.ok / (self.makespan_ms / 1000.0)

    def latency_percentiles(self) -> Dict[str, float]:
        return percentiles(self.latencies_ms)

    def summary(self) -> Dict[str, Any]:
        return {
            "sessions": self.sessions,
            "dropped_sessions": self.dropped_sessions,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": dict(self.rejected),
            "completed": self.completed,
            "ok": self.ok,
            "retries": self.retries,
            "dedupe_hits": self.dedupe_hits,
            "makespan_ms": round(self.makespan_ms, 1),
            "checkins_per_sim_s": round(self.checkins_per_sim_s, 2),
            "latency_ms": {
                k: round(v, 1) for k, v in self.latency_percentiles().items()
            },
        }


def build_scenario(
    root: pathlib.Path,
    spec: ScenarioSpec,
    persistence: str = "wal",
) -> Tuple[Any, List[SessionPlan]]:
    """Build a fresh multi-team environment for *spec*.

    Each team owns its own FMCAD library (the sharding unit) and JCF
    project; each designer gets one prepared cell per planned run, so
    the offered load carries no artificial write conflicts — contention
    under test is the server's, not the scenario's.

    *persistence* is a compatibility keyword: WAL + checkpoint is the
    only persistence, so it accepts ``"wal"`` (what benchmark manifests
    pin) and raises :class:`ValueError` for anything else.
    """
    from repro.core.coupling import HybridFramework

    if persistence != "wal":
        raise ValueError(
            f"unsupported persistence {persistence!r}: WAL + checkpoint "
            "is the only persistence"
        )
    hybrid = HybridFramework(root)
    resources = hybrid.jcf.resources
    hybrid.setup_standard_flow()
    plans: List[SessionPlan] = []
    for t in range(spec.teams):
        team = f"team{t:03d}"
        library_name = f"lib{t:03d}"
        project_name = f"proj{t:03d}"
        resources.define_team("admin", team)
        library = hybrid.fmcad.create_library(library_name)
        team_plans: List[SessionPlan] = []
        for d in range(spec.designers_per_team):
            user = f"u{t:03d}d{d:03d}"
            resources.define_user("admin", user)
            resources.add_member("admin", user, team)
            cells = [
                f"t{t:03d}d{d:03d}c{r:03d}"
                for r in range(spec.runs_per_designer)
            ]
            for cell in cells:
                library.create_cell(cell)
            team_plans.append(
                SessionPlan(
                    user=user,
                    team=team,
                    library=library_name,
                    project=project_name,
                    cells=cells,
                )
            )
        project = hybrid.adopt_library(
            team_plans[0].user, library, project_name
        )
        resources.assign_team_to_project("admin", team, project.oid)
        for plan in team_plans:
            for cell in plan.cells:
                hybrid.prepare_cell(
                    plan.user, project, cell, team_name=team
                )
        library.flush_meta("setup")
        plans.extend(team_plans)
    return hybrid, plans


# -- deterministic engine replay --------------------------------------------


def replay_engine(
    engine,
    plans: List[SessionPlan],
    spec: ScenarioSpec,
    interarrival_ms: float = 1.0,
    pump_every: int = 64,
) -> ReplayReport:
    """Replay *plans* straight into a :class:`ServeEngine`.

    Arrivals interleave round-robin across sessions (designer 1 of every
    team, then designer 2, ...) spaced *interarrival_ms* apart on the
    simulated timeline — the storm profile of "everyone hits commit
    around the same time".  The engine is pumped every *pump_every*
    arrivals and drained at the end; with a deterministic engine the
    whole replay is a pure function of (plans, spec, engine config).
    """
    from repro.server.protocol import ScriptCatalog

    catalog = ScriptCatalog()
    report = ReplayReport(sessions=len(plans))
    sessions = [
        engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )
        for plan in plans
    ]
    kwargs = catalog.resolve(spec.activity, spec.script, spec.params)
    now = engine.epoch_ms
    since_pump = 0
    for round_index in range(spec.runs_per_designer):
        for session, plan in zip(sessions, plans):
            now += interarrival_ms
            report.submitted += 1
            try:
                engine.submit(
                    session,
                    plan.cells[round_index],
                    spec.activity,
                    kwargs=kwargs,
                    now_ms=now,
                )
                report.admitted += 1
            except ServerOverloadError as exc:
                report.rejected[exc.reason] = (
                    report.rejected.get(exc.reason, 0) + 1
                )
            since_pump += 1
            if since_pump >= pump_every:
                engine.pump(now)
                since_pump = 0
    engine.drain(now)
    completed = engine.completed()
    report.completed = len(completed)
    report.ok = sum(1 for p in completed if p.outcome and p.outcome.ok)
    report.latencies_ms = [p.latency_ms for p in completed]
    report.makespan_ms = engine.makespan_ms
    return report


# -- socket replay (real clients) -------------------------------------------


#: server refusals worth retrying — each carries a ``retry_after_ms`` hint
RETRYABLE_ERRORS = (
    "ServerOverloadError",
    "ShardUnavailableError",
    "DeadlineExceededError",
)


async def replay_socket(
    host: str,
    port: int,
    plans: List[SessionPlan],
    spec: ScenarioSpec,
    max_concurrent: int = 64,
    retry_overload: int = 3,
    deadline_ms: Optional[float] = None,
    seed: int = 0,
    ack_timeout_ms: Optional[float] = 30_000.0,
) -> ReplayReport:
    """Replay *plans* as real protocol clients against a live server.

    Each session is one connection: hello, its runs (awaiting each
    answer), bye.  Every run carries a ``request_key``, so the retry
    contract holds end to end: a retryable refusal (overload, fenced
    shard, missed deadline), a *lost connection mid-request* or an
    answer that never arrives within *ack_timeout_ms* (the frame was
    eaten by the wire, though the link looks alive) retries up to
    *retry_overload* times with capped jittered exponential backoff
    that honors the server's ``retry_after_ms`` hint — reconnecting and
    resuming the session when the link died, and counting answers the
    server deduped instead of re-running.  A session that cannot connect,
    errors out mid-protocol beyond its retry budget or misses an answer
    counts as *dropped* — the CI smoke gate asserts that number is zero.
    """
    import asyncio
    import random

    from repro.server.protocol import encode_frame

    report = ReplayReport(sessions=len(plans))
    gate = asyncio.Semaphore(max_concurrent)
    latencies: List[float] = []

    async def one_session(plan: SessionPlan, index: int) -> Dict[str, Any]:
        rng = random.Random((seed << 16) ^ index)
        counts = {
            "submitted": 0,
            "admitted": 0,
            "ok": 0,
            "dropped": 0,
            "retries": 0,
            "dedupe_hits": 0,
        }
        rejected: Dict[str, int] = {}
        session_id: Optional[str] = None
        reader: Optional[asyncio.StreamReader] = None
        writer: Optional[asyncio.StreamWriter] = None

        def close() -> None:
            if writer is not None:
                try:
                    writer.close()
                except Exception:
                    pass

        async def call(payload: Dict[str, Any]) -> Dict[str, Any]:
            writer.write(encode_frame(payload))
            await writer.drain()
            if ack_timeout_ms is None:
                line = await reader.readline()
            else:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=ack_timeout_ms / 1000.0
                    )
                except asyncio.TimeoutError:
                    # the answer was lost on the wire; the link is no
                    # longer trustworthy — treat it like a dead peer
                    raise ConnectionError("no answer within ack timeout")
            if not line:
                raise ConnectionError("server closed mid-request")
            return json.loads(line)

        async def connect() -> None:
            nonlocal reader, writer, session_id
            close()
            reader, writer = await asyncio.open_connection(host, port)
            payload = {
                "op": "hello",
                "id": 0,
                "user": plan.user,
                "team": plan.team,
                "library": plan.library,
                "project": plan.project,
            }
            if session_id is not None:
                # rebind to the surviving session: leases and the
                # idempotency window carry across the reconnect
                payload["resume"] = session_id
            hello = await call(payload)
            if not hello.get("ok"):
                raise ConnectionError(f"hello refused: {hello.get('error')}")
            session_id = hello.get("session", session_id)

        async def backoff(attempts: int, hint_ms: Optional[float]) -> None:
            # capped jittered exponential backoff; the server's advisory
            # hint raises the floor (a 0.0 hint means "retry now")
            base = 25.0 * (2 ** (attempts - 1))
            if hint_ms is not None:
                base = max(base, float(hint_ms))
            delay_ms = min(base, 500.0) * rng.uniform(0.75, 1.25)
            await asyncio.sleep(delay_ms / 1000.0)

        async def connect_with_retry() -> None:
            # the connection (and its hello ack) can be eaten by the
            # same hostile network as any run answer — retry it too
            attempt = 0
            while True:
                try:
                    await connect()
                    return
                except (OSError, ConnectionError,
                        asyncio.IncompleteReadError):
                    attempt += 1
                    if attempt > retry_overload:
                        raise
                    counts["retries"] += 1
                    await backoff(attempt, None)

        try:
            async with gate:
                await connect_with_retry()
                try:
                    for run_index, cell in enumerate(plan.cells):
                        counts["submitted"] += 1
                        request_key = f"{plan.user}:{cell}:{run_index}"
                        attempts = 0
                        while True:
                            request: Dict[str, Any] = {
                                "op": "run",
                                "id": run_index + 1,
                                "cell": cell,
                                "activity": spec.activity,
                                "script": spec.script,
                                "params": spec.params,
                                "request_key": request_key,
                            }
                            if deadline_ms is not None:
                                request["deadline_ms"] = deadline_ms
                            try:
                                answer = await call(request)
                            except (OSError, ConnectionError):
                                # lost ack: the run may have committed.
                                # Reconnect, resume, retry the same
                                # request_key — dedupe makes it safe
                                if attempts >= retry_overload:
                                    raise
                                attempts += 1
                                counts["retries"] += 1
                                await backoff(attempts, None)
                                await connect_with_retry()
                                continue
                            if answer.get("deduped"):
                                counts["dedupe_hits"] += 1
                            if answer.get("ok"):
                                counts["admitted"] += 1
                                counts["ok"] += 1
                                latencies.append(
                                    float(answer.get("latency_ms", 0.0))
                                )
                                break
                            error = answer.get("error", {})
                            if (
                                error.get("type") in RETRYABLE_ERRORS
                                and attempts < retry_overload
                            ):
                                attempts += 1
                                counts["retries"] += 1
                                reason = "retried"
                                rejected[reason] = rejected.get(reason, 0) + 1
                                await backoff(
                                    attempts, error.get("retry_after_ms")
                                )
                                continue
                            reason = error.get("type", "unknown")
                            rejected[reason] = rejected.get(reason, 0) + 1
                            break
                    await call({"op": "bye", "id": 99})
                finally:
                    close()
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            counts["dropped"] = 1
        return {**counts, "rejected": rejected}

    results = await asyncio.gather(
        *(one_session(plan, index) for index, plan in enumerate(plans))
    )
    for outcome in results:
        report.submitted += outcome["submitted"]
        report.admitted += outcome["admitted"]
        report.ok += outcome["ok"]
        report.retries += outcome["retries"]
        report.dedupe_hits += outcome["dedupe_hits"]
        report.dropped_sessions += outcome["dropped"]
        for reason, count in outcome["rejected"].items():
            report.rejected[reason] = report.rejected.get(reason, 0) + count
    report.completed = report.ok
    report.latencies_ms = latencies
    return report


def snapshot_cell_versions(hybrid, plans: List[SessionPlan]) -> Dict[Tuple[str, str], int]:
    """Per-cellview version counts across the scenario's libraries.

    Taken before and after a replay, the difference proves the retry
    contract: a cellview gaining more than one version for a single
    planned run means a duplicate retry double-committed.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for library_name in sorted({plan.library for plan in plans}):
        library = hybrid.fmcad.library(library_name)
        for cellview in library.cellviews():
            counts[(library_name, cellview.name)] = len(cellview.versions)
    return counts


# -- CI smoke entry point ----------------------------------------------------


async def _smoke(args) -> int:
    import asyncio
    import shutil
    import tempfile
    import time

    from repro.server.design_server import DesignServer

    spec = ScenarioSpec(
        teams=args.teams,
        designers_per_team=args.designers,
        runs_per_designer=args.runs,
    )
    if args.root:
        root = pathlib.Path(args.root)
        cleanup = None
    else:
        cleanup = pathlib.Path(tempfile.mkdtemp(prefix="repro-loadgen-"))
        root = cleanup / "env"
    try:
        hybrid, plans = build_scenario(root, spec)
        server = DesignServer(
            hybrid,
            shards=args.shards,
            max_batch=args.max_batch,
            window_ms=args.window_ms,
            queue_depth=args.queue_depth,
            workers=args.workers,
        )
        await server.start()
        before = snapshot_cell_versions(hybrid, plans)
        started = time.perf_counter()
        report = await replay_socket(
            server.host, server.port, plans, spec,
            max_concurrent=args.max_concurrent,
        )
        report.wall_s = time.perf_counter() - started
        await server.stop()
        audit = hybrid.audit()
        after = snapshot_cell_versions(hybrid, plans)
        # every planned run targets its own prepared cell exactly once,
        # so any cellview gaining more than one version means a retry
        # double-committed — the one outcome the dedupe window forbids
        double_commits = sum(
            max(0, after[key] - before.get(key, 0) - 1) for key in after
        )
        payload = report.summary()
        payload["wall_s"] = round(report.wall_s, 2)
        payload["audit_clean"] = audit.clean
        payload["audit_findings"] = len(audit.findings)
        payload["double_commits"] = double_commits
        payload["server_stats"] = {
            "shards": server.engine.shard_map.shards,
            "completed_runs": len(server.engine.completed()),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        failed = (
            report.dropped_sessions > 0
            or not audit.clean
            or report.ok < spec.total_runs
            or double_commits > 0
        )
        return 1 if failed else 0
    finally:
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    import asyncio

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--teams", type=int, default=4)
    parser.add_argument("--designers", type=int, default=4)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--window-ms", type=float, default=25.0)
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--max-concurrent", type=int, default=32)
    parser.add_argument(
        "--root", default=None,
        help="workspace directory (default: a throwaway tempdir)",
    )
    args = parser.parse_args(argv)
    return asyncio.run(_smoke(args))


if __name__ == "__main__":
    import sys

    sys.exit(main())
