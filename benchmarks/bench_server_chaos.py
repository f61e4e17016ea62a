"""E31e — design server under network chaos: fencing, availability, retries.

E31d measured the serving layer on a kind network; this extension
measures it on a hostile one.  Two experiments:

1. **availability with a wedged shard** — the population replayed with
   one shard's first wave wedged by an injected dispatch fault; its
   circuit breaker (threshold 1, effectively infinite cooldown) fences
   the shard for the rest of the replay.  Requests hashed to the fenced
   shard are refused fail-fast with typed ``ShardUnavailableError``;
   the acceptance bar is that the *healthy* shards keep serving: their
   availability stays at or above 90% and their p95 latency within 3×
   the no-chaos baseline at the same shard count;
2. **seeded socket chaos soak** — real protocol clients replayed
   against a live server while seeded fault schedules tear reads, eat
   acks and wedge dispatches.  Clients reconnect, resume their session
   and retry idempotently.  The bar: zero double commits (no cellview
   gains more than one version per planned run), zero dropped sessions
   within the retry budget, and a clean recover+audit after the storm.

Run standalone (``python benchmarks/bench_server_chaos.py [--smoke]``)
or via ``pytest benchmarks/bench_server_chaos.py --benchmark-only -s``;
full runs persist ``benchmarks/results/e31e_server_chaos.txt``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import random
import shutil
import sys
import tempfile
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.errors import ShardUnavailableError
from repro.faults import KIND_TRANSIENT, FaultPlan, FaultRule, inject
from repro.server.engine import ServeEngine
from repro.server.protocol import ScriptCatalog
from repro.workloads.loadgen import (
    ScenarioSpec,
    build_scenario,
    replay_engine,
    replay_socket,
    snapshot_cell_versions,
)
from repro.workloads.metrics import format_table, percentiles

SHARDS = 4
SPEC = ScenarioSpec(teams=16, designers_per_team=8, runs_per_designer=1)
SOAK_SPEC = ScenarioSpec(teams=4, designers_per_team=4, runs_per_designer=1)
SOAK_SEEDS = [11, 23, 47]
MAX_BATCH = 8
WINDOW_MS = 500.0
#: healthy shards must keep at least this fraction of their requests ok
AVAILABILITY_FLOOR = 0.90
#: ...at a latency tail within this factor of the no-chaos baseline
TAIL_FACTOR = 3.0
if os.environ.get("REPRO_BENCH_SMOKE"):
    SPEC = ScenarioSpec(teams=8, designers_per_team=4, runs_per_designer=1)
    SOAK_SPEC = ScenarioSpec(teams=2, designers_per_team=2,
                             runs_per_designer=1)
    SOAK_SEEDS = [11]

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "e31e_server_chaos.txt"
)
KWARGS = ScriptCatalog().resolve("schematic_entry", "idempotent_inverter", {})


def _fresh_root() -> pathlib.Path:
    return pathlib.Path(tempfile.mkdtemp(prefix="repro-e31e-")) / "env"


# -- experiment 1: availability with a wedged shard --------------------------


def _drive_with_fenced_shard(
    hybrid, plans, spec: ScenarioSpec
) -> Tuple[Dict[int, Dict[str, float]], List[int], List]:
    """Replay the population while the first shard to flush is wedged.

    Returns per-shard tallies, the list of fenced shard ids, and the
    completed pendings of healthy shards.
    """
    engine = ServeEngine(
        hybrid,
        shards=SHARDS,
        max_batch=MAX_BATCH,
        window_ms=WINDOW_MS,
        breaker_threshold=1,
        breaker_cooldown_ms=1e9,  # never half-opens within the replay
    )
    sessions = [
        engine.open_session(p.user, p.team, p.library, p.project)
        for p in plans
    ]
    tallies: Dict[int, Dict[str, float]] = {
        shard: {"submitted": 0, "ok": 0, "refused": 0, "shed": 0}
        for shard in range(SHARDS)
    }
    pendings = []
    now = engine.epoch_ms
    since_pump = 0
    # the wedge: the first wave to flush dies in dispatch; with
    # threshold 1 that single failure fences its shard for good
    with inject(FaultPlan.transient("server.dispatch", on_hit=1)):
        for session, plan in zip(sessions, plans):
            for cell in plan.cells:
                now += 1.0
                tally = tallies[session.shard_id]
                tally["submitted"] += 1
                try:
                    pending = engine.submit(
                        session, cell, "schematic_entry",
                        kwargs=KWARGS, now_ms=now,
                    )
                    pendings.append((session.shard_id, pending))
                except ShardUnavailableError:
                    tally["refused"] += 1
                since_pump += 1
                if since_pump >= MAX_BATCH:
                    engine.pump(now)
                    since_pump = 0
        engine.drain(now)
    fenced = [
        shard for shard in range(SHARDS)
        if engine.stats()["per_shard"][shard]["breaker"]["state"] == "open"
    ]
    healthy_ok = []
    for shard_id, pending in pendings:
        if pending.outcome is not None and pending.outcome.ok:
            tallies[shard_id]["ok"] += 1
            if shard_id not in fenced:
                healthy_ok.append(pending)
        else:
            tallies[shard_id]["shed"] += 1
    engine.close()
    return tallies, fenced, healthy_ok


def run_availability(spec: ScenarioSpec):
    # baseline arm: same population, same shape, no chaos
    root = _fresh_root()
    hybrid, plans = build_scenario(root, spec)
    engine = ServeEngine(
        hybrid, shards=SHARDS, max_batch=MAX_BATCH, window_ms=WINDOW_MS
    )
    baseline = replay_engine(engine, plans, spec)
    assert baseline.ok == spec.total_runs, "baseline replay lost runs"
    baseline_p95 = percentiles(baseline.latencies_ms)["p95"]
    shutil.rmtree(root.parent, ignore_errors=True)

    # chaos arm
    root = _fresh_root()
    hybrid, plans = build_scenario(root, spec)
    tallies, fenced, healthy_ok = _drive_with_fenced_shard(
        hybrid, plans, spec
    )
    audit = hybrid.audit()
    assert audit.clean, "dirty audit after the fenced-shard replay"
    shutil.rmtree(root.parent, ignore_errors=True)

    assert len(fenced) == 1, f"expected exactly one fenced shard: {fenced}"
    healthy_submitted = sum(
        tallies[s]["submitted"] for s in range(SHARDS) if s not in fenced
    )
    healthy_served = sum(
        tallies[s]["ok"] for s in range(SHARDS) if s not in fenced
    )
    availability = (
        healthy_served / healthy_submitted if healthy_submitted else 0.0
    )
    healthy_p95 = percentiles([p.latency_ms for p in healthy_ok])["p95"]
    bound_ms = TAIL_FACTOR * baseline_p95

    rows = []
    for shard in range(SHARDS):
        tally = tallies[shard]
        rows.append([
            shard,
            "fenced" if shard in fenced else "healthy",
            int(tally["submitted"]),
            int(tally["ok"]),
            int(tally["refused"]),
            int(tally["shed"]),
        ])
    rows.append([
        "all-healthy", f"{availability * 100.0:.1f}% avail",
        healthy_submitted, healthy_served, "-", "-",
    ])

    assert availability >= AVAILABILITY_FLOOR, (
        f"healthy-shard availability {availability:.3f} fell below "
        f"{AVAILABILITY_FLOOR}"
    )
    assert healthy_p95 <= bound_ms, (
        f"healthy p95 {healthy_p95:.0f}ms blew the {bound_ms:.0f}ms bound "
        f"(baseline {baseline_p95:.0f}ms)"
    )
    metrics = {
        "availability": availability,
        "baseline_p95_ms": baseline_p95,
        "healthy_p95_ms": healthy_p95,
        "bound_ms": bound_ms,
        "fenced_shard": fenced[0],
    }
    return rows, metrics


# -- experiment 2: seeded socket chaos soak ----------------------------------


def _chaos_plan(seed: int) -> FaultPlan:
    rng = random.Random(seed)
    rules = []
    for point in ("net.read", "net.write"):
        rules.append(FaultRule(
            point, KIND_TRANSIENT,
            on_hit=rng.randint(2, 6), times=rng.randint(1, 2),
        ))
    rules.append(FaultRule(
        "server.dispatch", KIND_TRANSIENT, on_hit=rng.randint(1, 3), times=1,
    ))
    return FaultPlan(rules)


def run_soak(spec: ScenarioSpec, seeds: List[int]):
    from repro.server.design_server import DesignServer

    rows = []
    totals = {"ok": 0, "retries": 0, "dedupe_hits": 0, "dropped": 0,
              "double_commits": 0}
    for seed in seeds:
        root = _fresh_root()
        hybrid, plans = build_scenario(root, spec)
        before = snapshot_cell_versions(hybrid, plans)

        async def exercise():
            server = DesignServer(
                hybrid, shards=2, max_batch=4, window_ms=10.0,
                breaker_threshold=3, breaker_cooldown_ms=50.0,
            )
            host, port = await server.start()
            try:
                with inject(_chaos_plan(seed)):
                    return await replay_socket(
                        host, port, plans, spec,
                        retry_overload=5, seed=seed,
                        ack_timeout_ms=1_000.0,
                    )
            finally:
                await server.stop()

        report = asyncio.run(exercise())
        after = snapshot_cell_versions(hybrid, plans)
        double_commits = sum(
            max(0, after[key] - before.get(key, 0) - 1) for key in after
        )
        hybrid.recover()
        audit = hybrid.audit()
        assert audit.clean, f"dirty audit after chaos seed {seed}"
        shutil.rmtree(root.parent, ignore_errors=True)

        rows.append([
            seed, report.ok, report.retries, report.dedupe_hits,
            report.dropped_sessions, double_commits,
        ])
        totals["ok"] += report.ok
        totals["retries"] += report.retries
        totals["dedupe_hits"] += report.dedupe_hits
        totals["dropped"] += report.dropped_sessions
        totals["double_commits"] += double_commits

    assert totals["double_commits"] == 0, "a retry double-committed"
    assert totals["dropped"] == 0, (
        "a session was dropped inside its retry budget"
    )
    assert totals["ok"] > 0, "the soak made no progress"
    return rows, totals


# -- report -----------------------------------------------------------------


def run_bench(spec: ScenarioSpec, soak_spec: ScenarioSpec,
              seeds: List[int]):
    availability_rows, availability = run_availability(spec)
    soak_rows, soak = run_soak(soak_spec, seeds)

    report = "\n".join(
        [
            "E31e: design server under network chaos "
            "(fencing, availability, idempotent retries)",
            "",
            f"availability with one shard wedged ({spec.sessions} "
            f"sessions, {SHARDS} shards, breaker threshold 1):",
            format_table(
                ["shard", "state", "submitted", "ok", "refused", "shed"],
                availability_rows,
            ),
            "",
            f"healthy p95 {availability['healthy_p95_ms']:.0f}ms vs "
            f"baseline {availability['baseline_p95_ms']:.0f}ms "
            f"(bound {availability['bound_ms']:.0f}ms)",
            "",
            f"seeded socket chaos soak ({soak_spec.sessions} sessions "
            "per seed, torn reads + eaten acks + wedged dispatch):",
            format_table(
                ["seed", "ok", "retries", "deduped", "dropped",
                 "double_commits"],
                soak_rows,
            ),
        ]
    )
    metrics = {"availability": availability, "soak": soak}
    return report, metrics


class TestServerChaosBench:
    def test_e31e_server_chaos(self, benchmark, report_writer):
        report, metrics = run_bench(SPEC, SOAK_SPEC, SOAK_SEEDS)
        report_writer("e31e_server_chaos", report)
        # real wall time of the hot path the hardening added: grant,
        # fence-check and release one lease
        from repro.server.leases import LeaseTable

        table = LeaseTable(ttl_ms=30_000.0)
        tick = iter(range(10**9))

        def lease_roundtrip():
            now = float(next(tick))
            lease = table.acquire("s1", "u1", "lib", "cell", now_ms=now)
            table.validate(lease.key, lease.token, now_ms=now)
            table.release("s1", lease.key)

        benchmark(lease_roundtrip)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no results file (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        spec = ScenarioSpec(teams=8, designers_per_team=4,
                            runs_per_designer=1)
        soak_spec = ScenarioSpec(teams=2, designers_per_team=2,
                                 runs_per_designer=1)
        seeds = [11]
    else:
        spec = SPEC
        soak_spec = SOAK_SPEC
        seeds = SOAK_SEEDS
    report, metrics = run_bench(spec, soak_spec, seeds)
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    availability = metrics["availability"]
    soak = metrics["soak"]
    print(
        f"OK: healthy-shard availability "
        f"{availability['availability'] * 100.0:.1f}% with shard "
        f"{availability['fenced_shard']} fenced; healthy p95 "
        f"{availability['healthy_p95_ms']:.0f}ms <= "
        f"{availability['bound_ms']:.0f}ms; soak committed "
        f"{soak['ok']} runs with {soak['retries']} retries, "
        f"{soak['dedupe_hits']} deduped, 0 double commits"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
