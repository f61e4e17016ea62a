"""E31d — design server: shard scaling, overload behaviour, identity.

E31 measured the multi-user value of the hybrid coupling with an
in-process simulation; this extension measures the *serving* layer that
carries the paper's 10³-designer population: per-library shards, batch
coalescing into group commits, and admission control.  Three
experiments:

1. **shard scaling at 10³ sessions** — the same 1024-designer scenario
   replayed through the serving engine at 1/2/4/8 shards.  Throughput
   is checkins per *simulated* second (simulated cost model, shard
   lanes overlap); the latency tail is p50/p95/p99 from submission to
   committed wave.  The acceptance bar: 4 shards sustain at least 2×
   the aggregate checkin throughput of 1 shard;
2. **overload at 2× offered rate** — a token bucket sized for half the
   offered load plus a bounded queue.  The server must shed the excess
   with typed ``ServerOverloadError`` rejections while the p95 of the
   *admitted* requests stays bounded (within 3× of the uncontended
   tail at the same shard count);
3. **batched/sharded ≡ sequential** — the final OMS snapshot after a
   coalesced, sharded, 4-worker replay is byte-identical to the same
   requests run with workers=1, rebuilt at the same filesystem root.

Run standalone (``python benchmarks/bench_server.py [--smoke]``) or via
``pytest benchmarks/bench_server.py --benchmark-only -s``; full runs
persist ``benchmarks/results/e31d_server.txt``.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.errors import ServerOverloadError
from repro.server.engine import ServeEngine
from repro.workloads.loadgen import ScenarioSpec, build_scenario, replay_engine
from repro.workloads.metrics import format_table, percentiles

#: shard counts for the scaling experiment
SHARD_COUNTS = [1, 2, 4, 8]
#: the paper's population: 32 teams x 32 designers = 1024 sessions
SPEC = ScenarioSpec(teams=32, designers_per_team=32, runs_per_designer=1)
#: runs coalesced per shard window before an eager flush
MAX_BATCH = 32
#: deadline bound on a window, simulated ms
WINDOW_MS = 2000.0
if os.environ.get("REPRO_BENCH_SMOKE"):
    SHARD_COUNTS = [1, 2, 4]
    SPEC = ScenarioSpec(teams=8, designers_per_team=8, runs_per_designer=1)
    MAX_BATCH = 8

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "e31d_server.txt"


def _fresh_root() -> pathlib.Path:
    return pathlib.Path(tempfile.mkdtemp(prefix="repro-e31d-")) / "env"


# -- experiment 1: shard scaling at 10^3 sessions ----------------------------


def run_scaling(
    shard_counts: List[int], spec: ScenarioSpec
) -> Tuple[List[List[str]], Dict[int, float], Dict[int, Dict[str, float]]]:
    rows: List[List[str]] = []
    throughput: Dict[int, float] = {}
    tails: Dict[int, Dict[str, float]] = {}
    for shards in shard_counts:
        root = _fresh_root()
        hybrid, plans = build_scenario(root, spec)
        engine = ServeEngine(
            hybrid, shards=shards, max_batch=MAX_BATCH, window_ms=WINDOW_MS
        )
        started = time.perf_counter()
        report = replay_engine(engine, plans, spec)
        wall_s = time.perf_counter() - started
        assert report.ok == spec.total_runs, (
            f"{report.ok}/{spec.total_runs} checkins at {shards} shards"
        )
        audit = hybrid.audit()
        assert audit.clean, f"dirty audit at {shards} shards"
        throughput[shards] = report.checkins_per_sim_s
        tails[shards] = report.latency_percentiles()
        rows.append(
            [
                shards,
                report.ok,
                f"{report.makespan_ms / 1000.0:.1f}",
                f"{throughput[shards]:.2f}",
                f"{tails[shards]['p50'] / 1000.0:.1f}",
                f"{tails[shards]['p95'] / 1000.0:.1f}",
                f"{tails[shards]['p99'] / 1000.0:.1f}",
                f"{wall_s:.0f}",
            ]
        )
        shutil.rmtree(root.parent, ignore_errors=True)
    return rows, throughput, tails


# -- experiment 2: overload at 2x the sustainable rate -----------------------


def run_overload(
    spec: ScenarioSpec, baseline_p95_ms: float
) -> Tuple[List[List[str]], Dict[str, float]]:
    """Offer the whole population at once against a bucket sized for
    half of it; the excess must be shed as typed rejections and the
    admitted tail must stay bounded."""
    shards = 4
    root = _fresh_root()
    hybrid, plans = build_scenario(root, spec)
    # arrivals land 1ms apart, so the whole population is offered over
    # total_runs ms; size each shard's bucket (burst + refill over that
    # horizon) for half its fair share, making offered:sustainable 2:1
    horizon_s = spec.total_runs / 1000.0
    tokens_per_shard = max((spec.total_runs / 2.0) / shards, 2.0)
    burst = max(int(tokens_per_shard / 8), 2)
    per_shard_rate = max((tokens_per_shard - burst) / horizon_s, 1.0)
    engine = ServeEngine(
        hybrid,
        shards=shards,
        max_batch=MAX_BATCH,
        window_ms=WINDOW_MS,
        queue_depth=max(spec.sessions // shards, 8),
        admission_rate_per_s=per_shard_rate,
        admission_burst=burst,
    )
    report = replay_engine(engine, plans, spec)
    audit = hybrid.audit()
    assert audit.clean, "dirty audit under overload"
    shutil.rmtree(root.parent, ignore_errors=True)

    rejected = sum(report.rejected.values())
    assert rejected > 0, "2x overload produced no rejections"
    assert report.admitted + rejected == report.submitted
    assert report.ok == report.admitted, "an admitted run was lost"
    tail = percentiles(report.latencies_ms)
    bound_ms = 3.0 * baseline_p95_ms
    assert tail["p95"] <= bound_ms, (
        f"admitted p95 {tail['p95']:.0f}ms blew the {bound_ms:.0f}ms bound"
    )

    metrics = {
        "offered": float(report.submitted),
        "admitted": float(report.admitted),
        "rejected": float(rejected),
        "admitted_p95_ms": tail["p95"],
        "bound_ms": bound_ms,
    }
    rows = [
        ["offered", report.submitted, "-"],
        ["admitted", report.admitted, f"{tail['p95'] / 1000.0:.1f}"],
        [
            "rejected",
            rejected,
            ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(report.rejected.items())
            ),
        ],
    ]
    return rows, metrics


# -- experiment 3: batched/sharded == sequential -----------------------------


def run_identity(spec: ScenarioSpec) -> Tuple[List[List[str]], bool]:
    """Same requests, same root path, workers=1 vs workers=4: the final
    checkpoint must not differ by a byte."""
    root = _fresh_root()
    digests: List[bytes] = []
    for workers in (1, 4):
        hybrid, plans = build_scenario(root, spec)
        engine = ServeEngine(
            hybrid, shards=4, max_batch=MAX_BATCH, window_ms=WINDOW_MS,
            workers=workers,
        )
        report = replay_engine(engine, plans, spec)
        assert report.ok == spec.total_runs
        digests.append(hybrid.save_state().read_bytes())
        shutil.rmtree(root, ignore_errors=True)
    shutil.rmtree(root.parent, ignore_errors=True)
    identical = digests[0] == digests[1]
    rows = [
        ["workers=1", len(digests[0])],
        ["workers=4", len(digests[1])],
        ["identical", identical],
    ]
    return rows, identical


# -- report -----------------------------------------------------------------


def run_bench(shard_counts: List[int], spec: ScenarioSpec):
    scaling_rows, throughput, tails = run_scaling(shard_counts, spec)
    # identity on a smaller population: the property is structural, the
    # full population only makes the diff slower to compute
    identity_spec = ScenarioSpec(
        teams=min(spec.teams, 4),
        designers_per_team=min(spec.designers_per_team, 4),
        runs_per_designer=spec.runs_per_designer,
    )
    overload_rows, overload = run_overload(spec, tails[4]["p95"])
    identity_rows, identical = run_identity(identity_spec)

    report = "\n".join(
        [
            "E31d: design server (sharding, coalescing, admission)",
            "",
            f"shard scaling ({spec.sessions} sessions, batch<={MAX_BATCH}, "
            f"window {WINDOW_MS:.0f}ms, simulated time):",
            format_table(
                [
                    "shards", "checkins", "makespan_s", "chk/sim_s",
                    "p50_s", "p95_s", "p99_s", "wall_s",
                ],
                scaling_rows,
            ),
            "",
            "overload at 2x the sustainable rate (4 shards, "
            "token bucket + bounded queue):",
            format_table(["requests", "count", "p95_s / reasons"],
                         overload_rows),
            "",
            "batched/sharded vs sequential, same root "
            f"({identity_spec.sessions} sessions):",
            format_table(["arm", "snapshot"], identity_rows),
        ]
    )

    # -- shape assertions ---------------------------------------------------
    speedup = throughput[4] / throughput[1]
    assert speedup >= 2.0, (
        f"4 shards gave only {speedup:.2f}x the 1-shard throughput"
    )
    assert identical, "sharded snapshot diverged from the sequential one"
    metrics = {
        "throughput": throughput,
        "speedup_4v1": speedup,
        "tails": tails,
        "overload": overload,
        "identical": identical,
    }
    return report, metrics


class TestServerBench:
    def test_e31d_server(self, benchmark, report_writer):
        report, metrics = run_bench(SHARD_COUNTS, SPEC)
        report_writer("e31d_server", report)
        # real wall time of the hot path: admit + coalesce one request
        root = _fresh_root()
        small = ScenarioSpec(teams=1, designers_per_team=1,
                             runs_per_designer=1)
        hybrid, plans = build_scenario(root, small)
        engine = ServeEngine(hybrid, shards=1, max_batch=10**6,
                             window_ms=1e12, queue_depth=10**7)
        plan = plans[0]
        session = engine.open_session(
            plan.user, plan.team, plan.library, plan.project
        )

        def submit():
            engine.submit(
                session, plan.cells[0], "schematic_entry", kwargs={},
                now_ms=0.0,
            )

        benchmark(submit)
        shutil.rmtree(root.parent, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, no results file (CI)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        shard_counts = [1, 2, 4]
        spec = ScenarioSpec(teams=8, designers_per_team=8,
                            runs_per_designer=1)
    else:
        shard_counts = SHARD_COUNTS
        spec = SPEC
    report, metrics = run_bench(shard_counts, spec)
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    print(
        f"OK: {metrics['speedup_4v1']:.2f}x throughput at 4 shards vs 1; "
        f"shed {metrics['overload']['rejected']:.0f}/"
        f"{metrics['overload']['offered']:.0f} under 2x overload with "
        f"admitted p95 {metrics['overload']['admitted_p95_ms'] / 1000.0:.1f}s; "
        f"snapshots identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
