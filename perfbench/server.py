"""Server process of the serving benchmark.

``serve`` builds the workload's scenario with
:func:`repro.workloads.loadgen.build_scenario`, boots a
:class:`~repro.server.design_server.DesignServer` with the pinned
configuration of ``manifest.json`` and prints one JSON line::

    {"ready": true, "port": ..., "plans": [...]}

It then serves until a line arrives on stdin: ``stop`` drains the server
gracefully and prints a JSON summary (peak RSS, audit, version counts,
engine statistics and counters); ``quit`` drains and exits silently
(set-up-only repetitions).

``restart`` reopens the stopped workspace with
``HybridFramework.reopen`` + ``recover()``, times it, and prints the
reopened workspace's audit and version counts.

With ``--trace PATH`` the layer boundaries are wrapped by
:mod:`spans` and the spans are written to PATH as JSON lines at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import spans

MANIFEST = pathlib.Path(__file__).with_name("manifest.json")


def emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def fmcad_counts(hybrid) -> Dict[str, int]:
    """``library/cell/view`` -> FMCAD version count, over every library."""
    counts: Dict[str, int] = {}
    for name in sorted(hybrid.fmcad.known_library_names()):
        for cellview in hybrid.fmcad.library(name).cellviews():
            counts[f"{name}/{cellview.name}"] = len(cellview.versions)
    return counts


def fmcad_cells(hybrid) -> int:
    """FMCAD cells over every library, with or without versions."""
    return sum(
        len(hybrid.fmcad.library(name).cells())
        for name in hybrid.fmcad.known_library_names()
    )


def jcf_counts(hybrid, projects: List[str]) -> Dict[str, int]:
    """``project/cell`` -> JCF cell-version count."""
    counts: Dict[str, int] = {}
    for project_name in projects:
        for cell in hybrid.jcf.project(project_name).cells():
            counts[f"{project_name}/{cell.name}"] = len(cell.versions())
    return counts


def counters(hybrid) -> Dict[str, int]:
    """Cumulative layer counters sampled around the load phase."""
    cache = hybrid.read_cache.stats() if hybrid.read_cache else {}
    wal = hybrid.jcf.wal.stats()
    return {
        "wal_bytes": wal["bytes_appended"],
        "commits": hybrid.jcf.db.commit_count,
        "flushes": hybrid.jcf.db.flush_count,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def serve(args, manifest, recorder) -> None:
    from repro.server.design_server import DesignServer
    from repro.workloads.loadgen import ScenarioSpec, build_scenario

    config = manifest["server"]
    shape = manifest["workloads"][args.workload]
    spec = ScenarioSpec(
        teams=shape["teams"], designers_per_team=shape["designers_per_team"]
    )
    hybrid, plans = build_scenario(
        pathlib.Path(args.root), spec, persistence=config["persistence"]
    )
    server = DesignServer(
        hybrid,
        shards=config["shards"],
        max_batch=config["max_batch"],
        window_ms=config["window_ms"],
        queue_depth=config["queue_depth"],
        workers=config["workers"],
    )
    await server.start()
    before = counters(hybrid)
    if recorder is not None:
        recorder.phase = "load"
    loop = asyncio.get_running_loop()
    command: asyncio.Future = loop.create_future()

    def on_stdin() -> None:
        line = sys.stdin.readline()
        if not command.done():
            command.set_result(line.strip() or "quit")

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    emit(
        {
            "ready": True,
            "port": server.port,
            "plans": [
                [p.user, p.team, p.library, p.project, p.cells[0]]
                for p in plans
            ],
        }
    )
    try:
        verb = await command
    finally:
        loop.remove_reader(sys.stdin.fileno())
    await server.stop()
    if verb != "stop":
        return
    if recorder is not None:
        recorder.phase = "after"
    rss_mb = peak_rss_mb()
    after = counters(hybrid)
    audit = hybrid.audit()
    stats = server.engine.stats()
    projects = sorted({p.project for p in plans})
    emit(
        {
            "stopped": True,
            "rss_mb": rss_mb,
            "audit_clean": audit.clean,
            "audit_findings": [str(f) for f in audit.findings[:5]],
            "fmcad": fmcad_counts(hybrid),
            "fmcad_cells": fmcad_cells(hybrid),
            "jcf": jcf_counts(hybrid, projects),
            "projects": projects,
            "engine": {
                "ok_runs": stats["ok_runs"],
                "completed_runs": stats["completed_runs"],
                "flushes_by_size": sum(
                    s["flushes_by_size"] for s in stats["per_shard"]
                ),
                "flushes_by_deadline": sum(
                    s["flushes_by_deadline"] for s in stats["per_shard"]
                ),
                "batches_run": sum(s["batches_run"] for s in stats["per_shard"]),
            },
            "counters": {k: after[k] - before[k] for k in after},
        }
    )


def restart(args, recorder) -> None:
    from repro.core.coupling import HybridFramework

    durability = json.loads(MANIFEST.read_text())["server"]["durability"]
    started = time.perf_counter()
    hybrid = HybridFramework.reopen(pathlib.Path(args.root), durability=durability)
    hybrid.recover()
    restart_s = time.perf_counter() - started
    if recorder is not None:
        recorder.phase = "after"
    audit = hybrid.audit()
    emit(
        {
            "restart_s": restart_s,
            "audit_clean": audit.clean,
            "audit_findings": [str(f) for f in audit.findings[:5]],
            "fmcad": fmcad_counts(hybrid),
            "fmcad_cells": fmcad_cells(hybrid),
            "jcf": jcf_counts(hybrid, args.projects),
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("serve", "restart"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--trace", default="")
    parser.add_argument("--projects", nargs="*", default=[])
    args = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text())

    from repro.oms import durable

    # pinned: an ack means the change set is on stable storage
    durable.set_default_durability(manifest["server"]["durability"])
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.phase = "setup" if args.mode == "serve" else "restart"
        spans.instrument(recorder)
    try:
        if args.mode == "serve":
            asyncio.run(serve(args, manifest, recorder))
        else:
            restart(args, recorder)
    finally:
        if recorder is not None:
            recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
