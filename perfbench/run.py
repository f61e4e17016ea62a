"""Wall-clock serving benchmark of the coupled JCF-FMCAD design server.

Run from the repository root::

    python3 perfbench/run.py --workload team_storm --seed 1 --seconds 40 --trace 0

One run boots the design server in its own process (``server.py``) on
the workload's scenario, drives it over real sockets from this single
thread, stops it gracefully, restarts the workspace in a fresh process,
times more set-ups, checks correctness and prints every metric by
name, unit and sample count.  The last line of standard output is one
JSON object holding the metrics BENCHMARK.json declares::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same load untraced (the reference for ``trace.overhead_frac`` and
for the end-to-end figures too noisy to bound), then again with the
layer boundaries wrapped by ``spans.py``, and reports the per-layer
metrics.  A failed correctness gate prints no metrics and exits 1.
Workloads, server policy and per-layer targets live in ``manifest.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import drive
import spans

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
MANIFEST = json.loads((HERE / "manifest.json").read_text())

#: set-up is timed at least MIN_SETUPS times and reported as the median;
#: a quick set-up, which host noise sways more, is repeated until
#: SETUP_SECONDS of set-up have been timed, at most MAX_SETUPS times.
#: The restart, whose time is tracked unbounded, runs once, leaving the
#: run's time to the load phase.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 7, 3.0
#: the run is invalid when the generator takes longer than this from a
#: reply to its next send
LAG_LIMIT_MS = 20.0
#: generous bound on any one child-process step
STEP_TIMEOUT_S = 60.0

#: FMCAD cellviews each activity writes one version of
VIEWS_WRITTEN = {
    "schematic_entry": ("schematic", "symbol"),
    "digital_simulation": ("simulation",),
    "layout_entry": ("layout",),
}


class GateFailure(Exception):
    """A correctness or validity gate failed; the run reports nothing."""


def log(message: str) -> None:
    sys.stderr.write(message + "\n")
    sys.stderr.flush()


# -- the server process ------------------------------------------------------


class ServerProcess:
    """``server.py`` in a child process, spoken to over stdin/stdout."""

    def __init__(self, args: List[str], env: Dict[str, str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
        )
        self._buffer = b""

    def read_json(self, timeout_s: float = STEP_TIMEOUT_S) -> Dict[str, Any]:
        """The next JSON line the child prints (its only stdout output)."""
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in self._buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise GateFailure("server process timed out")
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise GateFailure(
                        f"server process exited ({self.proc.wait()})"
                    )
                self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def command(self, verb: str) -> None:
        self.proc.stdin.write(verb.encode() + b"\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        """Wait for a clean exit; anything else fails the run."""
        try:
            code = self.proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise GateFailure("server process did not exit")
        if code != 0:
            raise GateFailure(f"server process exited with {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Bench:
    """One benchmark invocation: work directory, children, results."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.shape = MANIFEST["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.children: List[ServerProcess] = []
        tmp = self.work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(tmp)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        # string hashing, and with it set iteration order, follows the seed
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self._instances = 0

    def spawn(self, *args: str) -> ServerProcess:
        child = ServerProcess(list(args), self.env)
        self.children.append(child)
        return child

    def fresh_root(self) -> pathlib.Path:
        self._instances += 1
        return self.work / f"env{self._instances}"

    def close(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    # -- phases ---------------------------------------------------------------

    def setup_only(self) -> float:
        """Boot a server on a fresh scenario, time it, stop it."""
        child = self.spawn(
            "serve", "--root", str(self.fresh_root()),
            "--workload", self.workload,
        )
        child.read_json()
        elapsed = time.perf_counter() - child.started
        child.command("quit")
        child.finish()
        return elapsed

    def set_up_and_stop(self) -> Tuple[pathlib.Path, Dict[str, Any]]:
        """Boot a server on a fresh scenario and stop it before any load."""
        root = self.fresh_root()
        child = self.spawn(
            "serve", "--root", str(root), "--workload", self.workload,
        )
        child.read_json()
        child.command("stop")
        stopped = child.read_json()
        child.finish()
        return root, stopped

    def serve_and_load(self, trace: Optional[pathlib.Path]):
        """Set up, drive the load, stop; returns everything observed."""
        root = self.fresh_root()
        child = self.spawn(
            "serve", "--root", str(root), "--workload", self.workload,
            "--trace", str(trace or ""),
        )
        ready = child.read_json()
        setup_s = time.perf_counter() - child.started
        plans = [drive.Plan(*row) for row in ready["plans"]]
        chain = [tuple(step) for step in self.shape["chain"]]
        connections = min(2, os.cpu_count() or 1)
        load = drive.closed_loop(
            ready["port"], plans, chain, self.seed, self.seconds,
            min(self.shape["clients"], connections),
            self.shape["sessions"] == "fresh",
        )
        try:
            result = asyncio.run(load)
        except (asyncio.TimeoutError, ConnectionError, RuntimeError) as exc:
            raise GateFailure(f"load phase failed: {exc!r}")
        threads = threading.active_count()
        child.command("stop")
        stopped = child.read_json()
        child.finish()
        return root, setup_s, result, stopped, threads

    def restart(self, root: pathlib.Path, projects: List[str],
                trace: Optional[pathlib.Path]) -> Dict[str, Any]:
        child = self.spawn(
            "restart", "--root", str(root), "--trace", str(trace or ""),
            "--projects", *projects,
        )
        restarted = child.read_json()
        child.finish()
        return restarted


# -- correctness gates -------------------------------------------------------


def planned_versions(result) -> Dict[str, int]:
    """``library/cell/view`` -> versions the acked runs must have written."""
    planned: Dict[str, int] = {}
    for (library, cell, activity), count in result.ok_runs.items():
        for view in VIEWS_WRITTEN[activity]:
            key = f"{library}/{cell}/{view}"
            planned[key] = planned.get(key, 0) + count
    return planned


def check_gates(result, stopped, restarts: List[Dict[str, Any]],
                threads: int) -> List[str]:
    failures = []
    if result.attempted == 0:
        failures.append("no requests attempted")
    if not stopped["audit_clean"]:
        failures.append(f"audit after load: {stopped['audit_findings']}")
    for restarted in restarts:
        if not restarted["audit_clean"]:
            failures.append(f"audit after restart: {restarted['audit_findings']}")
        if restarted["fmcad"] != stopped["fmcad"]:
            failures.append("FMCAD version counts differ after restart")
        if restarted["jcf"] != stopped["jcf"]:
            failures.append("JCF cell-version counts differ after restart")
    planned = planned_versions(result)
    actual = stopped["fmcad"]
    lost = sum(
        max(0, planned[k] - actual.get(k, 0)) for k in planned
    )
    double = sum(
        max(0, actual[k] - planned.get(k, 0)) for k in actual
    )
    if lost or double:
        failures.append(f"version counts: {lost} lost, {double} double commits")
    if result.connections > (os.cpu_count() or 1):
        failures.append(f"{result.connections} connections > nproc")
    if threads != 1:
        failures.append(f"load generator ran {threads} threads")
    lag = drive.percentile(result.lag_ms, 95.0) if drive.supports(
        len(result.lag_ms), 95.0) else max(result.lag_ms, default=0.0)
    if lag > LAG_LIMIT_MS:
        failures.append(f"sends slipped: lag p95 {lag:.1f} ms")
    return failures


# -- metrics -----------------------------------------------------------------


def cells_lost(stopped, restarts: List[Dict[str, Any]]) -> float:
    """FMCAD cells the restart dropped (the known loss of cells that
    have no version yet); reported, not gated: version counts are."""
    return float(max(stopped["fmcad_cells"] - r["fmcad_cells"] for r in restarts))


def quoted(values: List[float], pct: float) -> Optional[float]:
    """The *pct*-th percentile, or None when the sample cannot support it."""
    return drive.percentile(values, pct) if drive.supports(len(values), pct) else None


def end_to_end(setups: List[float], result, stopped,
               restarts: List[float]) -> Dict[str, Tuple[Optional[float], str, int]]:
    """Metric name -> (value, unit, sample count)."""
    failed_frac = result.failed / result.attempted
    checkins, hellos = len(result.checkin_ms), len(result.hello_ms)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "checkin_p50_ms": (quoted(result.checkin_ms, 50.0), "ms", checkins),
        "checkin_p95_ms": (quoted(result.checkin_ms, 95.0), "ms", checkins),
        "checkins_per_s": (
            result.ok_checkins / result.wall_s, "1/s", result.ok_checkins,
        ),
        "hello_p50_ms": (quoted(result.hello_ms, 50.0), "ms", hellos),
        "hello_p95_ms": (quoted(result.hello_ms, 95.0), "ms", hellos),
        "failed_frac": (failed_frac, "frac", result.attempted),
        "ok_frac": (1.0 - failed_frac, "frac", result.attempted),
        "restart_s": (statistics.median(restarts), "s", len(restarts)),
        "server_rss_mb": (stopped["rss_mb"], "MB", 1),
    }


def per_layer(serve_spans, restart_spans, result, stopped, reference,
              reference_restart_s: float) -> Dict[str, Tuple[Optional[float], str, int]]:
    """Layer metric name -> (value, unit, sample count).

    The end-to-end figures whose spread across seeds on a shared host is
    wider than any bound (latency tails, the sub-millisecond resume
    ``hello``, restart time) come from the untraced *reference* run and
    are tracked here, unbounded.
    """
    from repro.workloads.metrics import percentile as pct

    load = spans.summarize(serve_spans, "load")
    setup = spans.summarize(serve_spans, "setup")
    restart = spans.summarize(restart_spans, "restart")
    empty = {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "errors": 0,
             "durations_ms": []}

    def layer(table, name):
        return table.get(name, empty)

    def calls(table, name):
        entry = layer(table, name)
        return (float(entry["calls"]), "count", entry["calls"])

    def busy(table, name):
        entry = layer(table, name)
        return (entry["busy_ms"], "ms", entry["calls"])

    def quantile(table, name, q):
        entry = layer(table, name)
        return (pct(entry["durations_ms"], q), "ms", entry["calls"])

    def ratio(numerator, denominator, unit="ratio"):
        return (numerator / denominator if denominator else 0.0, unit,
                int(denominator))

    counters = stopped["counters"]
    engine = stopped["engine"]
    ok_runs = engine["ok_runs"]
    select_scanned = sum(spans.attr_values(serve_spans, "oms.select", "scanned", "load"))
    select_returned = sum(spans.attr_values(serve_spans, "oms.select", "returned", "load"))
    batch_runs = spans.attr_values(serve_spans, "scheduler.run_many", "runs", "load")
    waves = spans.attr_values(serve_spans, "scheduler.run_many", "waves", "load")
    meta_bytes = spans.attr_values(serve_spans, "fmcad.flush_meta", "bytes", "load")
    fsyncs = layer(load, "durable.fsync")["calls"]
    intents = layer(load, "recovery.intents.begin"), layer(load, "recovery.intents.finish")
    overhead_frac = (
        pct(result.checkin_ms, 50.0) / pct(reference.checkin_ms, 50.0) - 1.0
    )
    metrics = {
        "hello_p50_ms": (
            quoted(reference.hello_ms, 50.0), "ms", len(reference.hello_ms)
        ),
        "restart_s": (reference_restart_s, "s", 1),
        "checkin_p95_ms": (
            quoted(reference.checkin_ms, 95.0), "ms", len(reference.checkin_ms)
        ),
        "hello_p95_ms": (
            quoted(reference.hello_ms, 95.0), "ms", len(reference.hello_ms)
        ),
        "engine.open_session.calls": calls(load, "engine.open_session"),
        "engine.open_session.busy_ms": busy(load, "engine.open_session"),
        "engine.open_session.p95_ms": quantile(load, "engine.open_session", 95.0),
        "oms.select.calls": calls(load, "oms.select"),
        "oms.select.busy_ms": busy(load, "oms.select"),
        "oms.select.scanned_per_returned": ratio(select_scanned, select_returned),
        "engine.submit.busy_ms": busy(load, "engine.submit"),
        "engine.submit.refused": (
            float(layer(load, "engine.submit")["errors"]), "count",
            layer(load, "engine.submit")["calls"],
        ),
        "engine.queue_wait.p50_ms": quantile(load, "engine.queue_wait", 50.0),
        "engine.queue_wait.p95_ms": quantile(load, "engine.queue_wait", 95.0),
        "coalescer.batch_runs.mean": ratio(sum(batch_runs), len(batch_runs), "count"),
        "coalescer.batch_runs.max": (float(max(batch_runs, default=0)), "count", len(batch_runs)),
        "coalescer.flushes_by_size": (float(engine["flushes_by_size"]), "count", engine["batches_run"]),
        "coalescer.flushes_by_deadline": (float(engine["flushes_by_deadline"]), "count", engine["batches_run"]),
        "scheduler.run_many.calls": calls(load, "scheduler.run_many"),
        "scheduler.run_many.busy_ms": busy(load, "scheduler.run_many"),
        "scheduler.waves_per_batch": ratio(sum(waves), len(waves), "count"),
        "gates.turn.wait_ms": busy(load, "gates.turn.wait"),
        "gates.turn.held_ms": busy(load, "gates.turn.held"),
    }
    for activity in VIEWS_WRITTEN:
        name = f"encapsulation.run.{activity}"
        entry = layer(load, name)
        metrics[f"{name}.p50_ms"] = quantile(load, name, 50.0)
        metrics[f"{name}.self_ms"] = (entry["self_ms"], "ms", entry["calls"])
    copied = sum(spans.attr_values(serve_spans, "staging.export_objects", "copied", "load"))
    linked = sum(spans.attr_values(serve_spans, "staging.export_objects", "linked", "load"))
    metrics.update({
        "staging.export_objects.busy_ms": busy(load, "staging.export_objects"),
        "staging.bytes_copied": (float(copied), "B", layer(load, "staging.export_objects")["calls"]),
        "staging.bytes_linked": (float(linked), "B", layer(load, "staging.export_objects")["calls"]),
        "readcache.hit_ratio": ratio(
            counters["cache_hits"], counters["cache_hits"] + counters["cache_misses"]
        ),
        "jcf.flow_engine.start_activity.busy_ms": busy(load, "jcf.flow_engine.start_activity"),
        "jcf.flow_engine.finish_activity.busy_ms": busy(load, "jcf.flow_engine.finish_activity"),
        "recovery.intents.busy_ms": (
            intents[0]["busy_ms"] + intents[1]["busy_ms"], "ms",
            intents[0]["calls"] + intents[1]["calls"],
        ),
        "fmcad.checkout.busy_ms": busy(load, "fmcad.checkout"),
        "fmcad.checkin.busy_ms": busy(load, "fmcad.checkin"),
        "fmcad.flush_meta.calls": calls(load, "fmcad.flush_meta"),
        "fmcad.flush_meta.busy_ms": busy(load, "fmcad.flush_meta"),
        "fmcad.meta_bytes_per_flush": ratio(sum(meta_bytes), len(meta_bytes), "B"),
        "wal.commit.calls": calls(load, "wal.commit"),
        "wal.commit.busy_ms": busy(load, "wal.commit"),
        "wal.bytes_per_checkin": ratio(counters["wal_bytes"], ok_runs, "B"),
        "oms.commits_per_flush": ratio(counters["commits"], counters["flushes"]),
        "durable.fsync.calls": calls(load, "durable.fsync"),
        "durable.fsync.busy_ms": busy(load, "durable.fsync"),
        "durable.fsyncs_per_checkin": ratio(fsyncs, ok_runs),
        "restart.wal_recover_ms": busy(restart, "wal.recover"),
        "restart.wal_records": (
            float(sum(spans.attr_values(restart_spans, "wal.recover", "records", "restart"))),
            "count", layer(restart, "wal.recover")["calls"],
        ),
        "restart.library_open_ms": busy(restart, "restart.library_open"),
        "restart.recover_ms": busy(restart, "restart.recover"),
        "setup.adopt_library_ms": busy(setup, "setup.adopt_library"),
        "setup.prepare_cell_ms": busy(setup, "setup.prepare_cell"),
        "loadgen.lag_p95_ms": (pct(result.lag_ms, 95.0), "ms", len(result.lag_ms)),
        "trace.overhead_frac": (overhead_frac, "frac", 2),
    })
    return metrics


def declared(kind: str) -> List[str]:
    """Metric names BENCHMARK.json declares for *kind*."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in benchmark[kind]]


def report(metrics: Dict[str, Tuple[Optional[float], str, int]], kind: str, result) -> None:
    names = declared(kind)
    missing = [name for name in names if metrics.get(name, (None,))[0] is None]
    if missing:
        raise GateFailure(f"too few samples to report {missing}")
    for name, (value, unit, samples) in metrics.items():
        shown = "unsupported" if value is None else f"{value:.4f}"
        print(f"{name:44s} {shown:>14s} {unit:6s} (n={samples})")
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
        },
    }))


# -- main --------------------------------------------------------------------


def run(bench: Bench, trace: bool) -> Tuple[Dict[str, Tuple[Optional[float], str, int]], Any]:
    def gate(result, stopped, restarts, threads) -> None:
        failures = check_gates(result, stopped, restarts, threads)
        if failures:
            raise GateFailure("; ".join(failures))

    if not trace:
        root, setup_s, result, stopped, threads = bench.serve_and_load(None)
        restarts = [bench.restart(root, stopped["projects"], None)]
        setups = [setup_s]
        while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS
        ):
            setups.append(bench.setup_only())
        gate(result, stopped, restarts, threads)
        return end_to_end(
            setups, result, stopped, [r["restart_s"] for r in restarts],
        ), result

    # the untraced reference run, then the traced one on the same inputs
    root, _, reference, stopped, threads = bench.serve_and_load(None)
    restarted = bench.restart(root, stopped["projects"], None)
    gate(reference, stopped, [restarted], threads)
    reference_restart_s = restarted["restart_s"]
    serve_trace = bench.work / "serve.spans.jsonl"
    restart_trace = bench.work / "restart.spans.jsonl"
    root, _, result, stopped, threads = bench.serve_and_load(serve_trace)
    restarted = bench.restart(root, stopped["projects"], restart_trace)
    gate(result, stopped, [restarted], threads)
    metrics = per_layer(
        spans.load(str(serve_trace)), spans.load(str(restart_trace)),
        result, stopped, reference, reference_restart_s,
    )
    # the load gives every cell a version, so the loss of cells that have
    # none yet shows on a workspace restarted straight after set-up
    idle_root, idle = bench.set_up_and_stop()
    idle_restarted = bench.restart(idle_root, idle["projects"], None)
    metrics["restart.fmcad_cells_lost"] = (
        cells_lost(idle, [idle_restarted]), "count", 1
    )
    return metrics, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MANIFEST["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "server" / "design_server.py").is_file():
        log(f"no design server sources under {SRC}: run from the repository root")
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        metrics, result = run(bench, bool(args.trace))
        if result.errors:
            log(f"failed requests: {result.errors}")
        report(metrics, "per_layer" if args.trace else "end_to_end", result)
    except GateFailure as exc:
        log(f"FAILED: {exc}")
        return 1
    finally:
        bench.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
