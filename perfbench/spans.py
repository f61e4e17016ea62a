"""Span recorder for the serving benchmark.

Wraps public functions of the coupled framework from outside ``src/``:
each wrapped call becomes one span ``(id, parent, name, request, thread,
start_ns, end_ns, phase, attrs)`` kept in memory and written as JSON
lines when the benchmark's server process exits.

Parenting follows a per-thread span stack.  A span opened on a thread
whose stack is empty looks its request id up in the table of requests
carried by an open ``scheduler.run_many`` span, so the coupled runs on
the scheduler's worker threads hang under the batch that carries them.
The request id is ``library/cell`` for runs and ``library/user`` for
session opens.

:func:`summarize` turns spans into per-layer count, busy time, self time
and wait; self time is a span's duration minus the union of its child
spans' intervals, so overlapping children are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# span record layout (a list, so the recorder can fill ``end`` in place)
ID, PARENT, NAME, REQUEST, THREAD, START, END, PHASE, ATTRS = range(9)

#: spans that mark an interval without being work of their own: their
#: parents keep the time as self time (a held gate is the run's own work)
OVERLAY_NAMES = frozenset({"gates.turn.held"})


class SpanRecorder:
    """In-memory span store with a thread-local parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: request id -> id of the open run_many span that carries it
        self.batch_parent: Dict[str, int] = {}
        #: id(RunRequest) -> (request, ns when ``submit`` returned)
        self.submitted: Dict[int, Tuple[Any, int]] = {}

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None) -> list:
        """Start a span on the calling thread and push it."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_id = parent[ID]
            request = request or parent[REQUEST]
        else:
            parent_id = self.batch_parent.get(request) if request else None
        span = [
            next(self._ids), parent_id, name, request,
            threading.get_ident(), time.perf_counter_ns(), 0,
            self.phase, None,
        ]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def record(
        self, name: str, start_ns: int, end_ns: int,
        request: Optional[str] = None,
    ) -> None:
        """Store an already-timed interval under the open span, if any."""
        parent = None
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
            request = request or stack[-1][REQUEST]
        span = [
            next(self._ids), parent, name, request,
            threading.get_ident(), start_ns, end_ns, self.phase, None,
        ]
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        span = self.open(name, request)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: Any,
        request_of: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned version.

        *name* is a span name or a function of the call's ``self``;
        *request_of(args, kwargs)* names the request; *after(span,
        args, kwargs, result)* may attach attrs once the call returned.
        A call that raises is recorded with ``attrs["error"]``.
        """
        original = getattr(owner, attr)
        recorder = self

        def spanned(*args, **kwargs):
            span_name = name(args[0]) if callable(name) else name
            request = request_of(args, kwargs) if request_of else None
            span = recorder.open(span_name, request)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        spanned.__wrapped__ = original
        spanned.__name__ = getattr(original, "__name__", attr)
        if isinstance(inspect.getattr_static(owner, attr), classmethod):
            # *original* is already bound to the class
            spanned = staticmethod(spanned)
        setattr(owner, attr, spanned)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- summaries ---------------------------------------------------------------


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans: List[list]) -> Dict[int, int]:
    """Span id -> self time in ns (duration minus union of children)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None and span[NAME] not in OVERLAY_NAMES:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    return {
        span[ID]: (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(span[ID], ()))
        for span in spans
    }


def summarize(spans: List[list], phase: Optional[str] = None) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, busy/self ms and the duration samples."""
    selfs = self_times(spans)
    layers: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if phase is not None and span[PHASE] != phase:
            continue
        layer = layers.setdefault(
            span[NAME],
            {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "errors": 0,
             "durations_ms": []},
        )
        duration_ms = (span[END] - span[START]) / 1e6
        layer["calls"] += 1
        layer["busy_ms"] += duration_ms
        layer["self_ms"] += selfs[span[ID]] / 1e6
        layer["durations_ms"].append(duration_ms)
        if span[ATTRS] and "error" in span[ATTRS]:
            layer["errors"] += 1
    return layers


def attr_values(spans: List[list], name: str, key: str, phase: Optional[str] = None) -> List[Any]:
    """The *key* attribute of every *name* span (in *phase*) that has it."""
    return [
        span[ATTRS][key]
        for span in spans
        if span[NAME] == name
        and (phase is None or span[PHASE] == phase)
        and span[ATTRS]
        and key in span[ATTRS]
    ]


# -- instrumentation of the coupled framework --------------------------------


def _request(library: Any, cell: Any) -> str:
    name = library if isinstance(library, str) else getattr(library, "name", library)
    return f"{name}/{cell}"


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of one served checkin.

    Must run before the framework is built so every instance sees the
    wrapped class attributes.  ``os.fsync`` is wrapped at module level:
    every durable write in the package reaches it through ``os``.
    """
    from repro.core import gates
    from repro.core.coupling import HybridFramework
    from repro.core.encapsulation import _ToolWrapper
    from repro.core.recovery import IntentJournal
    from repro.fmcad.checkout import CheckoutManager
    from repro.fmcad.library import Library
    from repro.jcf.flow_engine import FlowEngine
    from repro.oms.database import OMSDatabase
    from repro.oms.storage import StagingArea
    from repro.oms.wal import WriteAheadLog
    from repro.server.engine import ServeEngine

    wrap = recorder.wrap

    # event-loop thread: session opens and admission
    wrap(
        ServeEngine, "open_session", "engine.open_session",
        request_of=lambda a, k: _request(
            _arg(a, k, 3, "library_name"), _arg(a, k, 1, "user")
        ),
    )

    def submitted(span, args, kwargs, result):
        # a batch flushed by size may already have started its run_many
        # on the shard thread; then the request never waited and the
        # entry is simply never collected
        recorder.submitted[id(result.request)] = (result.request, span[END])

    wrap(
        ServeEngine, "submit", "engine.submit",
        request_of=lambda a, k: _request(
            _arg(a, k, 1, "session").library_name, _arg(a, k, 2, "cell_name")
        ),
        after=submitted,
    )

    # shard executor thread: one coalesced batch
    original_run_many = HybridFramework.run_many

    def run_many(self, requests, *args, **kwargs):
        requests = list(requests)
        keys = [_request(r.library, r.cell_name) for r in requests]
        started = time.perf_counter_ns()
        for key, request in zip(keys, requests):
            entry = recorder.submitted.pop(id(request), None)
            if entry is not None and entry[0] is request:
                recorder.record("engine.queue_wait", entry[1], started, key)
        span = recorder.open("scheduler.run_many")
        for key in keys:
            recorder.batch_parent[key] = span[ID]
        span[ATTRS] = {"runs": len(requests)}
        try:
            result = original_run_many(self, requests, *args, **kwargs)
            span[ATTRS]["waves"] = len(result.waves)
            return result
        finally:
            for key in keys:
                if recorder.batch_parent.get(key) == span[ID]:
                    del recorder.batch_parent[key]
            recorder.close(span)

    HybridFramework.run_many = run_many

    # worker threads: the wave gates and each coupled run
    original_turn = gates.Turnstile.turn

    @contextlib.contextmanager
    def turn(self, index):
        start = time.perf_counter_ns()
        manager = original_turn(self, index)
        manager.__enter__()
        acquired = time.perf_counter_ns()
        recorder.record("gates.turn.wait", start, acquired)
        try:
            yield
        except BaseException as exc:
            if not manager.__exit__(type(exc), exc, exc.__traceback__):
                raise
        else:
            manager.__exit__(None, None, None)
        finally:
            recorder.record(
                "gates.turn.held", acquired, time.perf_counter_ns()
            )

    gates.Turnstile.turn = turn

    wrap(
        _ToolWrapper, "run",
        lambda wrapper: f"encapsulation.run.{wrapper.ACTIVITY}",
        request_of=lambda a, k: _request(
            _arg(a, k, 3, "library"), _arg(a, k, 4, "cell_name")
        ),
    )

    original_export = StagingArea.export_objects

    def export_objects(self, *args, **kwargs):
        # bytes the export wrote itself vs. bytes satisfied by a digest
        # hit, hard link or in-kernel clone of an already staged file
        copied_before = self.bytes_exported
        with recorder.span("staging.export_objects") as span:
            result = original_export(self, *args, **kwargs)
            copied = self.bytes_exported - copied_before
            span[ATTRS] = {
                "copied": copied,
                "linked": sum(item.size for item in result) - copied,
            }
        return result

    StagingArea.export_objects = export_objects
    wrap(CheckoutManager, "checkout", "fmcad.checkout")
    wrap(CheckoutManager, "checkin", "fmcad.checkin")

    def meta_flushed(span, args, kwargs, result):
        try:
            span[ATTRS] = {"bytes": args[0].metafile.path.stat().st_size}
        except OSError:
            pass

    wrap(Library, "flush_meta", "fmcad.flush_meta", after=meta_flushed)
    wrap(FlowEngine, "start_activity", "jcf.flow_engine.start_activity")
    wrap(FlowEngine, "finish_activity", "jcf.flow_engine.finish_activity")
    wrap(IntentJournal, "begin", "recovery.intents.begin")
    wrap(IntentJournal, "finish", "recovery.intents.finish")

    def selected(span, args, kwargs, result):
        # every select sorts and visits the whole object table
        span[ATTRS] = {"scanned": len(args[0]._objects), "returned": len(result)}

    wrap(OMSDatabase, "select", "oms.select", after=selected)

    wrap(WriteAheadLog, "commit", "wal.commit")

    def recovered(span, args, kwargs, result):
        span[ATTRS] = {"records": result[1].records_applied}

    wrap(WriteAheadLog, "recover", "wal.recover", after=recovered)
    wrap(os, "fsync", "durable.fsync")

    # set-up and restart
    wrap(HybridFramework, "adopt_library", "setup.adopt_library")
    wrap(HybridFramework, "prepare_cell", "setup.prepare_cell")
    wrap(HybridFramework, "reopen", "restart.reopen")
    wrap(HybridFramework, "recover", "restart.recover")
    wrap(Library, "open", "restart.library_open")
