"""Tests of the serving benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import asyncio
import json

import pytest

import drive
import spans


def test_percentile_helper_picks_p95_at_256_samples_and_refuses_p99():
    values = [float(i) for i in range(256)]
    assert drive.supports(256, 95.0) and not drive.supports(256, 99.0)
    assert drive.percentile(values, 95.0) == pytest.approx(242.25)
    with pytest.raises(ValueError, match="p99"):
        drive.percentile(values, 99.0)
    with pytest.raises(ValueError, match="p50"):
        drive.percentile(values[:19], 50.0)


def _span(span_id, parent, name, start, end):
    return [span_id, parent, name, None, 0, start, end, "load", None]


def test_self_time_counts_overlapping_children_once():
    spans_ = [
        _span(1, None, "scheduler.run_many", 0, 100),
        # two worker-thread children overlapping on [20, 40)
        _span(2, 1, "encapsulation.run.schematic_entry", 10, 40),
        _span(3, 1, "encapsulation.run.schematic_entry", 20, 60),
        # a child that runs past its parent's end is clipped
        _span(4, 1, "wal.commit", 90, 120),
        _span(5, 3, "fmcad.checkin", 30, 50),
        # an overlay interval is not subtracted from its parent
        _span(6, 3, "gates.turn.held", 20, 60),
    ]
    selfs = spans.self_times(spans_)
    assert selfs[1] == 100 - (60 - 10) - (100 - 90)
    assert selfs[2] == 30
    assert selfs[3] == 40 - 20
    assert selfs[4] == 30
    layers = spans.summarize(spans_, "load")
    assert layers["encapsulation.run.schematic_entry"]["calls"] == 2
    assert layers["encapsulation.run.schematic_entry"]["busy_ms"] == pytest.approx(70e-6)
    assert layers["encapsulation.run.schematic_entry"]["self_ms"] == pytest.approx(50e-6)


def test_recorder_parents_worker_spans_to_the_batch_that_carries_them():
    import threading

    recorder = spans.SpanRecorder()
    with recorder.span("scheduler.run_many") as batch:
        recorder.batch_parent["lib000/c0"] = batch[spans.ID]
        worker = threading.Thread(
            target=lambda: recorder.close(recorder.open("encapsulation.run.x", "lib000/c0"))
        )
        worker.start()
        worker.join(timeout=5)
    assert not worker.is_alive()
    run = next(s for s in recorder.spans if s[spans.NAME] == "encapsulation.run.x")
    assert run[spans.PARENT] == batch[spans.ID]
    assert run[spans.THREAD] != batch[spans.THREAD]


def test_same_seed_gives_same_session_order():
    items = list(range(256))
    first = drive.session_order(7, items)
    assert first == drive.session_order(7, items)
    assert first != drive.session_order(8, items)
    assert sorted(first) == items


def test_pipelined_hello_and_run_replies_are_matched_by_id():
    async def scenario():
        async def server(reader, writer):
            # answer a pipelined pair in reverse order
            frames = [json.loads(await reader.readline()) for _ in range(2)]
            for frame in reversed(frames):
                writer.write(json.dumps({"id": frame["id"], "ok": True, "op": frame["op"]}).encode() + b"\n")
            await writer.drain()
            bye = json.loads(await reader.readline())
            writer.write(json.dumps({"id": bye["id"], "ok": True}).encode() + b"\n")
            await writer.drain()
            writer.close()

        listener = await asyncio.start_server(server, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        conn = await drive.Connection.open(port)
        hello, run = conn.send([{"op": "hello"}, {"op": "run"}])
        (_, hello_frame), (_, run_frame) = await asyncio.wait_for(
            asyncio.gather(hello, run), 5
        )
        await asyncio.wait_for(conn.close(), 5)
        listener.close()
        await listener.wait_closed()
        return hello_frame, run_frame

    hello_frame, run_frame = asyncio.run(scenario())
    assert hello_frame["op"] == "hello"
    assert run_frame["op"] == "run"


def test_reply_router_rejects_unknown_ids():
    async def scenario():
        router = drive.ReplyRouter()
        waiting = router.expect(1)
        with pytest.raises(ValueError):
            router.feed(b'{"id": 2, "ok": true}\n')
        assert not waiting.done()
        router.feed(b'{"id": 1, "ok": true}\n')
        assert waiting.result()[1] == {"id": 1, "ok": True}

    asyncio.run(scenario())
