"""Property tests: the per-type extents answer ``select``/``count`` exactly
like a full scan-filter-sort of the object table, under random
create/delete/set_attr/rollback interleavings across several entity types,
and through WAL recovery and snapshot restore.
"""

from typing import Callable, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids import sort_key
from repro.oms.database import OMSDatabase
from repro.oms.schema import AttributeDef, Schema
from repro.oms.snapshot import dump_snapshot, restore_snapshot
from repro.oms.wal import WriteAheadLog

TYPES = ("User", "Cell", "Flow")


class _Rollback(Exception):
    """Raised inside a transaction block to force an abort."""


def _schema() -> Schema:
    schema = Schema("extentprop")
    for type_name in TYPES:
        schema.define_entity(
            type_name,
            [
                AttributeDef("name", "str", required=True),
                AttributeDef("size", "int", default=0),
            ],
        )
    return schema


def _even(obj) -> bool:
    return obj.get("size") % 2 == 0


def _reference(
    db: OMSDatabase, type_name: str, predicate: Optional[Callable] = None
) -> list:
    """The pre-extent select: sort the whole object table, then filter."""
    return [
        obj
        for oid, obj in sorted(
            db._objects.items(), key=lambda kv: sort_key(kv[0])
        )
        if obj.type_name == type_name and (predicate is None or predicate(obj))
    ]


def _assert_extents_match(db: OMSDatabase) -> None:
    for type_name in TYPES:
        everything = _reference(db, type_name)
        assert db.select(type_name) == everything
        assert db.select(type_name, _even) == _reference(db, type_name, _even)
        assert db.count(type_name) == len(everything)
    # every object sits in exactly the extent of its own type
    flattened = {
        oid: obj
        for type_name, extent in db._extents.items()
        for oid, obj in extent.items()
        if obj.type_name == type_name
    }
    assert flattened == db._objects
    assert sum(len(extent) for extent in db._extents.values()) == len(
        db._objects
    )


def _extent_state(db: OMSDatabase) -> dict:
    return {t: dict(extent) for t, extent in db._extents.items() if extent}


def _apply_op(db: OMSDatabase, live: List[str], op: str, data) -> None:
    """One mutation through the public primitives; never raises."""
    if op == "create" or not live:
        type_name = data.draw(st.sampled_from(TYPES))
        size = data.draw(st.integers(0, 9))
        live.append(db.create(type_name, {"name": "n", "size": size}).oid)
    elif op == "delete":
        victim = data.draw(st.sampled_from(live))
        live.remove(victim)
        db.delete(victim)
    elif op == "set_attr":
        db.set_attr(
            data.draw(st.sampled_from(live)), "size",
            data.draw(st.integers(0, 9)),
        )
    elif op == "jump":
        # push one kind's counter past six digits, where lexicographic
        # and numeric id order disagree
        type_name = data.draw(st.sampled_from(TYPES))
        number = data.draw(st.integers(999_990, 1_000_010))
        db._allocator.observe(f"{type_name}:{number}")
    else:  # pragma: no cover - defensive
        raise AssertionError(f"unknown op {op!r}")


OPS = ["create", "create", "delete", "set_attr", "jump"]


def _run(db: OMSDatabase, live: List[str], data, steps: int,
         checkpoint: Optional[Callable[[], None]] = None) -> None:
    for _ in range(steps):
        action = data.draw(
            st.sampled_from(OPS + ["txn_abort", "txn_commit", "checkpoint"])
        )
        if action == "checkpoint":
            if checkpoint is not None:
                checkpoint()
        elif action in ("txn_abort", "txn_commit"):
            before = _extent_state(db)
            saved_live = list(live)
            try:
                with db.transaction():
                    for _ in range(data.draw(st.integers(1, 6))):
                        op = data.draw(st.sampled_from(OPS))
                        _apply_op(db, live, op, data)
                    if action == "txn_abort":
                        raise _Rollback()
            except _Rollback:
                live[:] = saved_live
                assert _extent_state(db) == before
        else:
            _apply_op(db, live, action, data)
        _assert_extents_match(db)


def _same_answers(left: OMSDatabase, right: OMSDatabase) -> None:
    for type_name in TYPES:
        for predicate in (None, _even):
            assert [
                (o.oid, o.values()) for o in left.select(type_name, predicate)
            ] == [
                (o.oid, o.values()) for o in right.select(type_name, predicate)
            ]
        assert left.count(type_name) == right.count(type_name)


class TestExtentsEqualFullScan:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings(self, data):
        db = OMSDatabase(_schema())
        _run(db, [], data, data.draw(st.integers(3, 30)))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_snapshot_restore_round_trip(self, data):
        db = OMSDatabase(_schema())
        _run(db, [], data, data.draw(st.integers(1, 25)))
        restored = restore_snapshot(_schema(), dump_snapshot(db))
        _assert_extents_match(restored)
        _same_answers(db, restored)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_wal_recover_round_trip(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("extentwal") / "wal"
        schema = _schema()
        wal = WriteAheadLog(root)
        db, _ = wal.recover(schema)
        db.attach_wal(wal)
        _run(
            db, [], data, data.draw(st.integers(1, 25)),
            checkpoint=lambda: wal.checkpoint(db),
        )
        recovered, _ = WriteAheadLog(root).recover(schema)
        _assert_extents_match(recovered)
        _same_answers(db, recovered)
