"""The blob read path: views, cache, striped locks, and concurrency.

Covers the three legs of the read-path work:

* **zero-copy views** — ``open_view`` returns mmap-backed memoryviews
  for base-resident blobs, byte-identical to ``materialize`` on every
  degradation rung (delta entries, empty payloads, mmap disabled);
* **the materialization cache** — verified-bytes-only, digest-keyed,
  byte-budgeted LRU, invalidated by repair and quarantine (a cached
  read of a quarantined digest raises, never serves);
* **per-digest locking** — readers of other digests make progress while
  a large intern encodes, and while ``read_staged`` hangs on a slow
  file; repair/quarantine exclude in-flight readers of their digest.
"""

import threading

import pytest

from repro.errors import IntegrityError, OMSError, QuarantinedError
from repro.oms.blobs import BlobStore, digest_bytes
from repro.oms.locks import DigestLockTable
from repro.oms.query import QueryEngine
from repro.oms.readcache import MaterializationCache
from repro.oms.storage import StagingArea
from repro.oms import zerocopy
from repro.oms.zerocopy import FsCapabilities, probe_capabilities

PAYLOAD = b"cellview bytes: " + bytes(range(256)) * 16


@pytest.fixture
def store():
    return BlobStore()


@pytest.fixture
def viewing_store(tmp_path):
    """A store with mmap views enabled under a tmp root."""
    store = BlobStore()
    caps = store.enable_views(tmp_path / "views")
    store.test_caps = caps
    return store


def _require_mmap(store):
    """Skip mmap-specific assertions where views degrade to heap copies
    (the fallback-matrix CI job sets ``REPRO_DISABLE_MMAP=1``; the
    degraded behaviour itself is covered by the fallback tests)."""
    if not store.test_caps.mmap:
        pytest.skip("mmap views unavailable under this configuration")


# -- striped digest locks -----------------------------------------------------


class TestDigestLockTable:
    def test_stripe_is_stable(self):
        table = DigestLockTable()
        digest = digest_bytes(b"x")
        assert table.stripe_for(digest) is table.stripe_for(digest)

    def test_reading_is_shared(self):
        table = DigestLockTable()
        digest = digest_bytes(b"x")
        with table.reading(digest):
            with table.reading(digest):
                pass

    def test_writer_blocks_cross_thread_reader(self):
        table = DigestLockTable()
        digest = digest_bytes(b"x")
        entered = threading.Event()

        def reader():
            with table.reading(digest):
                entered.set()

        with table.writing(digest):
            thread = threading.Thread(target=reader)
            thread.start()
            assert not entered.wait(0.05)
        assert entered.wait(2.0)
        thread.join()

    def test_different_digests_usually_different_stripes(self):
        table = DigestLockTable()
        stripes = {
            table.stripe_for(digest_bytes(bytes([i])))
            for i in range(64)
        }
        # crc32 striping must actually spread digests out
        assert len(stripes) > 32

    def test_rejects_zero_stripes(self):
        with pytest.raises(ValueError):
            DigestLockTable(stripes=0)


# -- the materialization cache ------------------------------------------------


class TestMaterializationCache:
    def test_miss_then_hit(self):
        cache = MaterializationCache(budget_bytes=1024)
        assert cache.get("d1") is None
        assert cache.put("d1", b"bytes")
        assert cache.get("d1") == b"bytes"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_oversized_payload_never_cached(self):
        cache = MaterializationCache(budget_bytes=4)
        assert not cache.put("big", b"12345")
        assert cache.get("big") is None

    def test_lru_eviction_by_bytes(self):
        cache = MaterializationCache(budget_bytes=10)
        cache.put("a", b"aaaa")
        cache.put("b", b"bbbb")
        cache.get("a")  # freshen a: b becomes the LRU victim
        cache.put("c", b"cccc")
        assert cache.get("a") == b"aaaa"
        assert cache.get("b") is None
        assert cache.get("c") == b"cccc"
        assert cache.stats()["evictions"] == 1
        assert cache.cached_bytes <= 10

    def test_invalidate(self):
        cache = MaterializationCache(budget_bytes=1024)
        cache.put("d", b"x")
        assert cache.invalidate("d")
        assert not cache.invalidate("d")  # already gone
        assert cache.get("d") is None
        assert cache.stats()["invalidations"] == 1

    def test_clear(self):
        cache = MaterializationCache(budget_bytes=1024)
        cache.put("d", b"x")
        cache.clear()
        assert len(cache) == 0
        assert cache.cached_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MaterializationCache(budget_bytes=-1)


class TestCachedMaterialize:
    def test_second_read_is_a_cache_hit(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        assert store.materialize(digest) == PAYLOAD
        assert store.materialize(digest) == PAYLOAD
        assert store.verifications == 1
        assert cache.stats()["hits"] == 1

    def test_unverified_reads_bypass_the_cache(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        # the unverified arm must neither consult nor feed the cache:
        # it only ever holds bytes that proved their digest
        assert store.materialize(digest, verify=False) == PAYLOAD
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_quarantined_digest_never_served_from_cache(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        store.materialize(digest)  # populate the cache
        assert digest in cache
        store.quarantine(digest)
        # the quarantine dropped the entry AND the read path refuses
        # before ever consulting the cache
        assert digest not in cache
        with pytest.raises(QuarantinedError):
            store.materialize(digest)

    def test_repair_invalidates_cache_entry(self, store):
        cache = MaterializationCache()
        store.attach_cache(cache)
        digest = store.intern(PAYLOAD)
        store.materialize(digest)
        assert digest in cache
        store.repair(digest, PAYLOAD)
        assert digest not in cache
        # and the post-repair read re-verifies before re-caching
        verifications = store.verifications
        assert store.materialize(digest) == PAYLOAD
        assert store.verifications == verifications + 1

    def test_cache_shared_across_digests_within_budget(self, store):
        cache = MaterializationCache(budget_bytes=len(PAYLOAD) + 16)
        store.attach_cache(cache)
        d1 = store.intern(PAYLOAD)
        d2 = store.intern(b"other bytes")
        store.materialize(d1)
        store.materialize(d2)
        # both fit; a third large payload would evict
        assert d1 in cache and d2 in cache


# -- zero-copy views ----------------------------------------------------------


class TestOpenView:
    def test_view_bytes_match_materialize(self, viewing_store):
        _require_mmap(viewing_store)
        digest = viewing_store.intern(PAYLOAD)
        view = viewing_store.open_view(digest)
        assert bytes(view) == viewing_store.materialize(digest) == PAYLOAD
        assert viewing_store.views_mapped == 1

    def test_second_view_shares_the_mapping(self, viewing_store):
        _require_mmap(viewing_store)
        digest = viewing_store.intern(PAYLOAD)
        viewing_store.open_view(digest)
        viewing_store.open_view(digest)
        assert viewing_store.views_mapped == 1
        assert viewing_store.view_hits == 1

    def test_view_marks_entry_verified(self, viewing_store):
        digest = viewing_store.intern(PAYLOAD)
        viewing_store.open_view(digest)
        # the chunked map-time hash counts as the one verification
        viewing_store.materialize(digest)
        assert viewing_store.verification_hits >= 1

    def test_delta_entry_falls_back_to_heap(self, viewing_store):
        base = viewing_store.intern(PAYLOAD)
        edited = PAYLOAD[:100] + b"EDIT" + PAYLOAD[100:]
        digest = viewing_store.intern(edited, base_digest=base)
        assert viewing_store.describe(digest)["is_delta"] == 1
        view = viewing_store.open_view(digest)
        assert bytes(view) == edited
        assert viewing_store.view_fallbacks == 1
        assert viewing_store.views_mapped == 0

    def test_empty_payload_falls_back(self, viewing_store):
        digest = viewing_store.intern(b"")
        assert bytes(viewing_store.open_view(digest)) == b""
        assert viewing_store.view_fallbacks == 1

    def test_store_without_views_enabled_falls_back(self, store):
        digest = store.intern(PAYLOAD)
        assert bytes(store.open_view(digest)) == PAYLOAD
        assert store.view_fallbacks == 1
        assert store.views_mapped == 0

    def test_mmap_disabled_by_env_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_MMAP", "1")
        store = BlobStore()
        caps = store.enable_views(tmp_path / "views")
        assert not caps.mmap
        digest = store.intern(PAYLOAD)
        assert bytes(store.open_view(digest)) == PAYLOAD
        assert store.views_mapped == 0
        assert store.view_fallbacks == 1

    def test_quarantine_refuses_view(self, viewing_store):
        digest = viewing_store.intern(PAYLOAD)
        viewing_store.open_view(digest)
        viewing_store.quarantine(digest)
        with pytest.raises(QuarantinedError):
            viewing_store.open_view(digest)

    def test_repair_drops_the_view_for_future_readers(self, viewing_store):
        _require_mmap(viewing_store)
        digest = viewing_store.intern(PAYLOAD)
        old_view = viewing_store.open_view(digest)
        viewing_store.repair(digest, PAYLOAD)
        # the loaned-out view stays readable (pages pinned) ...
        assert bytes(old_view) == PAYLOAD
        # ... but the next reader maps afresh from the repaired bytes
        new_view = viewing_store.open_view(digest)
        assert bytes(new_view) == PAYLOAD
        assert viewing_store.views_mapped == 2

    def test_release_of_last_reference_reclaims_spill_file(
        self, tmp_path
    ):
        store = BlobStore()
        root = tmp_path / "views"
        if not store.enable_views(root).mmap:
            pytest.skip("mmap views unavailable under this configuration")
        digest = store.intern(PAYLOAD)
        store.open_view(digest)
        assert list(root.glob("*.view"))
        assert store.release(digest) == PAYLOAD
        assert not store.contains(digest)
        assert not list(root.glob("*.view"))

    def test_enable_views_sweeps_stale_spill_files(self, tmp_path):
        root = tmp_path / "views"
        root.mkdir()
        stale = root / "deadbeef.1.view"
        stale.write_bytes(b"from a previous process")
        BlobStore().enable_views(root)
        assert not stale.exists()

    def test_unknown_digest_raises(self, viewing_store):
        with pytest.raises(OMSError):
            viewing_store.open_view("0" * 64)

    def test_handle_open_view(self, db, tmp_path):
        db.enable_payload_views(tmp_path / "views")
        obj = db.create("Thing", {"name": "x"}, payload=PAYLOAD)
        view = db.open_payload_view(db.payload_digest_of(obj.oid))
        assert bytes(view) == PAYLOAD


# -- concurrency: readers make progress ---------------------------------------


class _BlockableStore(BlobStore):
    """A store whose encode step waits for an external green light."""

    def __init__(self):
        super().__init__()
        self.encode_entered = threading.Event()
        self.encode_release = threading.Event()
        self.block_next_encode = False

    def _encode(self, data, base_digest, base_depth):
        if self.block_next_encode:
            self.block_next_encode = False
            self.encode_entered.set()
            assert self.encode_release.wait(10.0)
        return super()._encode(data, base_digest, base_depth)


class TestReadersProgressDuringIntern:
    def test_materialize_completes_while_intern_encodes(self):
        """Satellite 1: a large intern must not stall unrelated readers.

        The encode step (diffing, hashing) runs outside every lock; a
        reader of an already-stored digest completes while the intern
        is wedged mid-encode.  Before the lock narrowing this deadlocked
        the reader behind the store mutex for the whole encode.
        """
        store = _BlockableStore()
        resident = store.intern(PAYLOAD)
        store.block_next_encode = True
        interned: list = []

        def slow_intern():
            interned.append(store.intern(b"slow payload" * 1000))

        writer = threading.Thread(target=slow_intern)
        writer.start()
        assert store.encode_entered.wait(5.0)
        try:
            # the intern is parked inside _encode; reads must not queue
            done = threading.Event()

            def read():
                assert store.materialize(resident) == PAYLOAD
                assert bytes(store.open_view(resident)) == PAYLOAD
                done.set()

            reader = threading.Thread(target=read)
            reader.start()
            assert done.wait(5.0), "reader stalled behind an encoding intern"
            reader.join()
        finally:
            store.encode_release.set()
            writer.join()
        assert interned and store.contains(interned[0])

    def test_blocked_intern_still_stores_correctly(self):
        store = _BlockableStore()
        store.block_next_encode = True
        results = []

        def intern():
            results.append(store.intern(PAYLOAD))

        thread = threading.Thread(target=intern)
        thread.start()
        assert store.encode_entered.wait(5.0)
        store.encode_release.set()
        thread.join()
        assert results == [digest_bytes(PAYLOAD)]
        assert store.materialize(results[0]) == PAYLOAD


class TestReadStagedDoesNotHoldTheStagingLock:
    def test_staging_progresses_while_a_read_hangs(self, db, tmp_path):
        """``read_staged`` must not camp on the staging mutex during I/O.

        The staged file is swapped for a FIFO, so the read blocks in the
        kernel until bytes arrive; meanwhile exports of *other* objects
        and ``staged()`` listings must complete.
        """
        import os

        staging = StagingArea(db, tmp_path / "stage")
        slow = db.create("Thing", {"name": "slow"}, payload=PAYLOAD)
        other = db.create("Thing", {"name": "other"}, payload=b"unrelated")
        staged = staging.export_object(slow.oid)
        staged.path.unlink()
        os.mkfifo(staged.path)

        read_back: list = []
        reader = threading.Thread(
            target=lambda: read_back.append(staging.read_staged(slow.oid))
        )
        reader.start()
        try:
            done = threading.Event()

            def stage_other():
                staging.export_object(other.oid)
                assert staging.staged()
                done.set()

            worker = threading.Thread(target=stage_other)
            worker.start()
            assert done.wait(5.0), "staging stalled behind a hung read"
            worker.join()
        finally:
            # feed the FIFO so the hung read completes with pristine bytes
            with open(staged.path, "wb") as pipe:
                pipe.write(PAYLOAD)
            reader.join(10.0)
        assert read_back == [PAYLOAD]


# -- query-engine traversal memo ----------------------------------------------


@pytest.fixture
def linked(db):
    """a -> b -> c over 'linked'; returns (engine, [a, b, c])."""
    objs = [db.create("Thing", {"name": n}) for n in "abc"]
    for src, dst in zip(objs, objs[1:]):
        db.link("linked", src.oid, dst.oid)
    return QueryEngine(db), objs


class TestQueryMemo:
    def test_repeat_traversal_hits_the_memo(self, linked):
        engine, objs = linked
        first = engine.reachable(objs[0].oid, ["linked"])
        second = engine.reachable(objs[0].oid, ["linked"])
        assert [o.oid for o in first] == [o.oid for o in second]
        assert engine.memo_stats()["hits"] == 1

    def test_any_mutation_invalidates(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        db.unlink("linked", objs[1].oid, objs[2].oid)
        fresh = engine.reachable(objs[0].oid, ["linked"])
        assert [o.oid for o in fresh] == [objs[1].oid]
        assert engine.memo_stats()["hits"] == 0

    def test_attribute_write_invalidates(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        db.set_attr(objs[2].oid, "name", "renamed")
        engine.reachable(objs[0].oid, ["linked"])
        assert engine.memo_stats()["hits"] == 0
        # unchanged since: now it memoizes
        engine.reachable(objs[0].oid, ["linked"])
        assert engine.memo_stats()["hits"] == 1

    def test_memo_returns_fresh_objects_not_snapshots(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        hit = engine.reachable(objs[0].oid, ["linked"])
        # oids are memoized, objects are re-fetched: attribute reads
        # through a memo hit always see current state (the closure
        # excludes the start object, so the first hop is "b")
        assert hit[0].get("name") == "b"

    def test_aborted_transaction_invalidates(self, db, linked):
        engine, objs = linked
        engine.reachable(objs[0].oid, ["linked"])
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.unlink("linked", objs[0].oid, objs[1].oid)
                raise RuntimeError("boom")
        # the store rolled back to the memoized shape, but undo bypasses
        # the public mutators — the epoch must still have moved
        result = engine.reachable(objs[0].oid, ["linked"])
        assert [o.oid for o in result] == [o.oid for o in objs[1:]]
        assert engine.memo_stats()["hits"] == 0

    def test_ancestors_memoized_separately(self, linked):
        engine, objs = linked
        engine.ancestors(objs[2].oid, ["linked"])
        engine.ancestors(objs[2].oid, ["linked"])
        engine.reachable(objs[2].oid, ["linked"])
        stats = engine.memo_stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 2

    def test_depth_limit_is_part_of_the_key(self, linked):
        engine, objs = linked
        full = engine.reachable(objs[0].oid, ["linked"])
        limited = engine.reachable(objs[0].oid, ["linked"], max_depth=1)
        assert engine.memo_stats()["hits"] == 0
        assert len(full) == 2 and len(limited) == 1


# -- capability probing -------------------------------------------------------


class TestCapabilityProbe:
    def test_probe_is_cached_per_root(self, tmp_path):
        root = tmp_path / "probe"
        first = probe_capabilities(root)
        second = probe_capabilities(root)
        assert first == second
        # the scratch files are cleaned up
        assert not list(root.iterdir())

    def test_sandboxes_on_one_filesystem_probe_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(zerocopy, "_probed", {})
        probes = []
        real_probe = zerocopy._probe
        monkeypatch.setattr(
            zerocopy, "_probe",
            lambda root: probes.append(root) or real_probe(root),
        )
        first = probe_capabilities(tmp_path / "sandbox-a")
        second = probe_capabilities(tmp_path / "sandbox-b")
        assert first == second
        assert probes == [tmp_path / "sandbox-a"]
        assert len(zerocopy._probed) == 1
        # the env knobs are still read on every call, cached probe or not
        monkeypatch.setenv("REPRO_DISABLE_MMAP", "1")
        assert not probe_capabilities(tmp_path / "sandbox-c").mmap
        assert len(probes) == 1

    def test_env_override_applies_to_cached_probe(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "probe"
        probe_capabilities(root)  # prime the cache
        monkeypatch.setenv("REPRO_DISABLE_MMAP", "1")
        monkeypatch.setenv("REPRO_DISABLE_REFLINK", "1")
        caps = probe_capabilities(root)
        assert not caps.mmap
        assert not caps.reflink

    def test_describe(self):
        assert (
            FsCapabilities(
                reflink=False, copy_range=False, mmap=False
            ).describe()
            == "copy-only"
        )
        assert "mmap" in FsCapabilities(
            reflink=False, copy_range=True, mmap=True
        ).describe()
