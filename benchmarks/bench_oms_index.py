"""OMS index microbenchmarks — naive scans vs the store's indexes.

Two arms, both persisted to ``benchmarks/results/oms_index_microbench.txt``:

* **links.**  The seed kernel answered ``targets()``/``sources()`` by
  scanning every ``(source, target)`` pair of the relation, so each
  metadata query on the JCF desktop hot path cost O(E).  The
  adjacency-indexed :class:`~repro.oms.links.LinkStore` answers the same
  queries in O(degree).  Relations of 10k–100k links are probed at
  random sources with both implementations (the naive scan reproduces
  the seed code on the very same data).
* **select.**  ``select(type)`` used to sort *every* object in the
  database and then filter by type — O(N log N) per lookup, which every
  ``find_user``/``find_cell``-style lookup paid.  The per-type extents
  walk only the k objects of that type.  10k–100k objects spread over
  ten entity types are probed for one small type (1% of the objects),
  both whole and through a name predicate, against the full-scan-and-
  sort reference.

Run standalone (``python benchmarks/bench_oms_index.py [--smoke]``) or
via ``pytest benchmarks/bench_oms_index.py --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from typing import Dict, List, Tuple

if __name__ == "__main__":  # standalone: make src/ importable without install
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _SRC.is_dir() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.ids import sort_key
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject
from repro.oms.schema import AttributeDef, Schema

#: full-run relation sizes (number of links)
SIZES = [10_000, 100_000]
#: CI smoke sizes — seconds, not minutes
SMOKE_SIZES = [1_000, 5_000]
FANOUT = 10
PROBES = 200

#: select arm: database sizes (objects), entity types, probes per size
SELECT_SIZES = [10_000, 100_000]
SMOKE_SELECT_SIZES = [2_000, 20_000]
SELECT_TYPES = 10
#: the probed type holds one object in SMALL_EVERY
SMALL_EVERY = 100
SELECT_PROBES = 20
#: required select speed-up at the largest size, smoke and full alike
SELECT_THRESHOLD = 10.0

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "oms_index_microbench.txt"
)


def build_db(
    n_links: int, fanout: int = FANOUT
) -> Tuple[OMSDatabase, List[str], List[str]]:
    """A database with *n_links* edges, out- and in-degree == *fanout*."""
    schema = Schema("bench")
    schema.define_entity(
        "Node", [AttributeDef("name", "str", required=True)]
    )
    schema.define_relationship("edge", "Node", "Node", "M:N")
    db = OMSDatabase(schema)
    n_each = n_links // fanout
    sources = [
        db.create("Node", {"name": f"s{i}"}).oid for i in range(n_each)
    ]
    targets = [
        db.create("Node", {"name": f"t{i}"}).oid for i in range(n_each)
    ]
    for i, src in enumerate(sources):
        for j in range(fanout):
            db.link("edge", src, targets[(i + j) % n_each])
    return db, sources, targets


def naive_targets(db: OMSDatabase, rel_name: str, source_oid: str) -> List[OMSObject]:
    """The seed implementation: full scan of the relation's pair set."""
    oids = sorted(
        (
            dst
            for src, dst in db._link_index.iter_pairs(rel_name)
            if src == source_oid
        ),
        key=sort_key,
    )
    return [db.get(oid) for oid in oids]


def naive_sources(db: OMSDatabase, rel_name: str, target_oid: str) -> List[OMSObject]:
    oids = sorted(
        (
            src
            for src, dst in db._link_index.iter_pairs(rel_name)
            if dst == target_oid
        ),
        key=sort_key,
    )
    return [db.get(oid) for oid in oids]


def _time_per_op(fn, probes: List[str]) -> float:
    """Wall-clock microseconds per call, averaged over all probes."""
    start = time.perf_counter()
    for oid in probes:
        fn(oid)
    return (time.perf_counter() - start) / len(probes) * 1e6


def run_microbench(
    sizes: List[int], probes: int = PROBES, seed: int = 7
) -> Tuple[str, Dict[int, float]]:
    """Benchmark every size; returns (report text, size -> targets speedup)."""
    rows = []
    speedups: Dict[int, float] = {}
    for n_links in sizes:
        db, sources, targets = build_db(n_links)
        rng = random.Random(seed)
        probe_oids = [rng.choice(sources) for _ in range(probes)]
        probe_targets = [rng.choice(targets) for _ in range(probes)]
        # correctness guard: both paths must answer identically
        for oid in probe_oids[:5]:
            assert [o.oid for o in db.targets("edge", oid)] == [
                o.oid for o in naive_targets(db, "edge", oid)
            ]
        naive_us = _time_per_op(
            lambda oid: naive_targets(db, "edge", oid), probe_oids
        )
        indexed_us = _time_per_op(
            lambda oid: db.targets("edge", oid), probe_oids
        )
        naive_src_us = _time_per_op(
            lambda oid: naive_sources(db, "edge", oid), probe_targets
        )
        indexed_src_us = _time_per_op(
            lambda oid: db.sources("edge", oid), probe_targets
        )
        speedups[n_links] = naive_us / indexed_us
        rows.append(
            f"{n_links:>8,}  {naive_us:>15.1f}  {indexed_us:>17.1f}  "
            f"{naive_us / indexed_us:>11.1f}x  {naive_src_us:>15.1f}  "
            f"{indexed_src_us:>17.1f}  {naive_src_us / indexed_src_us:>11.1f}x"
        )
    header = (
        "OMS link-index microbenchmark — naive O(E) scan vs adjacency index\n"
        f"fanout {FANOUT}, {probes} random probes per size, wall-clock µs/op\n"
        "\n"
        f"{'links':>8}  {'naive tgt (µs)':>15}  {'indexed tgt (µs)':>17}  "
        f"{'tgt speedup':>12}  {'naive src (µs)':>15}  "
        f"{'indexed src (µs)':>17}  {'src speedup':>12}\n"
    )
    footer = (
        "\nreading: the naive scan grows linearly with relation size while\n"
        "the indexed store stays flat at O(degree) — the metadata cost the\n"
        "paper's Section 3.6 requires to be independent of design size."
    )
    return header + "\n".join(rows) + footer, speedups


def build_typed_db(n_objects: int) -> Tuple[OMSDatabase, str]:
    """*n_objects* spread over SELECT_TYPES types; returns (db, small type).

    Creation interleaves the types, so no type's objects are contiguous
    in allocation order.
    """
    schema = Schema("bench-select")
    names = [f"Type{i}" for i in range(SELECT_TYPES)]
    for name in names:
        schema.define_entity(
            name, [AttributeDef("name", "str", required=True)]
        )
    db = OMSDatabase(schema)
    for i in range(n_objects):
        if i % SMALL_EVERY == 0:
            type_name = names[0]
        else:
            type_name = names[1 + i % (SELECT_TYPES - 1)]
        db.create(type_name, {"name": f"o{i}"})
    return db, names[0]


def naive_select(
    db: OMSDatabase, type_name: str, predicate=None
) -> List[OMSObject]:
    """The pre-extent implementation: sort every object, then filter."""
    return [
        obj
        for oid, obj in sorted(
            db._objects.items(), key=lambda kv: sort_key(kv[0])
        )
        if obj.type_name == type_name and (predicate is None or predicate(obj))
    ]


def _named(name: str):
    """A ``find_user``-style predicate: match one object by name."""
    return lambda obj: obj.get("name") == name


def run_select_microbench(
    sizes: List[int], probes: int = SELECT_PROBES, seed: int = 7
) -> Tuple[str, Dict[int, float]]:
    """Benchmark select per size; returns (report, size -> select speedup)."""
    rows = []
    speedups: Dict[int, float] = {}
    for n_objects in sizes:
        db, small = build_typed_db(n_objects)
        rng = random.Random(seed)
        names = [obj.get("name") for obj in db.select(small)]
        wanted = [rng.choice(names) for _ in range(probes)]
        # correctness guard: both paths must answer identically
        assert db.select(small) == naive_select(db, small)
        for name in wanted[:3]:
            assert db.select(small, _named(name)) == naive_select(
                db, small, _named(name)
            )
        naive_us = _time_per_op(lambda _: naive_select(db, small), wanted)
        extent_us = _time_per_op(lambda _: db.select(small), wanted)
        naive_named_us = _time_per_op(
            lambda name: naive_select(db, small, _named(name)), wanted
        )
        extent_named_us = _time_per_op(
            lambda name: db.select(small, _named(name)), wanted
        )
        speedups[n_objects] = naive_us / extent_us
        rows.append(
            f"{n_objects:>8,}  {len(names):>5,}  {naive_us:>14.1f}  "
            f"{extent_us:>15.1f}  {naive_us / extent_us:>10.1f}x  "
            f"{naive_named_us:>14.1f}  {extent_named_us:>15.1f}  "
            f"{naive_named_us / extent_named_us:>10.1f}x"
        )
    header = (
        "OMS select microbenchmark — full scan and sort vs per-type extent\n"
        f"{SELECT_TYPES} entity types, probed type holds 1 object in "
        f"{SMALL_EVERY}, {probes} probes per size, wall-clock µs/op\n"
        "\n"
        f"{'objects':>8}  {'k':>5}  {'naive all (µs)':>14}  "
        f"{'extent all (µs)':>15}  {'speedup':>11}  {'naive name (µs)':>14}  "
        f"{'extent name (µs)':>15}  {'speedup':>11}\n"
    )
    footer = (
        "\nreading: the full scan sorts all N objects on every lookup while\n"
        "the extent walks only the k objects of the probed type, so a\n"
        "metadata lookup no longer grows with the rest of the database."
    )
    return header + "\n".join(rows) + footer, speedups


class TestOMSIndexBench:
    def test_index_vs_naive_scan(self, benchmark, report_writer):
        report, speedups = run_microbench(SIZES)
        select_report, select_speedups = run_select_microbench(SELECT_SIZES)
        report_writer("oms_index_microbench", report + "\n\n" + select_report)
        db, sources, _ = build_db(SIZES[0])
        benchmark(db.targets, "edge", sources[0])
        assert speedups[max(SIZES)] >= 10, (
            f"indexed targets() only {speedups[max(SIZES)]:.1f}x faster "
            f"than the naive scan at {max(SIZES):,} links"
        )
        top = max(SELECT_SIZES)
        assert select_speedups[top] >= SELECT_THRESHOLD, (
            f"extent select() only {select_speedups[top]:.1f}x faster "
            f"than the full scan at {top:,} objects"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes, relaxed link threshold, no results file (CI)",
    )
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else SIZES
    select_sizes = SMOKE_SELECT_SIZES if args.smoke else SELECT_SIZES
    report, speedups = run_microbench(sizes)
    select_report, select_speedups = run_select_microbench(select_sizes)
    report = report + "\n\n" + select_report
    print(report)
    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(report + "\n", encoding="utf-8")
        print(f"\nwrote {RESULTS_PATH}")
    top = max(sizes)
    select_top = max(select_sizes)
    checks = [
        ("targets()", speedups[top], 3.0 if args.smoke else 10.0,
         f"{top:,} links"),
        ("select()", select_speedups[select_top], SELECT_THRESHOLD,
         f"{select_top:,} objects"),
    ]
    failed = False
    for what, speedup, threshold, where in checks:
        if speedup < threshold:
            print(
                f"FAIL: {what} speedup {speedup:.1f}x at {where} "
                f"(threshold {threshold}x)",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"OK: {what} {speedup:.1f}x speedup at {where}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
