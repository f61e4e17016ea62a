"""Snapshot persistence for the OMS database.

[Meck92] describes OMS as a persistent distributed kernel; for the
reproduction the property that matters is durability across framework
restarts.  ``dump_snapshot`` serialises the complete object graph
(objects, typed attributes, payloads, links) to JSON bytes;
``restore_snapshot`` rebuilds a database with identical object ids so
every stored JCF reference (including ``jcf_oid`` tags in FMCAD
properties) survives a restart.  It is the format of the write-ahead
log's checkpoint (:mod:`repro.oms.wal`).
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Optional

from repro.clock import SimClock
from repro.errors import OMSError, QuarantinedError, SnapshotIntegrityError
from repro.faults import corruption_point
from repro.ids import sort_key
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject
from repro.oms.schema import Schema

FORMAT = "repro-oms-snapshot-1"


def dump_snapshot(database: OMSDatabase) -> bytes:
    """Serialise the whole database (schema-agnostic object graph).

    Objects and link pairs are ordered by the numeric
    :func:`repro.ids.sort_key`, so dumps stay deterministic (and diffs
    stay minimal) even past the millionth id of a kind, where
    lexicographic ordering would reshuffle everything.
    """
    objects = []
    quarantined = []
    for oid in sorted(database._objects, key=sort_key):
        obj = database._objects[oid]
        try:
            raw = obj.payload
        except QuarantinedError:
            # the payload was quarantined as unrepairable: persist the
            # loss explicitly rather than crash the save (or, worse,
            # serialise garbage).  Corrupt-but-not-quarantined payloads
            # still raise — scrub before saving.
            raw = None
            quarantined.append(oid)
        payload = (
            base64.b64encode(raw).decode("ascii")
            if raw is not None
            else None
        )
        objects.append({
            "oid": oid,
            "type": obj.type_name,
            "values": obj.values(),
            "payload": payload,
        })
    links = {
        rel_name: [
            list(pair)
            for pair in sorted(
                database.link_pairs(rel_name),
                key=lambda pair: (sort_key(pair[0]), sort_key(pair[1])),
            )
        ]
        for rel_name in database.relation_names()
    }
    doc = {
        "format": FORMAT,
        "schema": database.schema.name,
        "objects": objects,
        "links": links,
        "policy": database.policy,
    }
    if quarantined:
        doc["quarantined"] = quarantined
    # embedded whole-document checksum: computed over the canonical
    # serialisation of everything except the checksum key itself, so
    # restore can re-derive and compare it (see _verify_checksum)
    doc["sha256"] = _document_digest(doc)
    return corruption_point(
        "oms.snapshot",
        json.dumps(doc, sort_keys=True, indent=1).encode("utf-8"),
    )


def _document_digest(doc: dict) -> str:
    """Canonical digest of a snapshot document, checksum key excluded."""
    body = {k: v for k, v in doc.items() if k != "sha256"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")
    ).hexdigest()


def verify_snapshot_bytes(data: bytes) -> Optional[str]:
    """Damage classification of serialised snapshot bytes, ``None`` if clean.

    Much cheaper than :func:`restore_snapshot` — parses and re-derives
    the embedded checksum without rebuilding a database, so the scrubber
    can sweep snapshot files at full speed.  Pre-checksum snapshots
    (no ``sha256`` key) that parse are reported clean.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "torn-write"
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        return "torn-write"
    recorded = doc.get("sha256")
    if recorded is not None and _document_digest(doc) != recorded:
        return "bit-rot"
    return None


def restore_snapshot(
    schema: Schema,
    data: bytes,
    clock: Optional[SimClock] = None,
    enable_procedural_interface: bool = False,
) -> OMSDatabase:
    """Rebuild a database from :func:`dump_snapshot` output.

    Object ids are preserved exactly; the id allocator is fast-forwarded
    so new objects never collide with restored ones.  The snapshot's
    schema name must match *schema* — restoring a JCF snapshot into an
    FMCAD-shaped schema is a hard error, not a best effort.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # unparseable bytes are structural damage (a torn or truncated
        # write); SnapshotIntegrityError is still an OMSError for callers
        raise SnapshotIntegrityError(
            f"corrupt snapshot: {exc}",
            location="oms-snapshot",
            classification="torn-write",
        ) from exc
    if not isinstance(doc, dict):
        raise OMSError("not an OMS snapshot (not a JSON object)")
    if doc.get("format") != FORMAT:
        raise OMSError(
            f"not an OMS snapshot (format={doc.get('format')!r})"
        )
    recorded = doc.get("sha256")
    if recorded is not None and _document_digest(doc) != recorded:
        # the bytes parse but the content is not what was written —
        # a flipped bit inside a payload string lands here
        raise SnapshotIntegrityError(
            "snapshot content fails its embedded checksum",
            location="oms-snapshot",
            classification="bit-rot",
        )
    if doc.get("schema") != schema.name:
        raise OMSError(
            f"snapshot is of schema {doc.get('schema')!r}, "
            f"not {schema.name!r}"
        )
    database = OMSDatabase(
        schema,
        clock=clock,
        enable_procedural_interface=enable_procedural_interface,
        policy=doc.get("policy") or {},
    )
    for entry in doc["objects"]:
        entity = schema.entity(entry["type"])
        values = entity.validate_values(
            {k: _json_value(v) for k, v in entry["values"].items()
             if v is not None}
        )
        payload = (
            base64.b64decode(entry["payload"])
            if entry["payload"] is not None
            else None
        )
        obj = OMSObject(entry["oid"], entity, values)
        # intern through the blob store so payloads shared across objects
        # are deduplicated on restore too (delta chains are flattened by
        # the dump; dedup is by content, so restore keeps one copy each)
        database._attach_payload(obj, payload)
        database._objects[entry["oid"]] = obj
        database._allocator.observe(entry["oid"])
    for rel_name, pairs in doc["links"].items():
        schema.relationship(rel_name)  # validates existence
        for source_oid, target_oid in pairs:
            if not (database.exists(source_oid)
                    and database.exists(target_oid)):
                raise OMSError(
                    f"snapshot link {rel_name} references missing "
                    f"objects: {source_oid} -> {target_oid}"
                )
            # restore through the index-aware primitive so the forward
            # and reverse adjacency indexes are rebuilt alongside the
            # pair set
            database._link_add(rel_name, source_oid, target_oid)
    return database


def _json_value(value):
    """JSON round-trips tuples to lists; schema 'list' accepts both."""
    return value
