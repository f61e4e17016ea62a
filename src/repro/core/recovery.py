"""Crash leavings: one table that both audits and recovers the coupling.

The coupled protocol touches two systems with very different crash
behaviour.  OMS is transactional: open transactions self-abort when the
failure propagates, so the master's metadata is always consistent after
a crash.  FMCAD is files-and-locks: version files, checkout tickets,
tool sessions and ``.meta`` flushes have no transaction around them, so
a crash leaves whatever half-state the process died in.

Every kind of leaving is one row of :data:`CHECKS`: a category, a
read-only ``detect`` rule and, unless the row is report-only, a
``repair``.  ``HybridFramework.audit()`` runs every ``detect``; a clean
:class:`AuditReport` is the definition of "recovered".
``HybridFramework.recover()`` walks the same rows in order, detecting
each category afresh right before repairing it, so what an earlier row
repaired (settling an intent fails its execution and cancels its
tickets) is no longer there for a later row to find.

The bridge between the two frameworks is the **coupling intent**: a
durable OMS record (``CouplingIntent``) journalled by
:class:`IntentJournal` *before* the run performs any cross-framework
side effect.  Repairing a pending intent settles the FMCAD versions the
crashed run wrote:

==========================================  ================================
observed state of an FMCAD version          action
(newer than the intent's recorded base)
==========================================  ================================
``jcf_oid`` tag names a live OMS version    keep — the run got far enough
no/dead tag, but the OMS design object's    roll forward: repair the tag
latest payload digest matches the file      (both writes happened, the
                                            cross-tag was the casualty)
no/dead tag and no matching OMS payload     roll back: drop the FMCAD
                                            version (the OMS import never
                                            committed)
==========================================  ================================

It also cancels the intent's checkout tickets, closes its user's tool
sessions, fails its execution and settles the intent as ``done`` or
``aborted``.  That is why untagged versions and leaked sessions are
report-only rows: outside an intent nothing says whether they are safe
to drop.

Recovery assumes a *quiesced* system — it is the restart path, run
before any new coupled work begins, exactly like a database's crash
recovery.  It is idempotent: running it twice, or on a healthy store,
changes nothing (asserted by the test suite via audit + snapshot
equality).
"""

from __future__ import annotations

import dataclasses
import shutil
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Tuple,
)

from repro.errors import CouplingError, FMCADError, LibraryError
from repro.fmcad.library import Library
from repro.integrity.scrub import QUARANTINED, REPAIRED, Scrubber
from repro.jcf.flow_engine import JCFExecution
from repro.jcf.model import (
    EXEC_RUNNING,
    FLOW_ABORTED,
    FLOW_DEAD_LETTER,
    FLOW_QUEUED,
    FLOW_RUNNING,
    FLOW_TERMINAL_STATES,
    INTENT_ABORTED,
    INTENT_DONE,
    INTENT_PENDING,
)
from repro.jcf.project import JCFCellVersion, JCFVariant
from repro.oms.objects import OMSObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.coupling import HybridFramework

#: author recorded on ``.meta`` flushes performed by recovery
RECOVERY_USER = "recovery"


class IntentJournal:
    """Durable begin/finish records for coupled runs.

    An intent is only worth anything if it survives the crash it is
    meant to describe, so :meth:`begin` refuses to run inside an open
    transaction — an aborting transaction would take the intent with it.
    """

    def __init__(self, db) -> None:
        self._db = db

    def begin(
        self,
        kind: str,
        user: str,
        library: str,
        cell: str,
        activity: str = "",
        execution_oid: str = "",
        variant_oid: str = "",
        fmcad_base: Optional[Sequence[Sequence[Any]]] = None,
        note: str = "",
    ) -> str:
        """Journal a pending intent; returns its oid."""
        if self._db.in_transaction:
            raise CouplingError(
                "intent records must be journalled outside transactions — "
                "an abort would erase the evidence recovery depends on"
            )
        obj = self._db.create(
            "CouplingIntent",
            {
                "kind": kind,
                "state": INTENT_PENDING,
                "user": user,
                "library": library,
                "cell": cell,
                "activity": activity,
                "execution_oid": execution_oid,
                "variant_oid": variant_oid,
                "fmcad_base": [list(pair) for pair in (fmcad_base or [])],
                "started_ms": self._db.clock.now_ms,
                "note": note,
            },
        )
        return obj.oid

    def finish(self, oid: str, state: str, note: str = "") -> None:
        """Settle an intent as ``done`` or ``aborted``."""
        if state not in (INTENT_DONE, INTENT_ABORTED):
            raise CouplingError(f"invalid terminal intent state {state!r}")
        self._db.set_attr(oid, "state", state)
        self._db.set_attr(oid, "finished_ms", self._db.clock.now_ms)
        if note:
            self._db.set_attr(oid, "note", note)

    def pending(self) -> List[OMSObject]:
        return self._db.select(
            "CouplingIntent", lambda o: o.get("state") == INTENT_PENDING
        )

    def all(self) -> List[OMSObject]:
        return self._db.select("CouplingIntent")


@dataclasses.dataclass(frozen=True)
class AuditFinding:
    """One crash leaving found by a :class:`Check`'s ``detect`` rule."""

    category: str
    detail: str
    #: what the row's ``repair`` acts on (an intent, a ticket, a path...)
    subject: Any = dataclasses.field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"[{self.category}] {self.detail}"


@dataclasses.dataclass
class AuditReport:
    """Outcome of one cross-framework audit pass."""

    findings: List[AuditFinding] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_category(self) -> Dict[str, List[AuditFinding]]:
        grouped: Dict[str, List[AuditFinding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.category, []).append(finding)
        return grouped

    def render(self) -> str:
        if self.clean:
            return "audit: clean"
        lines = [f"audit: {len(self.findings)} finding(s)"]
        for category, findings in sorted(self.by_category().items()):
            lines.append(f"  {category}: {len(findings)}")
            for finding in findings:
                lines.append(f"    - {finding.detail}")
        return "\n".join(lines)


@dataclasses.dataclass
class RecoveryReport:
    """Everything one :func:`recover` pass repaired."""

    completed_intents: List[str] = dataclasses.field(default_factory=list)
    aborted_intents: List[str] = dataclasses.field(default_factory=list)
    cancelled_tickets: List[str] = dataclasses.field(default_factory=list)
    deleted_fmcad_versions: List[str] = dataclasses.field(default_factory=list)
    repaired_tags: List[str] = dataclasses.field(default_factory=list)
    closed_sessions: List[str] = dataclasses.field(default_factory=list)
    failed_executions: List[str] = dataclasses.field(default_factory=list)
    released_reservations: List[str] = dataclasses.field(default_factory=list)
    reclaimed_staging_files: List[str] = dataclasses.field(default_factory=list)
    #: corrupt payloads healed from verified peer copies (integrity scrub)
    repaired_payloads: List[str] = dataclasses.field(default_factory=list)
    #: unrepairable payloads taken out of service, never to be read again
    quarantined_payloads: List[str] = dataclasses.field(default_factory=list)
    #: write-ahead-log repairs (torn tails dropped after a crash mid-append)
    wal_repairs: List[str] = dataclasses.field(default_factory=list)
    #: stranded flow instances re-queued for resume (crash mid-flow)
    adopted_flows: List[str] = dataclasses.field(default_factory=list)
    #: flow instances whose design context is gone; parked as aborted
    compensated_flows: List[str] = dataclasses.field(default_factory=list)
    #: expired checkout leases reclaimed from dead served sessions
    reclaimed_leases: List[str] = dataclasses.field(default_factory=list)

    def empty(self) -> bool:
        return not any(
            getattr(self, field.name) for field in dataclasses.fields(self)
        )

    def summary(self) -> str:
        if self.empty():
            return "recovery: nothing to repair"
        lines = ["recovery:"]
        for field in dataclasses.fields(self):
            items = getattr(self, field.name)
            if items:
                label = field.name.replace("_", " ")
                lines.append(f"  {label}: {len(items)}")
                for item in items:
                    lines.append(f"    - {item}")
        return "\n".join(lines)


#: a detect rule yields ``(detail, subject)`` per leaving it finds
Leavings = Iterator[Tuple[str, Any]]
Repair = Callable[
    ["HybridFramework", List[AuditFinding], RecoveryReport], None
]


@dataclasses.dataclass(frozen=True)
class Check:
    """One row of the crash-leavings table."""

    category: str
    detect: Callable[["HybridFramework"], Leavings]
    #: ``None`` for report-only rows
    repair: Optional[Repair] = None

    def findings(self, hybrid: "HybridFramework") -> List[AuditFinding]:
        return [
            AuditFinding(self.category, detail, subject)
            for detail, subject in self.detect(hybrid)
        ]


# -- detect rules (read-only) --------------------------------------------------


def _pending_intents(hybrid: "HybridFramework") -> Leavings:
    for intent in hybrid.intents.pending():
        yield (
            f"intent {intent.oid} ({intent.get('kind')} on "
            f"{intent.get('cell')!r} by {intent.get('user')}) never settled",
            intent,
        )


def _fmcad_versions(hybrid: "HybridFramework") -> Iterator[Tuple[str, Any]]:
    """``(where, jcf_oid tag)`` of every version in every library,
    including libraries still closed on disk."""
    fmcad = hybrid.fmcad
    names = {library.name for library in fmcad.libraries()}
    for name in sorted(names.union(fmcad.known_library_names())):
        library = _library(hybrid, name)
        for cellview in library.cellviews():
            for version in cellview.versions:
                yield (
                    f"{library.name}:{cellview.name} v{version.number}",
                    version.properties.get("jcf_oid"),
                )


def _untagged_versions(hybrid: "HybridFramework") -> Leavings:
    for where, oid in _fmcad_versions(hybrid):
        if oid is None:
            yield f"{where} carries no jcf_oid cross-tag", None


def _dead_tags(hybrid: "HybridFramework") -> Leavings:
    for where, oid in _fmcad_versions(hybrid):
        if oid is not None and not hybrid.jcf.db.exists(oid):
            yield f"{where} tags dead OMS object {oid}", None


def _open_sessions(hybrid: "HybridFramework") -> Leavings:
    for session in hybrid.fmcad.sessions():
        yield (
            f"tool session {session.session_id} ({session.tool_name}, "
            f"user {session.user}) still open",
            session,
        )


def _running_executions(hybrid: "HybridFramework") -> Leavings:
    """On a quiesced system a ``running`` execution is always stale —
    including the crash window between ``start_activity`` and the intent
    journal entry, which no intent describes."""
    for obj in hybrid.jcf.db.select(
        "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
    ):
        yield f"execution {obj.oid} still running", obj.oid


def _open_tickets(hybrid: "HybridFramework") -> Leavings:
    """Quiesced means no checkout is live."""
    for ticket in hybrid.fmcad.checkouts.active_tickets():
        yield (
            f"open checkout of {ticket.cellview_key} by {ticket.user}",
            ticket,
        )


def _orphan_reservations(hybrid: "HybridFramework") -> Leavings:
    """A ``reserves`` link whose cell version is already published
    (publish releases atomically, so only a bypassed protocol leaves
    one) or whose workspace owner is no longer a registered user."""
    db = hybrid.jcf.db
    for workspace in db.select("Workspace"):
        owner = workspace.get("owner")
        try:
            hybrid.jcf.resources.user(owner)
            owner_known = True
        except Exception:
            owner_known = False
        for cv_oid in db.target_oids("reserves", workspace.oid):
            cell_version = JCFCellVersion(db, db.get(cv_oid))
            if owner_known and not cell_version.published:
                continue
            reason = (
                "already published" if cell_version.published
                else "unknown owner"
            )
            yield (
                f"{owner} reserves cell version {cell_version.number} "
                f"of {cell_version.cell.name!r} ({reason})",
                (workspace.oid, cv_oid),
            )


def _flow_ident(obj: OMSObject) -> str:
    return (
        f"flow instance {obj.oid} ({obj.get('flow_name')} on "
        f"{obj.get('cell')!r})"
    )


def _stranded_flows(hybrid: "HybridFramework") -> Leavings:
    """A non-terminal instance whose variant no longer resolves can never
    progress; a ``running`` one on a quiesced system lost its driver.
    The subject says whether the design context is still alive."""
    db = hybrid.jcf.db
    for obj in db.select("FlowInstance"):
        if obj.get("status") in FLOW_TERMINAL_STATES:
            continue
        try:
            db.get(obj.get("variant_oid") or "")
        except Exception:
            yield (
                f"{_flow_ident(obj)} references a variant that no longer "
                "exists",
                (obj.oid, False),
            )
            continue
        if obj.get("status") == FLOW_RUNNING:
            yield (
                f"{_flow_ident(obj)} still marked running on a quiesced "
                "system",
                (obj.oid, True),
            )


def _dead_letter_flows(hybrid: "HybridFramework") -> Leavings:
    """Parked work an operator must look at, listed so the audit is the
    one place that shows everything unfinished."""
    for obj in hybrid.jcf.db.select(
        "FlowInstance", lambda o: o.get("status") == FLOW_DEAD_LETTER
    ):
        yield (
            f"{_flow_ident(obj)} dead-lettered: {obj.get('note') or '?'}",
            None,
        )


def _staging_orphans(hybrid: "HybridFramework") -> Leavings:
    """Files no staging record claims (the ``staging.write`` window) and
    any file inside a per-run scheduler sandbox, which a clean run
    removes with its sandbox directory.  Their bytes are all in OMS."""
    staging = hybrid.jcf.staging
    root = staging.root
    sandboxed = sorted(
        path for path in root.rglob("*")
        if path.is_file() and path.parent != root
    )
    for path in staging.orphan_files() + sandboxed:
        yield (
            f"unrecorded staging file {path.relative_to(root).as_posix()}",
            path,
        )


def _blob_refcounts(hybrid: "HybridFramework") -> Leavings:
    for problem in hybrid.jcf.db.verify_payload_refcounts():
        yield problem, None


def _wal_damage(hybrid: "HybridFramework") -> Leavings:
    """A torn tail not yet dropped, a checkpoint failing its embedded
    checksum, or a payload sidecar that no longer proves its digest."""
    for location, classification in hybrid.jcf.wal.verify():
        yield f"{location}: {classification}", None


def _expired_leases(hybrid: "HybridFramework") -> Leavings:
    """An expired lease still live blocks successors on behalf of a dead
    session.  The lease table is an optional attachment a serving engine
    publishes on the database."""
    table = getattr(hybrid.jcf.db, "lease_table", None)
    if table is None:
        return
    now = table.now()
    for lease in table.live_leases():
        if lease.expired(now):
            yield (
                f"{lease.key}: expired at {lease.expires_ms:.0f}ms "
                f"(session {lease.session_id}, token {lease.token}) "
                f"but never reclaimed",
                None,
            )


def _storage_damage(hybrid: "HybridFramework") -> Leavings:
    """Actionable scrub damage only: orphans have rows of their own, and
    known-quarantined losses were reported by the recovery pass that
    quarantined them — re-reporting forever would make a recovered
    store permanently un-auditable."""
    for finding in Scrubber(hybrid.jcf, hybrid.fmcad).scrub().findings:
        if finding.actionable:
            yield str(finding), None


# -- repairs -------------------------------------------------------------------


def _per_subject(repair_one) -> Repair:
    """A repair applying ``repair_one(hybrid, subject, report)`` to the
    subject of each finding."""
    def repair(hybrid, findings, report: RecoveryReport) -> None:
        for finding in findings:
            repair_one(hybrid, finding.subject, report)
    return repair


def _release_reservations(hybrid, findings, report: RecoveryReport) -> None:
    for finding in findings:
        hybrid.jcf.db.unlink("reserves", *finding.subject)
        report.released_reservations.append(finding.detail)


def _settle_flows(hybrid, findings, report: RecoveryReport) -> None:
    """Adopt a stranded instance back to ``queued`` so
    ``resume_pending()`` rolls it forward from its last durable activity
    (the executions row already failed the interrupted one, which makes
    the re-run admissible); compensate one whose context is gone to the
    terminal ``aborted`` instead of letting it haunt the queue."""
    db = hybrid.jcf.db
    for finding in findings:
        oid, context_alive = finding.subject
        if context_alive:
            db.set_attr(oid, "status", FLOW_QUEUED)
            report.adopted_flows.append(oid)
        else:
            db.set_attr(oid, "status", FLOW_ABORTED)
            db.set_attr(
                oid, "note", "compensated by recovery: design context is gone"
            )
            report.compensated_flows.append(oid)
        db.set_attr(oid, "updated_ms", db.clock.now_ms)


def _reclaim_staging(hybrid, findings, report: RecoveryReport) -> None:
    """Unlink orphans at the staging root; remove a sandbox directory
    wholesale."""
    root = hybrid.jcf.staging.root
    for finding in findings:
        relative = finding.subject.relative_to(root)
        if len(relative.parts) == 1:
            finding.subject.unlink(missing_ok=True)
        else:
            shutil.rmtree(root / relative.parts[0], ignore_errors=True)
        report.reclaimed_staging_files.append(relative.as_posix())


def _repair_wal(hybrid, findings, report: RecoveryReport) -> None:
    """Drop the live log's torn tail.  Reopen already repairs the tail it
    replays over; this covers environments that were not reopened.
    Damage that is not a tail problem stays for the audit to report."""
    report.wal_repairs.extend(hybrid.jcf.wal.repair())


def _reclaim_leases(hybrid, findings, report: RecoveryReport) -> None:
    """A restarted server then grants successors immediately instead of
    waiting for the first pump to notice."""
    for lease in hybrid.jcf.db.lease_table.reclaim_due():
        report.reclaimed_leases.append(
            f"{lease.key} (session {lease.session_id}, token {lease.token})"
        )


def _scrub_storage(hybrid, findings, report: RecoveryReport) -> None:
    """Heal at-rest corruption from verified peer copies and quarantine
    what has no surviving peer, so no later read is served the damage
    (see :class:`repro.integrity.scrub.Scrubber`)."""
    scrub = Scrubber(hybrid.jcf, hybrid.fmcad).scrub(repair=True)
    for finding in scrub.findings:
        if finding.action == REPAIRED:
            report.repaired_payloads.append(str(finding))
        elif finding.action == QUARANTINED:
            report.quarantined_payloads.append(str(finding))


# -- per-intent repair ---------------------------------------------------------


def _recover_intent(
    hybrid: "HybridFramework", intent: OMSObject, report: RecoveryReport
) -> None:
    library = _library(hybrid, intent.get("library"))
    cell_name = intent.get("cell") or ""
    durable_outputs = 0
    touched_library = False

    if library is not None and library.has_cell(cell_name):
        for _, ticket in _open_tickets(hybrid):
            if (ticket.library_name, ticket.cell_name) == (
                library.name, cell_name
            ):
                _cancel_ticket(hybrid, ticket, report)
        base: Dict[str, int] = {
            str(view): int(number)
            for view, number in (intent.get("fmcad_base") or [])
        }
        variant = _variant(hybrid, intent.get("variant_oid"))
        for cellview in library.cell(cell_name).cellviews():
            kept, dropped, repaired = _settle_cellview(
                hybrid, library, cellview,
                base.get(cellview.view.name, 0),
                variant, report,
            )
            durable_outputs += kept + repaired
            touched_library = touched_library or dropped or repaired

    for _, session in _open_sessions(hybrid):
        if session.user == intent.get("user"):
            hybrid.fmcad.close_session(session.session_id)
            report.closed_sessions.append(session.session_id)

    _fail_execution(hybrid, intent.get("execution_oid"), report)

    if touched_library and library is not None:
        # the crash interrupted before (or between) .meta flushes;
        # republish faithful metadata under the recovery identity
        library.flush_meta(RECOVERY_USER)

    if durable_outputs:
        hybrid.intents.finish(
            intent.oid, INTENT_DONE,
            note=f"recovered: {durable_outputs} durable output(s)",
        )
        report.completed_intents.append(intent.oid)
    else:
        hybrid.intents.finish(
            intent.oid, INTENT_ABORTED, note="recovered: rolled back"
        )
        report.aborted_intents.append(intent.oid)


def _settle_cellview(
    hybrid: "HybridFramework",
    library: Library,
    cellview,
    base_number: int,
    variant: Optional[JCFVariant],
    report: RecoveryReport,
) -> Tuple[int, int, int]:
    """Apply the decision table to every version newer than the base.

    Returns ``(kept, dropped, repaired)`` counts.  Versions are settled
    newest-first because only the newest version of a chain can be
    dropped; the scan stops at the first version it keeps — everything
    older was durable before the crashed run began or was kept by an
    earlier recovery pass.
    """
    kept = dropped = repaired = 0
    dobj = (
        variant.find_design_object(cellview.view.name)
        if variant is not None
        else None
    )
    latest_jcf = dobj.latest_version() if dobj is not None else None
    for version in reversed(list(cellview.versions)):
        if version.number <= base_number:
            break
        tag = version.properties.get("jcf_oid")
        if tag and hybrid.jcf.db.exists(tag):
            kept += 1
            break
        if (
            latest_jcf is not None
            and version.path.exists()
            and latest_jcf.payload_digest == version.content_digest()
        ):
            # both writes landed; only the cross-tag was lost
            version.properties.set("jcf_oid", latest_jcf.oid)
            repaired += 1
            report.repaired_tags.append(
                f"{library.name}:{cellview.name} v{version.number} -> "
                f"{latest_jcf.oid}"
            )
            break
        library.drop_version(cellview, version.number)
        dropped += 1
        report.deleted_fmcad_versions.append(
            f"{library.name}:{cellview.name} v{version.number}"
        )
    return kept, dropped, repaired


# -- internals -----------------------------------------------------------------


def _fail_execution(
    hybrid: "HybridFramework", oid: Optional[str], report: RecoveryReport
) -> None:
    jcf = hybrid.jcf
    if not oid or not jcf.db.exists(oid):
        return
    execution = JCFExecution(jcf.db, jcf.db.get(oid))
    if execution.status != EXEC_RUNNING:
        return
    jcf.engine.finish_activity(execution, success=False)
    report.failed_executions.append(oid)


def _cancel_ticket(
    hybrid: "HybridFramework", ticket, report: RecoveryReport
) -> None:
    try:
        hybrid.fmcad.checkouts.cancel(ticket)
    except (FMCADError, LibraryError):  # pragma: no cover - defensive
        return
    report.cancelled_tickets.append(f"{ticket.cellview_key} ({ticket.user})")


def _library(
    hybrid: "HybridFramework", name: Optional[str]
) -> Optional[Library]:
    if not name:
        return None
    try:
        return hybrid.fmcad.library(name)
    except LibraryError:
        if name in hybrid.fmcad.known_library_names():
            return hybrid.fmcad.open_library(name)
        return None


def _variant(
    hybrid: "HybridFramework", oid: Optional[str]
) -> Optional[JCFVariant]:
    if not oid or not hybrid.jcf.db.exists(oid):
        return None
    return JCFVariant(hybrid.jcf.db, hybrid.jcf.db.get(oid))


# -- the table -----------------------------------------------------------------


#: The crash-leavings table, in repair order: intents first (their
#: decision table settles versions, tickets and sessions), then the
#: generic sweeps, then the WAL tail, leases and a full integrity scrub.
CHECKS: Tuple[Check, ...] = (
    Check("pending-intent", _pending_intents, _per_subject(_recover_intent)),
    Check("orphan-version", _untagged_versions),
    Check("unpaired-tag", _dead_tags),
    Check("leaked-session", _open_sessions),
    Check("stale-execution", _running_executions,
          _per_subject(_fail_execution)),
    Check("dangling-ticket", _open_tickets, _per_subject(_cancel_ticket)),
    Check("orphan-reservation", _orphan_reservations, _release_reservations),
    Check("flow-orphan", _stranded_flows, _settle_flows),
    Check("dead-letter-flow", _dead_letter_flows),
    Check("staging-orphan", _staging_orphans, _reclaim_staging),
    Check("blob-refcount", _blob_refcounts),
    Check("wal-integrity", _wal_damage, _repair_wal),
    Check("stale-lease", _expired_leases, _reclaim_leases),
    Check("integrity", _storage_damage, _scrub_storage),
)


def audit(hybrid: "HybridFramework") -> AuditReport:
    """Run every row's ``detect``; changes nothing."""
    return AuditReport(
        [finding for check in CHECKS for finding in check.findings(hybrid)]
    )


def recover(hybrid: "HybridFramework") -> RecoveryReport:
    """Repair every row that has leavings, in table order.

    Must run on a quiesced system (no coupled run in flight) and outside
    any transaction — the repairs themselves must be as durable as the
    damage.
    """
    if hybrid.jcf.db.in_transaction:
        raise CouplingError("recovery cannot run inside a transaction")
    report = RecoveryReport()
    for check in CHECKS:
        if check.repair is None:
            continue
        findings = check.findings(hybrid)
        if findings:
            check.repair(hybrid, findings, report)
    return report
