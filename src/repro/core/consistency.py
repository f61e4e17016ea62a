"""The coupling's consistency guard.

Section 2.4: "The customization of the encapsulation was extended by
several extension language procedures to trigger functions and lock menu
points in order to prevent data inconsistency."  The guard here is
written *in* the FMCAD extension language (menu locking), installs an ITC
interceptor (wrapper mediation), and provides the per-library scan that
makes the hybrid framework's "more powerful data consistency check"
(Section 3.2) measurable against FMCAD's empty baseline (E32).

The crash-consistency audit of the whole coupling is not here: what
counts as a crash leaving, and how it is repaired, is one table in
:mod:`repro.core.recovery`, run by ``HybridFramework.audit()`` and
``HybridFramework.recover()``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.hierarchy import HierarchyManager
from repro.errors import IntegrityError
from repro.core.mapping import DataModelMapper
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.itc import ITCMessage
from repro.fmcad.library import Library
from repro.fmcad.session import ToolSession
from repro.jcf.framework import JCFFramework
from repro.jcf.project import JCFProject

#: Menu points the guard locks in every coupled tool session: versioning
#: and hierarchy manipulation belong to the master framework now.
GUARDED_MENUS = ("checkin", "checkout", "edit_hierarchy", "purge_versions")

#: The guard program, in the FMCAD extension language.  ``guard-session``
#: locks every guarded menu point of one session.
GUARD_PROGRAM = """
(define (guard-menu sid menu)
  (when (not (menu-locked sid menu))
    (lock-menu sid menu "version and hierarchy control owned by JCF")))

(define (guard-session sid)
  (guard-menu sid "checkin")
  (guard-menu sid "checkout")
  (guard-menu sid "edit_hierarchy")
  (guard-menu sid "purge_versions")
  t)
"""


@dataclasses.dataclass(frozen=True)
class Inconsistency:
    """One detected consistency problem."""

    kind: str        # "meta", "hierarchy", "payload", "configuration"
    detail: str
    detected_by: str  # "hybrid" or "fmcad"

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


class ConsistencyGuard:
    """Locks menus, mediates ITC and cross-checks master vs slave state."""

    def __init__(
        self,
        jcf: JCFFramework,
        fmcad: FMCADFramework,
        mapper: DataModelMapper,
        hierarchy: HierarchyManager,
    ) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        self.mapper = mapper
        self.hierarchy = hierarchy
        self._interceptor_installed = False
        fmcad.interpreter.run(GUARD_PROGRAM)

    # -- menu locking (extension language) ----------------------------------

    def guard_session(self, session: ToolSession) -> None:
        """Lock the guarded menu points of *session* via the interpreter.

        Menu points the tool did not register are registered as inert
        entries first, so locking is uniform across tools.
        """
        for name in GUARDED_MENUS:
            if name not in session.menu_names():
                session.register_menu(name, lambda: None)
        self.fmcad.interpreter.call("guard-session", [session.session_id])

    # -- ITC mediation (Section 2.4 wrappers) -----------------------------------

    def install_itc_interceptor(self) -> None:
        """Veto cross-probes into cells another user has reserved.

        FMCAD's ITC "could not be used normally" under the coupling; the
        wrapper inspects each message and suppresses those that would leak
        unpublished state across workspaces.
        """
        if self._interceptor_installed:
            return

        def interceptor(message: ITCMessage) -> Optional[ITCMessage]:
            target = message.payload.get("cell")
            if not target:
                return message
            holder = self._reservation_holder(str(target))
            sender_user = message.payload.get("user", message.sender)
            if holder is not None and holder != sender_user:
                return None  # veto: reserved by someone else
            return message

        self.fmcad.bus.add_interceptor(interceptor)
        self._interceptor_installed = True

    def _reservation_holder(self, cell_name: str) -> Optional[str]:
        for project_obj in self.jcf.db.select("Project"):
            project = JCFProject(self.jcf.db, project_obj)
            cell = project.find_cell(cell_name)
            if cell is None:
                continue
            latest = cell.latest_version()
            if latest is None:
                continue
            return self.jcf.workspaces.reserved_by(latest)
        return None

    # -- cross checks (Section 3.2) ------------------------------------------------

    def scan(self, project: JCFProject, library: Library) -> List[Inconsistency]:
        """Full hybrid consistency scan: meta, hierarchy, payload, configs."""
        findings: List[Inconsistency] = []
        for problem in library.verify_meta():
            findings.append(Inconsistency("meta", problem, "hybrid"))
        try:
            for problem in self.hierarchy.verify_against_library(
                project, library
            ):
                findings.append(Inconsistency("hierarchy", problem, "hybrid"))
        except IntegrityError as exc:
            # a verified read tripped over damaged bytes mid-extraction;
            # that is itself the strongest possible finding
            findings.append(
                Inconsistency(
                    "integrity",
                    f"{exc.location or 'library data'}: "
                    f"{exc.classification or 'corrupt'} detected during "
                    "hierarchy extraction",
                    "hybrid",
                )
            )
        findings.extend(self._scan_payloads(library))
        findings.extend(self._scan_configurations(project))
        return findings

    def _scan_payloads(self, library: Library) -> List[Inconsistency]:
        """Compare OMS blobs with the FMCAD version files they mirror."""
        findings: List[Inconsistency] = []
        for cellview in library.cellviews():
            for version in cellview.versions:
                oid = version.properties.get("jcf_oid")
                if oid is None:
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number} has no JCF "
                            "counterpart (created outside the coupling?)",
                            "hybrid",
                        )
                    )
                    continue
                if not self.jcf.db.exists(oid):
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number}: JCF object "
                            f"{oid} vanished",
                            "hybrid",
                        )
                    )
                    continue
                blob = self.jcf.db.get(oid).payload or b""
                if not version.path.exists():
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number}: FMCAD file "
                            "deleted on disk",
                            "hybrid",
                        )
                    )
                elif blob != version.read_data():
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number}: OMS blob "
                            "and FMCAD file differ",
                            "hybrid",
                        )
                    )
        return findings

    def _scan_configurations(
        self, project: JCFProject
    ) -> List[Inconsistency]:
        findings: List[Inconsistency] = []
        for cell in project.cells():
            for cell_version in cell.versions():
                for config in self.jcf.configurations.configurations_of(
                    cell_version
                ):
                    for problem in self.jcf.configurations.validate(config):
                        findings.append(
                            Inconsistency(
                                "configuration",
                                f"{config.name}: {problem}",
                                "hybrid",
                            )
                        )
        return findings

    # -- the FMCAD baseline (what the slave notices by itself) ----------------------

    @staticmethod
    def fmcad_baseline_scan(library: Library) -> List[Inconsistency]:
        """What standard FMCAD detects automatically: nothing.

        Section 2.2: metadata refresh "is not performed automatically, and
        therefore, it is the responsibility of the designer".  FMCAD will
        happily work from a stale ``.meta``; the E32 experiment uses this
        empty baseline against the hybrid scan.
        """
        return []
