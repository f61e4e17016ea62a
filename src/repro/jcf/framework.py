"""The JCF framework facade: one wired-up JESSI-COMMON-Framework 3.0."""

from __future__ import annotations

import contextlib
import pathlib
import threading
from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.oms.wal import WriteAheadLog

from repro.clock import SimClock
from repro.jcf.configurations import ConfigurationService
from repro.jcf.desktop import JCFDesktop
from repro.jcf.flow_engine import FlowEngine
from repro.jcf.flows import FlowDef, FlowRegistry
from repro.jcf.model import build_jcf_schema
from repro.jcf.project import JCFProject
from repro.jcf.resources import ResourceManager
from repro.jcf.versioning import VersioningService
from repro.jcf.workspace import WorkspaceManager
from repro.oms.database import OMSDatabase
from repro.oms.objects import OMSObject
from repro.oms.query import QueryEngine
from repro.oms.storage import StagingArea


class JCFFramework:
    """Facade over one JCF installation.

    Wires the OMS database (with the Figure 1 schema), resource
    management, flow registry and engine, workspaces, configurations and
    the desktop.  Design data leaves the framework only through
    :attr:`staging` — the closed-interface property of Section 2.1.
    """

    def __init__(
        self,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
        administrator: str = "admin",
        enable_procedural_interface: bool = False,
        allow_cross_project_sharing: bool = False,
        wal: Optional["WriteAheadLog"] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.clock = clock or SimClock()
        self.schema = build_jcf_schema()
        policy = {"cross_project_sharing": allow_cross_project_sharing}
        self.wal = wal
        self.wal_recovery = None
        if wal is not None:
            # rebuild from the last good checkpoint plus log replay (a
            # fresh directory yields an empty database), then attach so
            # every commit from here on is logged
            self.db, self.wal_recovery = wal.recover(
                self.schema,
                clock=self.clock,
                enable_procedural_interface=enable_procedural_interface,
                policy=policy,
            )
            self.db.attach_wal(wal)
        else:
            # in-memory: nothing is persisted (unit tests)
            self.db = OMSDatabase(
                self.schema,
                clock=self.clock,
                enable_procedural_interface=enable_procedural_interface,
                policy=policy,
            )
        self.query = QueryEngine(self.db)
        self.resources = ResourceManager(self.db, administrator=administrator)
        self.flows = FlowRegistry(self.db)
        self.engine = FlowEngine(self.db, self.flows)
        self.workspaces = WorkspaceManager(self.db, self.resources)
        self.configurations = ConfigurationService(self.db)
        self.desktop = JCFDesktop(self.db, self.resources, self.workspaces)
        self.versioning = VersioningService(self.db)
        self._default_staging = StagingArea(self.db, self.root / "staging")
        self._staging_local = threading.local()
        if self.wal_recovery is not None:
            if self.wal_recovery.fresh:
                # the policy is not a logged object: only a checkpoint
                # carries it, so a fresh workspace gets one right away
                # (holding the bootstrap objects created above too)
                self.checkpoint()
            else:
                self.flows.rehydrate()

    # -- staging ---------------------------------------------------------------

    @property
    def staging(self) -> StagingArea:
        """The staging area serving the calling thread.

        Normally the framework-wide default area; inside a
        :meth:`staging_sandbox` block (one per scheduled run) it is that
        run's private sandbox, so concurrent runs can never collide on
        staged file names.
        """
        override = getattr(self._staging_local, "area", None)
        return override if override is not None else self._default_staging

    @contextlib.contextmanager
    def staging_sandbox(self, name: str) -> Iterator[StagingArea]:
        """Bind a private staging directory to the calling thread.

        The sandbox lives at ``<staging root>/<name>`` — inside the
        default area's root, so the crash audit and recovery sweeps can
        find a crashed run's leavings by scanning subdirectories.  The
        caller owns cleanup: the scheduler clears a sandbox after a
        clean run and deliberately leaves crash leavings for
        ``CouplingRecovery.recover()``.
        """
        sandbox = StagingArea(
            self.db,
            self._default_staging.root / name,
            copy_on_write=self._default_staging.copy_on_write,
        )
        previous = getattr(self._staging_local, "area", None)
        self._staging_local.area = sandbox
        try:
            yield sandbox
        finally:
            self._staging_local.area = previous
            # fold the sandbox's traffic into the framework-wide
            # accounting so stats() still reports total staging cost
            default = self._default_staging
            with default._lock:
                default.bytes_exported += sandbox.bytes_exported
                default.bytes_imported += sandbox.bytes_imported
                default.files_exported += sandbox.files_exported
                default.files_imported += sandbox.files_imported
                default.export_hits += sandbox.export_hits
                default.export_links += sandbox.export_links
                default.export_reflinks += sandbox.export_reflinks
                default.import_hits += sandbox.import_hits

    # -- persistence ---------------------------------------------------------

    def save_snapshot(self) -> bytes:
        """Serialise the whole metadata+design-data state (OMS snapshot)."""
        from repro.oms.snapshot import dump_snapshot

        return dump_snapshot(self.db)

    def checkpoint(self) -> pathlib.Path:
        """Compact the attached WAL into its checkpoint."""
        if self.wal is None:
            raise ValueError(
                "checkpoint(): this framework is in-memory, with no WAL"
            )
        return self.wal.checkpoint(self.db)

    # -- convenience -----------------------------------------------------------

    def register_flow(self, flow_def: FlowDef) -> OMSObject:
        """Materialise a flow definition as fixed metadata."""
        return self.flows.register(flow_def)

    def project(self, name: str) -> JCFProject:
        found = self.desktop.find_project(name)
        if found is None:
            raise KeyError(f"no project {name!r}")
        return found

    def checkout_design_data(self, user: str, version) -> "object":
        """Stage a design-object version out of OMS for *user*.

        Enforces the workspace visibility rules of Section 2.1: other
        users "are only allowed to read the published parts of the design
        data".  Returns the staged file (and charges the copy — even this
        read-only access pays, Section 3.6).
        """
        from repro.errors import AuthorizationError

        cell_version = version.design_object.variant.cell_version
        if not self.workspaces.can_read(user, cell_version):
            holder = self.workspaces.reserved_by(cell_version)
            raise AuthorizationError(
                f"user {user!r} may not read unpublished data of cell "
                f"version {cell_version.number} (reserved by {holder!r})"
            )
        # read-only by definition (writable access needs a reservation),
        # so the export is eligible for the zero-copy hard-link path
        return self.staging.export_object(version.oid, writable=False)

    def stats(self) -> Dict[str, Any]:
        return {
            "db": self.db.stats(),
            "workspaces": self.workspaces.stats(),
            "staging": self.staging.accounting(),
            "flow_engine": {
                "rejected_starts": self.engine.rejected_starts,
                "forced_starts": self.engine.forced_starts,
            },
        }
