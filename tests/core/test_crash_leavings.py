"""The crash-leavings table: audit detects, recovery repairs, row by row."""

import pytest

from repro.core.coupling import HybridFramework
from repro.core.recovery import CHECKS
from repro.faults import CrashFault, FaultPlan, inject
from repro.server.engine import ServeEngine
from tests.conftest import build_inverter_editor_fn, inverter_testbench_fn

CATEGORIES = {
    "orphan-version", "unpaired-tag", "dangling-ticket", "leaked-session",
    "stale-execution", "pending-intent", "orphan-reservation",
    "staging-orphan", "blob-refcount", "wal-integrity", "stale-lease",
    "integrity", "dead-letter-flow", "flow-orphan",
}


def adopted(root):
    """Same shape as the ``adopted_cell`` fixture, at an explicit root."""
    hybrid = HybridFramework(root)
    resources = hybrid.jcf.resources
    resources.define_user("admin", "alice")
    resources.define_team("admin", "team1")
    resources.add_member("admin", "alice", "team1")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("chiplib")
    library.create_cell("inv2")
    project = hybrid.adopt_library("alice", library, "chipA")
    resources.assign_team_to_project("admin", "team1", project.oid)
    hybrid.prepare_cell("alice", project, "inv2", team_name="team1")
    return hybrid, project, library


def run_schematic(hybrid, project, library):
    return hybrid.run_schematic_entry(
        "alice", project, library, "inv2", build_inverter_editor_fn()
    )


def crash(hybrid, point, action, on_hit=1):
    plan = FaultPlan.crash(point, on_hit=on_hit)
    with inject(plan):
        with pytest.raises(CrashFault):
            action()
    assert plan.crash_fired


def files(root, pattern="*"):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob(pattern))
        if path.is_file()
    }


# -- one seed per repairable row -------------------------------------------------


def seed_pending_intent(hybrid, project, library):
    crash(hybrid, "checkout.after_checkin",
          lambda: run_schematic(hybrid, project, library))


def seed_stale_execution(hybrid, project, library):
    # started, but dead before the intent journal entry
    crash(hybrid, "run.after_start",
          lambda: run_schematic(hybrid, project, library))


def seed_dangling_ticket(hybrid, project, library):
    crash(hybrid, "harvest.after_checkout",
          lambda: run_schematic(hybrid, project, library))


def seed_orphan_reservation(hybrid, project, library):
    # no fault point leaves one: bypass the workspace protocol and
    # publish directly, leaving the 'reserves' link on a published version
    project.cell("inv2").latest_version().publish()


def seed_flow_orphan(hybrid, project, library):
    def run_flow():
        instance = hybrid.flows_orchestrator.start(
            user="alice", project=project, cell_name="inv2",
            flow_name="jcf_fmcad_flow", script="inverter_flow",
            library_name="chiplib", team="team1",
        )
        hybrid.flows_orchestrator.run(instance)

    crash(hybrid, "flow.persist", run_flow, on_hit=3)


def seed_staging_orphan(hybrid, project, library):
    assert run_schematic(hybrid, project, library).success
    hybrid.jcf.staging.clear()
    crash(hybrid, "staging.write", lambda: hybrid.run_simulation(
        "alice", project, library, "inv2", inverter_testbench_fn(),
    ))


def seed_wal_integrity(hybrid, project, library):
    crash(hybrid, "wal.append",
          lambda: hybrid.jcf.resources.define_user("admin", "victim"))
    # the kill also tore the final append mid-record
    with open(hybrid.jcf.wal.log_path, "ab") as handle:
        handle.write(b'{"torn":')


def seed_stale_lease(hybrid, project, library):
    # no fault point expires a lease: a served session simply goes quiet
    engine = ServeEngine(hybrid, shards=1, lease_ttl_ms=100.0)
    session = engine.open_session("alice", "team1", "chiplib", "chipA")
    engine.acquire_lease(session, "inv2", now_ms=engine.epoch_ms)
    hybrid.clock.advance_to(engine.epoch_ms + 500.0)


def seed_integrity(hybrid, project, library):
    with inject(FaultPlan.corrupt("fmcad.version_file")):
        assert run_schematic(hybrid, project, library).success


SEEDS = {
    "pending-intent": seed_pending_intent,
    "stale-execution": seed_stale_execution,
    "dangling-ticket": seed_dangling_ticket,
    "orphan-reservation": seed_orphan_reservation,
    "flow-orphan": seed_flow_orphan,
    "staging-orphan": seed_staging_orphan,
    "wal-integrity": seed_wal_integrity,
    "stale-lease": seed_stale_lease,
    "integrity": seed_integrity,
}


class TestTable:
    def test_every_category_has_exactly_one_row(self):
        categories = [check.category for check in CHECKS]
        assert len(categories) == len(set(categories))
        assert set(categories) == CATEGORIES

    def test_every_repairable_row_has_a_seed(self):
        assert {c.category for c in CHECKS if c.repair} == set(SEEDS)

    @pytest.mark.parametrize("category", sorted(SEEDS))
    def test_seeded_row_is_clean_after_recover(self, tmp_path, category):
        hybrid, project, library = adopted(tmp_path / "env")
        SEEDS[category](hybrid, project, library)
        found = hybrid.audit().by_category()
        assert category in found
        assert set(found) <= CATEGORIES
        hybrid.recover()
        audit = hybrid.audit()
        assert audit.clean, audit.render()
        assert hybrid.recover().empty()


class TestAuditIsReadOnly:
    def wreck(self, root):
        hybrid, project, library = adopted(root)
        hybrid.save_state()  # so there is a checkpoint to compare
        crash(hybrid, "checkout.after_checkin",
              lambda: run_schematic(hybrid, project, library))
        return hybrid

    def test_audit_changes_nothing(self, tmp_path):
        hybrid = self.wreck(tmp_path / "audited")
        twin = self.wreck(tmp_path / "twin")

        def state():
            return (
                files(hybrid.jcf.wal.checkpoint_path.parent),
                files(hybrid.fmcad.root, ".meta"),
                files(hybrid.jcf.staging.root),
                hybrid.jcf.save_snapshot(),
            )

        before = state()
        first = hybrid.audit()
        assert not first.clean
        assert hybrid.audit() == first
        assert state() == before
        # the recovery that follows is the one an unaudited twin gets
        assert hybrid.recover().summary() == twin.recover().summary()
