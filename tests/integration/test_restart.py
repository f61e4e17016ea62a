"""Integration: a hybrid environment survives a framework restart.

JCF state persists as a write-ahead log over a checkpoint, FMCAD state
as the on-disk library (version files, ``.meta``, property sidecars).
Every commit is durable without an explicit save.  After
``HybridFramework.reopen`` the flow continues exactly where it stopped:
reservations hold, flow progress is remembered, derivation recording
resumes, and the consistency scan still cross-checks both sides.
"""

import pytest

from repro.core import HybridFramework
from repro.core.mapping import WORKING_VARIANT
from repro.errors import FlowOrderError
from repro.server.engine import ServeEngine
from repro.workloads.loadgen import ScenarioSpec, build_scenario, replay_engine
from repro.workloads.scripts import (
    inverter_chain_bench,
    inverter_chain_editor,
    labelled_strap_layout,
)


@pytest.fixture
def saved_environment(tmp_path):
    """Run half a flow, save state, return the root for reopening."""
    root = tmp_path / "site"
    hybrid = HybridFramework(root)
    hybrid.jcf.resources.define_user("admin", "alice")
    hybrid.jcf.resources.define_team("admin", "team")
    hybrid.jcf.resources.add_member("admin", "alice", "team")
    hybrid.setup_standard_flow()
    library = hybrid.fmcad.create_library("lib")
    library.create_cell("buf2")
    project = hybrid.adopt_library("alice", library, "proj")
    hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                project.oid)
    hybrid.prepare_cell("alice", project, "buf2", team_name="team")
    hybrid.run_schematic_entry(
        "alice", project, library, "buf2", inverter_chain_editor(2)
    )
    hybrid.run_simulation(
        "alice", project, library, "buf2", inverter_chain_bench(2)
    )
    hybrid.save_state()
    return root


class TestReopen:
    def test_reopen_requires_saved_state(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            HybridFramework.reopen(tmp_path / "never_saved")

    def test_metadata_survives(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        cell_version = project.cell("buf2").latest_version()
        assert cell_version is not None
        assert hybrid.jcf.workspaces.reserved_by(cell_version) == "alice"
        assert cell_version.attached_flow().get("name") == "jcf_fmcad_flow"

    def test_flow_progress_remembered(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        variant = (
            project.cell("buf2").latest_version().variant(WORKING_VARIANT)
        )
        state = hybrid.jcf.engine.state_of(variant)
        assert state.status_by_activity["schematic_entry"] == "done"
        assert state.status_by_activity["digital_simulation"] == "done"
        assert state.status_by_activity["layout_entry"] == "not_started"

    def test_fmcad_library_reopened_from_meta(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        cell = library.cell("buf2")
        assert cell.has_cellview("schematic")
        assert cell.has_cellview("simulation")
        assert cell.cellview("schematic").default_version is not None

    def test_property_sidecars_restore_jcf_tags(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        version = library.cellview("buf2", "schematic").version(1)
        oid = version.properties.get("jcf_oid")
        assert oid is not None
        assert hybrid.jcf.db.exists(oid)

    def test_design_payloads_match_after_restart(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        library = hybrid.fmcad.library("lib")
        assert hybrid.guard.scan(project, library) == []

    def test_flow_continues_after_restart(self, saved_environment):
        hybrid = HybridFramework.reopen(saved_environment)
        project = hybrid.jcf.project("proj")
        library = hybrid.fmcad.library("lib")
        result = hybrid.run_layout_entry(
            "alice", project, library, "buf2",
            labelled_strap_layout(["a", "y"]),
        )
        assert result.success
        variant = (
            project.cell("buf2").latest_version().variant(WORKING_VARIANT)
        )
        assert hybrid.jcf.engine.state_of(variant).complete

    def test_flow_order_still_enforced_after_restart(self, tmp_path):
        """A half-run flow cannot be skipped ahead post-restart."""
        root = tmp_path / "site2"
        hybrid = HybridFramework(root)
        hybrid.jcf.resources.define_user("admin", "alice")
        hybrid.jcf.resources.define_team("admin", "team")
        hybrid.jcf.resources.add_member("admin", "alice", "team")
        hybrid.setup_standard_flow()
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("c")
        project = hybrid.adopt_library("alice", library, "p")
        hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                    project.oid)
        hybrid.prepare_cell("alice", project, "c", team_name="team")
        hybrid.run_schematic_entry(
            "alice", project, library, "c", inverter_chain_editor(2)
        )
        hybrid.save_state()

        reopened = HybridFramework.reopen(root)
        project = reopened.jcf.project("p")
        library = reopened.fmcad.library("lib")
        with pytest.raises(FlowOrderError):
            reopened.run_layout_entry(
                "alice", project, library, "c",
                labelled_strap_layout(["a", "y"]),
            )

    def test_unflushed_versions_lost_on_restart(self, saved_environment):
        """The faithful failure mode: no flush, no memory of the file."""
        hybrid = HybridFramework.reopen(saved_environment)
        library = hybrid.fmcad.library("lib")
        cellview = library.cellview("buf2", "schematic")
        library.write_version(cellview, b"rogue unflushed", "mallory")
        # NO flush_meta before the "crash"
        again = HybridFramework.reopen(saved_environment)
        library2 = again.fmcad.library("lib")
        assert len(library2.cellview("buf2", "schematic").versions) == 1
        assert library2.orphaned_files()  # the file is still on disk

def library_versions(hybrid):
    """``library/cell/view`` -> version numbers of every open library."""
    return {
        f"{library.name}/{cellview.name}": [
            version.number for version in cellview.versions
        ]
        for library in hybrid.fmcad.libraries()
        for cellview in library.cellviews()
    }


class TestDurableByDefault:
    def test_checkin_survives_restart_without_save(self, tmp_path):
        root = tmp_path / "site"
        hybrid = HybridFramework(root)
        hybrid.jcf.resources.define_user("admin", "alice")
        hybrid.jcf.resources.define_team("admin", "team")
        hybrid.jcf.resources.add_member("admin", "alice", "team")
        hybrid.setup_standard_flow()
        library = hybrid.fmcad.create_library("lib")
        library.create_cell("buf2")
        project = hybrid.adopt_library("alice", library, "proj")
        hybrid.jcf.resources.assign_team_to_project("admin", "team",
                                                    project.oid)
        hybrid.prepare_cell("alice", project, "buf2", team_name="team")
        result = hybrid.run_schematic_entry(
            "alice", project, library, "buf2", inverter_chain_editor(2)
        )
        assert result.success
        # no save_state(): the process simply goes away

        reopened = HybridFramework.reopen(root)
        cell_version = reopened.jcf.project("proj").cell("buf2").latest_version()
        variant = cell_version.variant(WORKING_VARIANT)
        state = reopened.jcf.engine.state_of(variant)
        assert state.status_by_activity["schematic_entry"] == "done"
        cellview = reopened.fmcad.library("lib").cellview("buf2", "schematic")
        assert cellview.default_version is not None
        audit = reopened.audit()
        assert audit.clean, audit.render()

    def test_constructor_on_saved_root_matches_reopen(self, saved_environment):
        constructed = HybridFramework(saved_environment)
        reopened = HybridFramework.reopen(saved_environment)
        assert sorted(
            library.name for library in constructed.fmcad.libraries()
        ) == ["lib"]
        assert library_versions(constructed) == library_versions(reopened)
        assert library_versions(constructed)["lib/buf2/schematic"] == [1]
        assert constructed.audit().clean
        assert reopened.audit().clean

    def test_policy_survives_reopen_before_first_checkpoint(self, tmp_path):
        root = tmp_path / "site"
        hybrid = HybridFramework(root, allow_cross_project_sharing=True)
        hybrid.jcf.resources.define_user("admin", "alice")

        reopened = HybridFramework.reopen(root)
        assert reopened.jcf.db.policy["cross_project_sharing"] is True


class TestScenarioReopen:
    """A saved scenario keeps the cells that have no versions yet."""

    SPEC = ScenarioSpec(teams=2, designers_per_team=2)

    @pytest.fixture
    def reopened(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        hybrid.save_state()
        return HybridFramework.reopen(tmp_path / "env"), plans

    def test_reopen_keeps_every_fmcad_cell(self, reopened):
        hybrid, plans = reopened
        cells = {
            (library.name, cell.name)
            for library in hybrid.fmcad.libraries()
            for cell in library.cells()
        }
        assert cells == {(p.library, c) for p in plans for c in p.cells}
        assert len(cells) == 4

    def test_served_checkin_on_reopened_workspace_acks_ok(self, reopened):
        hybrid, plans = reopened
        engine = ServeEngine(hybrid, shards=2, max_batch=4, window_ms=500.0)
        report = replay_engine(engine, plans, self.SPEC)
        assert report.ok == self.SPEC.total_runs
        assert hybrid.audit().clean
