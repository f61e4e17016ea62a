"""Scenario builder and the multi-user load generator."""

from __future__ import annotations

import pytest

from repro.server.engine import ServeEngine
from repro.workloads.loadgen import (
    ReplayReport,
    ScenarioSpec,
    build_scenario,
    replay_engine,
)


class TestScenarioSpec:
    def test_counts(self):
        spec = ScenarioSpec(teams=3, designers_per_team=5, runs_per_designer=2)
        assert spec.sessions == 15
        assert spec.total_runs == 30

    def test_defaults_match_paper_scenario(self):
        spec = ScenarioSpec()
        assert spec.activity == "schematic_entry"
        assert spec.sessions == 16


class TestBuildScenario:
    SPEC = ScenarioSpec(teams=2, designers_per_team=2, runs_per_designer=2)

    def test_one_library_per_team(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        assert len(plans) == self.SPEC.sessions
        assert {p.library for p in plans} == {"lib000", "lib001"}
        assert {p.team for p in plans} == {"team000", "team001"}

    def test_every_designer_owns_disjoint_cells(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        all_cells = [cell for plan in plans for cell in plan.cells]
        assert len(all_cells) == self.SPEC.total_runs
        assert len(set(all_cells)) == len(all_cells)

    def test_cells_are_prepared_and_auditable(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        library = hybrid.fmcad.library(plans[0].library)
        assert library.has_cell(plans[0].cells[0])
        assert hybrid.audit().clean

    def test_membership_is_wired(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        resources = hybrid.jcf.resources
        for plan in plans:
            assert resources.is_member(plan.user, plan.team)

    def test_only_wal_persistence_is_accepted(self, tmp_path):
        build_scenario(tmp_path / "env", self.SPEC, persistence="wal")
        with pytest.raises(ValueError):
            build_scenario(tmp_path / "old", self.SPEC, persistence="snapshot")


class TestReplayReport:
    def test_throughput_from_simulated_makespan(self):
        report = ReplayReport(ok=10, makespan_ms=2000.0)
        assert report.checkins_per_sim_s == 5.0
        assert ReplayReport(ok=5, makespan_ms=0.0).checkins_per_sim_s == 0.0

    def test_summary_is_plain_data(self):
        import json

        report = ReplayReport(
            sessions=2, ok=2, makespan_ms=100.0,
            latencies_ms=[1.0, 2.0], rejected={"throttled": 1},
        )
        summary = report.summary()
        json.dumps(summary)
        assert summary["rejected"] == {"throttled": 1}
        assert set(summary["latency_ms"]) == {"p50", "p95", "p99"}

    def test_summary_reports_only_the_measured_timeline(self):
        simulated = ReplayReport(ok=10, makespan_ms=2000.0).summary()
        assert simulated["checkins_per_sim_s"] == 5.0
        assert "wall_s" not in simulated
        assert "checkins_per_wall_s" not in simulated
        socket = ReplayReport(ok=10, wall_s=4.0).summary()
        assert socket["checkins_per_wall_s"] == 2.5
        assert socket["wall_s"] == 4.0
        assert "makespan_ms" not in socket
        assert "checkins_per_sim_s" not in socket


class TestReplayEngine:
    SPEC = ScenarioSpec(teams=2, designers_per_team=2, runs_per_designer=2)

    def test_counts_reconcile(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        engine = ServeEngine(hybrid, shards=2, max_batch=4, window_ms=200.0)
        report = replay_engine(engine, plans, self.SPEC)
        assert report.submitted == self.SPEC.total_runs
        assert report.admitted == report.submitted  # no overload configured
        assert report.completed == report.admitted
        assert report.ok == report.completed
        assert len(report.latencies_ms) == report.completed
        assert report.makespan_ms > 0

    def test_rejections_are_counted_not_raised(self, tmp_path):
        hybrid, plans = build_scenario(tmp_path / "env", self.SPEC)
        engine = ServeEngine(
            hybrid, shards=1, max_batch=100, window_ms=1e9, queue_depth=2
        )
        report = replay_engine(engine, plans, self.SPEC, pump_every=10**9)
        assert report.rejected.get("queue-full", 0) > 0
        assert report.admitted + sum(report.rejected.values()) == (
            report.submitted
        )

    def test_reproducible_across_builds(self, tmp_path):
        summaries = []
        for arm in ("a", "b"):
            hybrid, plans = build_scenario(tmp_path / arm, self.SPEC)
            engine = ServeEngine(
                hybrid, shards=2, max_batch=4, window_ms=200.0
            )
            report = replay_engine(engine, plans, self.SPEC)
            summaries.append(report.summary())
        assert summaries[0] == summaries[1]


class TestLoadgenCli:
    def test_smoke_run_exits_clean(self, tmp_path, capsys):
        import json

        from repro.workloads.loadgen import main

        code = main([
            "--teams", "2", "--designers", "2", "--runs", "1",
            "--shards", "2", "--window-ms", "10", "--root",
            str(tmp_path / "env"),
        ])
        printed = json.loads(capsys.readouterr().out)
        assert code == 0
        assert printed["dropped_sessions"] == 0
        assert printed["audit_clean"] is True
        assert printed["ok"] == 4
        # the socket path has no simulated makespan: its throughput is
        # wall-clock, and no always-zero simulated field is printed
        assert printed["checkins_per_wall_s"] > 0
        assert "makespan_ms" not in printed
        assert "checkins_per_sim_s" not in printed
