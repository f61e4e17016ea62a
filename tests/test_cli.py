"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInfo:
    def test_info_exits_zero(self):
        code, text = run_cli(["info"])
        assert code == 0

    def test_info_lists_systems_and_table1(self):
        _, text = run_cli(["info"])
        assert "repro.jcf" in text
        assert "repro.fmcad" in text
        assert "DesignObjectVersion" in text
        assert "Cellview Version" in text


class TestDemo:
    def test_demo_runs_full_flow(self, tmp_path):
        code, text = run_cli(["demo", "--workspace", str(tmp_path / "d")])
        assert code == 0
        for activity in ("schematic_entry", "digital_simulation",
                         "layout_entry"):
            assert activity in text
        assert "FAILED" not in text
        assert "derivation record" in text

    def test_demo_uses_given_workspace(self, tmp_path):
        workspace = tmp_path / "demo_ws"
        code, text = run_cli(["demo", "--workspace", str(workspace)])
        assert code == 0
        assert workspace.exists()
        assert str(workspace) in text


class TestSelfcheck:
    def test_selfcheck_passes(self):
        code, text = run_cli(["selfcheck"])
        assert code == 0
        assert "selfcheck passed" in text


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            run_cli([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])


class TestConsult:
    def test_consult_prints_report(self):
        code, text = run_cli(["consult"])
        assert code == 0
        assert "design consultant report:" in text
        # flow hint: simulation is the next runnable activity
        assert "digital_simulation" in text


class TestAuditRecover:
    def test_audit_without_workspace_inspects_demo(self):
        code, text = run_cli(["audit"])
        assert code == 0
        assert "audit: clean" in text

    def test_recover_without_workspace_finds_nothing(self):
        code, text = run_cli(["recover"])
        assert code == 0
        assert "nothing to repair" in text
        assert "audit: clean" in text

    def test_audit_refuses_unsaved_workspace(self, tmp_path):
        code, text = run_cli(["audit", "--workspace", str(tmp_path)])
        assert code == 2
        assert "error:" in text and "not a saved hybrid workspace" in text

    def test_recover_refuses_unsaved_workspace(self, tmp_path):
        code, text = run_cli(["recover", "--workspace", str(tmp_path)])
        assert code == 2
        assert "error:" in text

    def test_demo_saves_reopenable_workspace(self, tmp_path):
        workspace = tmp_path / "ws"
        code, text = run_cli(["demo", "--workspace", str(workspace)])
        assert code == 0
        assert "saved:" in text
        code, text = run_cli(["audit", "--workspace", str(workspace)])
        assert code == 0
        assert "audit: clean" in text

    def test_demo_refuses_existing_workspace(self, tmp_path):
        workspace = tmp_path / "ws"
        assert run_cli(["demo", "--workspace", str(workspace)])[0] == 0
        code, text = run_cli(["demo", "--workspace", str(workspace)])
        assert code == 2
        assert "error:" in text and "fresh directory" in text

    def test_crashed_workspace_audits_dirty_then_recovers(self, tmp_path):
        from repro.core import HybridFramework
        from repro.faults import CrashFault, FaultPlan, inject
        from tests.conftest import build_inverter_editor_fn

        root = tmp_path / "ws"
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
        with inject(FaultPlan.crash("harvest.after_checkin")):
            with pytest.raises(CrashFault):
                hybrid.run_schematic_entry(
                    "alice", project, library, "inv2",
                    build_inverter_editor_fn(),
                )
        hybrid.save_state()

        code, text = run_cli(["audit", "--workspace", str(root)])
        assert code == 1
        assert "finding(s)" in text
        code, text = run_cli(["recover", "--workspace", str(root)])
        assert code == 0
        assert "audit: clean" in text
        code, text = run_cli(["audit", "--workspace", str(root)])
        assert code == 0


class TestServe:
    def test_serve_boots_answers_and_drains_on_sigint(self, tmp_path):
        """`repro serve` over a subprocess: boot, ping over the socket,
        SIGINT, clean drain."""
        import json
        import os
        import signal
        import socket
        import subprocess
        import sys
        import time

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--shards", "2", "--window-ms", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if "listening on" in line:
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            assert port, "server never reported its address"
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                s.sendall(b'{"op": "ping", "id": 1}\n')
                answer = json.loads(s.makefile().readline())
                assert answer["ok"] and answer["pong"]
            process.send_signal(signal.SIGINT)
            remainder = process.communicate(timeout=60)[0]
            assert process.returncode == 0, remainder
            assert "stopped cleanly" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
