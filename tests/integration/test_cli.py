"""Tests for the ``python -m repro`` demo entry point."""

import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
    )


class TestCli:
    def test_default_demo_prints_figures(self):
        completed = run_cli()
        assert completed.returncode == 0, completed.stderr
        assert "Figure 2" in completed.stdout
        assert "Figure 3" in completed.stdout
        assert "matched" in completed.stdout
        assert "MISMATCH" not in completed.stdout

    def test_verify_command_reports_ok_and_counterexample(self):
        completed = run_cli("verify")
        assert completed.returncode == 0, completed.stderr
        assert "OK:" in completed.stdout
        assert "deadlock" in completed.stdout

    def test_metrics_command_prints_comparison(self):
        completed = run_cli("metrics")
        assert completed.returncode == 0, completed.stderr
        assert "mean tangling" in completed.stdout

    def test_lint_command_reports_anomalies(self):
        completed = run_cli("lint")
        assert completed.returncode == 0, completed.stderr
        assert "no findings" in completed.stdout
        assert "CACHE-PRE" in completed.stdout
        assert "OBS-LATE" in completed.stdout

    def test_obs_command_prints_plane_summary(self):
        completed = run_cli("obs")
        assert completed.returncode == 0, completed.stderr
        assert "observability plane summary" in completed.stdout
        # summary table covers both workload methods
        assert "open" in completed.stdout
        assert "assign" in completed.stdout
        # a flame breakdown and a span tree were rendered
        assert "activation(s)" in completed.stdout
        assert "pre_activation" in completed.stdout
        assert "notify" in completed.stdout
        # Prometheus excerpt includes migrated moderation counters
        assert "repro_moderation_preactivations" in completed.stdout
        assert "listener errors: 0" in completed.stdout

    def test_profile_command_shows_feedback_optimization(self):
        completed = run_cli("profile")
        assert completed.returncode == 0, completed.stderr
        # the seed plan already shows the static decisions
        assert "elided: metrics" in completed.stdout
        assert "memoized: catalog" in completed.stdout
        # the clause report has rows for the measured concerns
        assert "veto%" in completed.stdout
        assert "fraud" in completed.stdout
        # after refresh the cheap frequent vetoer runs first
        assert "reordered by profile" in completed.stdout
        assert "200 vetoed" in completed.stdout

    def test_recover_command_demos_crash_restart(self):
        completed = run_cli("recover")
        # the demo reports its own failures (the audit table, a zombie
        # write) on stdout
        assert completed.returncode == 0, (
            f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
        )
        # the service moved off the crashed node with a fresh epoch
        assert "failover -> n2" in completed.stdout
        assert "epoch=2" in completed.stdout
        # the durable journal was replayed into the new home
        assert "replayed=5 journaled effects" in completed.stdout
        # a put riding out the outage still landed exactly once
        assert "acked after failover, exactly once" in completed.stdout
        # the returning zombie's late durable write was rejected
        assert "zombie n2 fenced out" in completed.stdout
        assert "zombie write was accepted?!" not in completed.stdout
        # the audit table shows no double-applies in either view
        assert "exactly-once audit" in completed.stdout

    def test_unknown_command_rejected(self):
        completed = run_cli("bogus")
        assert completed.returncode != 0
