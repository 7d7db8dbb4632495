"""Unit tests for the composition linter."""

import pytest

from repro.aspects.audit import AuditAspect
from repro.aspects.authentication import AuthenticationAspect
from repro.aspects.caching import CachingAspect
from repro.aspects.synchronization import MutexAspect, SemaphoreAspect
from repro.apps import build_ticketing_cluster, make_session_manager
from repro.core import NullAspect
from repro.verify.lint import Finding, lint_chain, lint_cluster


def sessions():
    return make_session_manager({"a": "pw"})


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestObserverPlacement:
    def test_observer_after_guard_flagged(self):
        chain = [
            ("authenticate", AuthenticationAspect(sessions())),
            ("audit", AuditAspect()),
        ]
        findings = lint_chain("open", chain)
        assert "OBS-LATE" in rules_of(findings)

    def test_observer_before_guard_clean(self):
        chain = [
            ("audit", AuditAspect()),
            ("authenticate", AuthenticationAspect(sessions())),
        ]
        assert "OBS-LATE" not in rules_of(lint_chain("open", chain))


class TestCachePlacement:
    def test_cache_before_guard_is_error(self):
        chain = [
            ("cache", CachingAspect()),
            ("authenticate", AuthenticationAspect(sessions())),
        ]
        findings = lint_chain("read", chain)
        cache_findings = [f for f in findings if f.rule == "CACHE-PRE"]
        assert cache_findings
        assert cache_findings[0].severity == "error"

    def test_cache_after_guard_clean(self):
        chain = [
            ("authenticate", AuthenticationAspect(sessions())),
            ("cache", CachingAspect()),
        ]
        assert "CACHE-PRE" not in rules_of(lint_chain("read", chain))


class TestBlockingPairs:
    def test_two_blocking_aspects_flagged(self):
        chain = [
            ("mutex", MutexAspect()),
            ("semaphore", SemaphoreAspect(2)),
        ]
        assert "BLOCK-2" in rules_of(lint_chain("work", chain))

    def test_single_blocking_aspect_clean(self):
        chain = [("mutex", MutexAspect())]
        assert "BLOCK-2" not in rules_of(lint_chain("work", chain))


class TestTransactionPlacement:
    def test_txn_before_sync_flagged(self):
        chain = [
            ("txn", NullAspect()),
            ("mutex", MutexAspect()),
        ]
        assert "TXN-OUT" in rules_of(lint_chain("transfer", chain))

    def test_txn_inside_sync_clean(self):
        chain = [
            ("mutex", MutexAspect()),
            ("txn", NullAspect()),
        ]
        assert "TXN-OUT" not in rules_of(lint_chain("transfer", chain))


class TestMisc:
    def test_empty_chain_is_info(self):
        findings = lint_chain("lonely", [])
        assert rules_of(findings) == ["EMPTY"]
        assert findings[0].severity == "info"

    def test_duplicate_guard_class_is_info(self):
        manager = sessions()
        chain = [
            ("authenticate", AuthenticationAspect(manager)),
            ("auth2", AuthenticationAspect(manager)),
        ]
        # concern "auth2" is not a guard label; mark the aspect
        chain[1][1].is_guard = True
        assert "GUARD-DUP" in rules_of(lint_chain("open", chain))

    def test_finding_format(self):
        finding = Finding(rule="X", severity="warning",
                          method_id="open", detail="something")
        text = finding.format()
        assert "X" in text and "open" in text and "warning" in text


class TestLintCluster:
    def test_clean_ticketing_cluster(self):
        cluster = build_ticketing_cluster(capacity=4)
        findings = lint_cluster(cluster)
        assert not [f for f in findings if f.severity == "error"]

    def test_extended_cluster_uses_effective_order(self):
        """guards_first puts audit before auth: no OBS-LATE."""
        from repro.aspects.audit import AuditLog

        cluster = build_ticketing_cluster(
            capacity=4, sessions=sessions(), audit_log=AuditLog(),
        )
        findings = lint_cluster(cluster)
        assert "OBS-LATE" not in rules_of(findings)

    def test_misordered_cluster_detected(self):
        """Registration order (no policy) with audit after auth."""
        from repro.core import AspectModerator, Cluster

        class Thing:
            def act(self):
                return 1

        cluster = Cluster(component=Thing())
        cluster.moderator.register_aspect(
            "act", "authenticate", AuthenticationAspect(sessions()),
        )
        cluster.moderator.register_aspect("act", "audit", AuditAspect())
        findings = lint_cluster(cluster)
        assert "OBS-LATE" in rules_of(findings)
