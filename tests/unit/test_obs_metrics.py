"""Unit tests: the thread-striped metrics registry.

The registry's contract: writers touch only their own thread's stripe
(no shared lock on the hot path), yet snapshots are *consistent* — a
multi-counter bump or a histogram's sum/count/bucket triplet is never
observed torn. Plus the Prometheus-model pieces: fixed cumulative
buckets, quantile estimation, counter blocks, label addressing.
"""

import sys
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
)


class TestCountersAndGauges:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total").labels()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_labelled_cells_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("calls_total", labelnames=("method",))
        family.labels("open").inc(3)
        family.labels("assign").inc(5)
        assert family.labels("open").value == 3
        assert family.labels("assign").value == 5

    def test_label_arity_is_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("calls_total", labelnames=("method",))
        with pytest.raises(ValueError):
            family.labels()
        with pytest.raises(ValueError):
            family.labels("open", "extra")

    def test_gauge_goes_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth").labels()
        gauge.inc(7)
        gauge.dec(3)
        assert gauge.value == 4

    def test_conflicting_registration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("method",))

    def test_reregistration_same_shape_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        b = registry.counter("x_total")
        a.labels().inc()
        b.labels().inc()
        assert a.labels().value == 2


class TestStriping:
    def test_one_stripe_per_writer_thread(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total").labels()
        counter.inc()

        def writer():
            counter.inc()

        threads = [threading.Thread(target=writer) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.stripe_count == 4
        assert counter.value == 4

    def test_concurrent_increments_never_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total").labels()
        per_thread = 5000

        def writer():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * per_thread


class TestCounterBlock:
    def test_bump_and_as_dict(self):
        registry = MetricsRegistry()
        block = registry.counter_block(("a", "b", "c"), prefix="m_")
        block.bump("a", "b")
        block.bump("a", amount=2)
        assert block.as_dict() == {"a": 3, "b": 1, "c": 0}
        assert block.value("a") == 3

    def test_snapshot_never_tears_a_multi_bump(self):
        """a and b are always bumped together; no snapshot may ever see
        them out of step (the seed guaranteed this with a global lock;
        the striped registry must via all-stripes-at-once merging)."""
        registry = MetricsRegistry()
        block = registry.counter_block(("a", "b"))
        stop = threading.Event()
        torn = []

        def writer():
            while not stop.is_set():
                block.bump("a", "b")

        def reader():
            for _ in range(2000):
                snapshot = block.as_dict()
                if snapshot["a"] != snapshot["b"]:
                    torn.append(snapshot)
                    return

        writers = [threading.Thread(target=writer) for _ in range(4)]
        read = threading.Thread(target=reader)
        # a short switch interval preempts the writers at a fine grain,
        # inside bump's critical section too, and keeps the reader from
        # waiting a full default interval behind four writers per read
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in writers:
                thread.start()
            read.start()
            read.join()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        for thread in writers:
            thread.join()
        assert torn == []

    def test_keys_are_the_unlabelled_family_cells(self):
        registry = MetricsRegistry()
        block = registry.counter_block(("a", "b"), prefix="m_")
        for name in block.names:
            family = registry.counter("m_" + name)
            assert block._keys[name] == family.labels()._key
        # a block and a family handle bump the same cell
        block.inc("a")
        registry.counter("m_a").labels().inc(2)
        assert block.value("a") == 3

    def test_a_name_registered_as_another_kind_is_refused(self):
        registry = MetricsRegistry()
        registry.gauge("m_b")
        with pytest.raises(ValueError):
            registry.counter_block(("a", "b"), prefix="m_")
        registry.counter("m_c", labelnames=("shard",))
        with pytest.raises(ValueError):
            registry.counter_block(("c",), prefix="m_")


class TestHistograms:
    def test_observe_buckets_sum_count(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", buckets=(0.1, 1.0, 10.0)
        ).labels()
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        merged = histogram.value
        assert merged.count == 4
        assert merged.sum == pytest.approx(55.55)
        # one per bucket, one overflow
        assert merged.counts == (1, 1, 1, 1)

    def test_boundary_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", buckets=(1.0, 2.0)
        ).labels()
        histogram.observe(1.0)  # le=1.0 bucket (cumulative semantics)
        assert histogram.value.counts == (1, 0, 0)

    def test_quantiles_derivable(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", buckets=DEFAULT_LATENCY_BUCKETS
        ).labels()
        for _ in range(90):
            histogram.observe(40e-6)   # lands in le=50µs
        for _ in range(10):
            histogram.observe(900e-6)  # lands in le=1ms
        merged = histogram.value
        assert 25e-6 <= merged.quantile(0.50) <= 50e-6
        assert merged.quantile(0.99) > 500e-6

    def test_quantile_edge_cases(self):
        assert histogram_quantile((1.0, 2.0), (0, 0, 0), 0.5) == 0.0
        # everything in the overflow bucket clamps to the top bound
        assert histogram_quantile((1.0, 2.0), (0, 0, 5), 0.5) == 2.0

    def test_concurrent_observations_merge(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h_seconds", buckets=(0.5,)
        ).labels()

        def writer():
            for _ in range(1000):
                histogram.observe(0.1)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = histogram.value
        assert merged.count == 4000
        assert merged.counts == (4000, 0)
        assert merged.sum == pytest.approx(400.0)


class TestCollect:
    def test_collect_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b_total").labels().inc()
        registry.gauge("a_depth").labels().inc(2)
        registry.histogram("c_seconds", buckets=(1.0,)).labels().observe(.5)
        names = [snapshot.name for snapshot in registry.collect()]
        assert names == ["a_depth", "b_total", "c_seconds"]

    def test_snapshot_nested_dict(self):
        registry = MetricsRegistry()
        family = registry.counter("calls_total", labelnames=("m",))
        family.labels("open").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["calls_total"][("open",)] == 2


class TestModerationStatsMigration:
    """The ModerationStats facade over the registry keeps its old API."""

    def test_attribute_reads_and_as_dict(self):
        from repro.core.moderator import STAT_NAMES, ModerationStats

        stats = ModerationStats()
        stats.bump("preactivations", "resumes")
        stats.bump("preactivations")
        assert stats.preactivations == 2
        assert stats.resumes == 1
        assert stats.blocks == 0
        snapshot = stats.as_dict()
        assert set(snapshot) == set(STAT_NAMES)
        assert snapshot["preactivations"] == 2

    def test_unknown_attribute_raises(self):
        from repro.core.moderator import ModerationStats

        with pytest.raises(AttributeError):
            ModerationStats().preconditions

    def test_fast_path_takes_no_shared_lock(self):
        """Writers on distinct threads land on distinct stripes — the
        global-lock serialization point the seed's bump had is gone."""
        from repro.core.moderator import ModerationStats

        stats = ModerationStats()
        stripes = {}

        def writer(name):
            stats.bump("fastpaths")
            stripes[name] = stats.registry._stripe()

        threads = [
            threading.Thread(target=writer, args=(index,))
            for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(stripe) for stripe in stripes.values()}) == 3
        assert stats.fastpaths == 3
