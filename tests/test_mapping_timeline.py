"""Tests for the cluster processor timelines."""

import pytest

from repro.exceptions import MappingError
from repro.mapping.timeline import ClusterTimeline, PlatformTimeline
from repro.platform.cluster import Cluster


@pytest.fixture
def timeline():
    return ClusterTimeline(Cluster("c", 4, 2.0))


class TestClusterTimeline:
    def test_initially_all_free(self, timeline):
        assert timeline.earliest_start(4, 0.0) == 0.0
        assert list(timeline.free_times()) == [0.0] * 4

    def test_reserve_advances_free_times(self, timeline):
        procs, start, finish = timeline.reserve(2, 0.0, 5.0)
        assert start == 0.0 and finish == 5.0
        assert sorted(procs) == [0, 1]
        assert timeline.earliest_start(4, 0.0) == 5.0  # needs all four
        assert timeline.earliest_start(2, 0.0) == 0.0  # two still free

    def test_ready_time_respected(self, timeline):
        _, start, _ = timeline.reserve(1, 3.0, 1.0)
        assert start == 3.0

    def test_earliest_start_kth_smallest(self, timeline):
        timeline.reserve(1, 0.0, 10.0)
        timeline.reserve(1, 0.0, 2.0)
        # free times are now [10, 2, 0, 0]
        assert timeline.earliest_start(2, 0.0) == 0.0
        assert timeline.earliest_start(3, 0.0) == 2.0
        assert timeline.earliest_start(4, 0.0) == 10.0

    def test_selects_earliest_free_processors(self, timeline):
        timeline.reserve(2, 0.0, 8.0)      # procs 0,1 busy until 8
        procs, start, finish = timeline.reserve(2, 0.0, 1.0)
        assert sorted(procs) == [2, 3]
        assert start == 0.0

    def test_too_many_processors(self, timeline):
        with pytest.raises(MappingError):
            timeline.earliest_start(5, 0.0)
        with pytest.raises(MappingError):
            timeline.reserve(0, 0.0, 1.0)

    def test_negative_arguments(self, timeline):
        with pytest.raises(MappingError):
            timeline.earliest_start(1, -1.0)
        with pytest.raises(MappingError):
            timeline.reserve(1, 0.0, -2.0)

    def test_utilisation(self, timeline):
        timeline.reserve(2, 0.0, 5.0)
        assert timeline.utilisation(10.0) == pytest.approx(2 * 5.0 / (10.0 * 4))
        assert timeline.utilisation(0.0) == 0.0


class TestEarliestStartKth:
    def test_kth_smallest_semantics(self):
        t = ClusterTimeline(Cluster("c", 3, 1.0))
        t.reserve(1, 0.0, 4.0)
        t.reserve(1, 0.0, 2.0)
        # free times now [4, 2, 0]
        assert t.earliest_start(1, 0.0) == 0.0
        assert t.earliest_start(2, 0.0) == 2.0
        assert t.earliest_start(3, 0.0) == 4.0


class TestPlatformTimeline:
    def test_one_timeline_per_cluster(self, small_platform):
        pt = PlatformTimeline(small_platform)
        assert len(pt.timelines()) == len(small_platform)
        for cluster in small_platform:
            assert pt.timeline(cluster.name).num_processors == cluster.num_processors

    def test_unknown_cluster(self, small_platform):
        pt = PlatformTimeline(small_platform)
        with pytest.raises(MappingError):
            pt.timeline("nope")

    def test_reset(self, small_platform):
        pt = PlatformTimeline(small_platform)
        name = small_platform.cluster_names()[0]
        pt.timeline(name).reserve(1, 0.0, 10.0)
        pt.reset()
        assert pt.timeline(name).earliest_start(1, 0.0) == 0.0


class TestTimelineEdgeCases:
    """Boundary behaviour of the incremental sorted-free-time timeline."""

    def test_reserve_exactly_num_processors(self, timeline):
        procs, start, finish = timeline.reserve(4, 0.0, 3.0)
        assert sorted(procs) == [0, 1, 2, 3]
        assert (start, finish) == (0.0, 3.0)
        # the whole cluster frees up at once
        assert timeline.earliest_start(1, 0.0) == 3.0
        assert timeline.earliest_start(4, 0.0) == 3.0
        # a second full-cluster reservation queues behind the first
        procs, start, finish = timeline.reserve(4, 0.0, 2.0)
        assert sorted(procs) == [0, 1, 2, 3]
        assert (start, finish) == (3.0, 5.0)

    def test_repeated_full_cluster_reservations(self, timeline):
        for round_ in range(5):
            _, start, finish = timeline.reserve(4, 0.0, 1.0)
            assert start == float(round_)
            assert finish == float(round_ + 1)

    def test_sorted_view_matches_free_times(self, timeline):
        import numpy as np

        timeline.reserve(2, 0.0, 7.0)
        timeline.reserve(1, 1.0, 2.5)
        timeline.reserve(3, 0.0, 4.0)
        assert np.array_equal(
            timeline.kth_free_list(), np.sort(timeline.free_times())
        )

    def test_earliest_start_error_paths(self, timeline):
        with pytest.raises(MappingError, match="cannot reserve 0 processors"):
            timeline.earliest_start(0, 0.0)
        with pytest.raises(MappingError, match="cannot reserve 5 processors"):
            timeline.earliest_start(5, 0.0)
        with pytest.raises(MappingError, match="ready_time must be non-negative"):
            timeline.earliest_start(1, -0.5)

    def test_select_processors_error_paths(self, timeline):
        with pytest.raises(MappingError, match="cannot reserve 0 processors"):
            timeline.select_processors(0)
        with pytest.raises(MappingError, match="cannot reserve 5 processors"):
            timeline.select_processors(5)

    def test_select_processors_tie_break_by_index(self, timeline):
        # processors 1 and 3 free at 2.0, processors 0 and 2 free at 5.0
        timeline._free_at[:] = [5.0, 2.0, 5.0, 2.0]
        timeline._sorted = sorted(timeline._free_at.tolist())
        assert timeline.select_processors(1) == [1]
        assert timeline.select_processors(2) == [1, 3]
        assert timeline.select_processors(3) == [1, 3, 0]
        assert timeline.select_processors(4) == [1, 3, 0, 2]

    def test_matches_reference_timeline_on_random_traffic(self):
        import numpy as np

        from repro.mapping._reference import ReferenceClusterTimeline

        rng = np.random.default_rng(11)
        fast = ClusterTimeline(Cluster("c", 16, 2.0))
        slow = ReferenceClusterTimeline(Cluster("c", 16, 2.0))
        for _ in range(200):
            procs = int(rng.integers(1, 17))
            ready = float(rng.uniform(0.0, 50.0))
            duration = float(rng.uniform(0.0, 10.0))
            assert fast.earliest_start(procs, ready) == slow.earliest_start(procs, ready)
            assert fast.select_processors(procs) == slow.select_processors(procs)
            assert fast.reserve(procs, ready, duration) == slow.reserve(
                procs, ready, duration
            )
        assert np.array_equal(fast.free_times(), slow.free_times())
