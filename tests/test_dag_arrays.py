"""Unit tests of the :class:`repro.dag.arrays.DagArrays` compilation."""

import numpy as np
import pytest

from repro.allocation._reference import run_reference_allocation
from repro.allocation.iterative import NoConstraint, run_iterative_allocation
from repro.allocation.reference import ReferenceCluster
from repro.dag import PTG, DagArrays, Task, compile_arrays
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.exceptions import InvalidGraphError
from repro.platform.builder import single_cluster_platform


def diamond():
    """entry(0) -> {1, 2} -> exit(3), with distinct costs."""
    g = PTG("diamond")
    g.add_task(Task(0, 1e9, 0.0))
    g.add_task(Task(1, 2e9, 0.1))
    g.add_task(Task(2, 4e9, 0.2))
    g.add_task(Task(3, 1e9, 0.0))
    g.add_edge(0, 1, 8.0)
    g.add_edge(0, 2, 8.0)
    g.add_edge(1, 3, 8.0)
    g.add_edge(2, 3, 8.0)
    return g


class TestCompilation:
    def test_basic_shape(self):
        arrays = diamond().arrays()
        assert arrays.n_tasks == 4
        assert arrays.n_edges == 4
        assert arrays.depth == 3
        assert list(arrays.task_ids) == [0, 1, 2, 3]
        assert arrays.index_of == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_csr_adjacency_sorted_by_tid(self):
        arrays = diamond().arrays()
        assert list(arrays.successors_of(0)) == [1, 2]
        assert list(arrays.predecessors_of(3)) == [1, 2]
        assert list(arrays.successors_of(3)) == []
        assert list(arrays.entries) == [0]
        assert list(arrays.exits) == [3]

    def test_levels_match_graph(self):
        g = generate_random_ptg(5, RandomPTGConfig(n_tasks=20))
        g.ensure_single_entry_exit()
        arrays = g.arrays()
        levels = g.precedence_levels()
        for i, tid in enumerate(arrays.task_ids_tuple):
            assert arrays.levels_tuple[i] == levels[tid]
        by_level = g.tasks_by_level()
        for level, tids in by_level.items():
            members = [arrays.task_ids_tuple[i] for i in arrays.level_tuples[level]]
            assert members == tids  # exact tasks_by_level order

    def test_cached_and_invalidated_on_mutation(self):
        g = diamond()
        first = g.arrays()
        assert g.arrays() is first  # cached
        g.add_task(Task(9, 1e9, 0.0))
        g.add_edge(3, 9, 0.0)
        second = g.arrays()
        assert second is not first
        assert second.n_tasks == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            compile_arrays(PTG("empty"))

    def test_cycle_rejected(self):
        g = PTG("cycle")
        g.add_task(Task(0, 1e9, 0.0))
        g.add_task(Task(1, 1e9, 0.0))
        g.add_edge(0, 1, 0.0)
        g.add_edge(1, 0, 0.0)
        with pytest.raises(InvalidGraphError):
            g.arrays()

    def test_level_slice_bounds(self):
        arrays = diamond().arrays()
        with pytest.raises(InvalidGraphError):
            arrays.level_slice(99)


class TestBottomLevels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_graph_dp_bitwise(self, seed):
        g = generate_random_ptg(seed, RandomPTGConfig(n_tasks=20))
        g.ensure_single_entry_exit()
        arrays = g.arrays()
        time_fn = lambda t: t.execution_time(1, 4e9)
        expected = g.bottom_levels(time_fn)
        durations = np.array([time_fn(t) for t in g.tasks()])
        vectorized = arrays.bottom_levels(durations)
        scalar = arrays.bottom_levels_py(durations.tolist())
        for i, tid in enumerate(arrays.task_ids_tuple):
            assert vectorized[i] == expected[tid]  # exact, no tolerance
            assert scalar[i] == expected[tid]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_critical_path_matches_graph_walk(self, seed):
        g = generate_random_ptg(seed, RandomPTGConfig(n_tasks=20))
        g.ensure_single_entry_exit()
        arrays = g.arrays()
        time_fn = lambda t: t.execution_time(1, 4e9)
        expected = g.critical_path(time_fn)
        durations = np.array([time_fn(t) for t in g.tasks()])
        bl = arrays.bottom_levels(durations)
        vectorized = [arrays.task_ids_tuple[i] for i in arrays.critical_path(bl)]
        assert vectorized == expected
        assert arrays.critical_path_length(durations) == g.critical_path_length(time_fn)

    def test_tie_break_prefers_smallest_tid(self):
        # two parallel middle tasks with identical costs: the reference
        # walk picks the smaller task id, so the first increment of the
        # allocation loop's critical-path walk goes to task 3, not 5
        g = PTG("tie")
        g.add_task(Task(0, 1e9, 0.0))
        g.add_task(Task(5, 2e9, 0.0))
        g.add_task(Task(3, 2e9, 0.0))
        g.add_task(Task(7, 1e9, 0.0))
        for mid in (5, 3):
            g.add_edge(0, mid, 0.0)
            g.add_edge(mid, 7, 0.0)
        time_fn = lambda t: t.execution_time(1, 1e9)
        assert g.critical_path(time_fn) == [0, 3, 7]
        platform = single_cluster_platform(num_processors=8, speed_gflops=1.0)
        reference = ReferenceCluster.of(platform)
        for max_iterations in (1, 2, 3, None):
            fused, stats = run_iterative_allocation(
                g, platform, reference, 1.0, NoConstraint(),
                max_iterations=max_iterations,
            )
            oracle, oracle_stats = run_reference_allocation(
                g, platform, reference, 1.0, NoConstraint(),
                max_iterations=max_iterations,
            )
            assert fused.as_dict() == oracle.as_dict()
            assert stats == oracle_stats
            if max_iterations == 1:
                assert fused.as_dict() == {0: 1, 5: 1, 3: 2, 7: 1}
