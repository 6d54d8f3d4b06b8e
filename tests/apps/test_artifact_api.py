"""The artifact-first apps API: same answers, no recomputation.

``toposort``/``cycles``/``reachability`` answer from a sealed
:class:`~repro.serve.TreeArtifact`; each answer must equal the
graph-computed oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import pytest

from repro import BlockDevice, DiskGraph, semi_external_dfs
from repro.apps import (
    find_cycle,
    has_cycle,
    reachable_set,
    reaches,
    topological_order,
)
from repro.errors import QueryError
from repro.graph import random_graph
from repro.graph.digraph import Digraph
from repro.serve import seal_result

from .. import oracles


def seal(device, graph, sources=()):
    disk = DiskGraph.from_digraph(device, graph)
    memory = 3 * graph.node_count + 64
    result = semi_external_dfs(disk, memory)
    return disk, memory, seal_result(
        disk, result, memory=memory, sources=sources
    )


class TestArtifactOverloads:
    def test_toposort_matches_graph_signature(self, device):
        graph = Digraph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        disk, memory, artifact = seal(device, graph)
        assert topological_order(artifact) == oracles.topological_order(
            disk, memory
        )

    def test_cycles_match_graph_signature(self, device):
        graph = Digraph.from_edges(4, [(0, 1), (1, 2), (2, 1), (3, 3)])
        disk, memory, artifact = seal(device, graph)
        assert has_cycle(artifact) == oracles.has_cycle(disk, memory)
        assert find_cycle(artifact) == oracles.find_cycle(disk, memory)

    def test_reachability_matches_graph_signature(self, device):
        graph = random_graph(25, 2, seed=3)
        disk, memory, artifact = seal(device, graph, sources=(0,))
        oracle = oracles.reachable_set(disk, 0)
        assert reachable_set(artifact, 0) == oracle
        for v in range(25):
            assert reaches(artifact, 0, v) == (v in oracle)

    def test_artifact_answers_do_no_io(self, device):
        graph = random_graph(30, 2, seed=4)
        disk, memory, artifact = seal(device, graph, sources=(0,))
        baseline = device.stats.snapshot()
        topological_order_or_cycle(artifact)
        reachable_set(artifact, 0)
        delta = device.stats.snapshot() - baseline
        assert (delta.reads, delta.writes) == (0, 0)

    def test_undecidable_reachability_is_typed(self, device):
        """An unpinned pair on a cyclic artifact can be undecidable —
        never silently wrong."""
        graph = Digraph.from_edges(
            6, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        )
        disk, memory, artifact = seal(device, graph)  # no pinned sources
        # 3 sits in the SCC {2, 3}; nothing pins it, 0 is not in its
        # subtree, and a cyclic graph has no topo certificate
        with pytest.raises(QueryError) as exc:
            reaches(artifact, 3, 0)
        assert exc.value.code == "undecidable"


def topological_order_or_cycle(artifact):
    try:
        return topological_order(artifact)
    except Exception:
        return find_cycle(artifact)

