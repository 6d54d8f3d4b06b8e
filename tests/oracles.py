"""Graph-computed oracles for the answers a sealed artifact serves.

The apps layer answers toposort, cycle and reachability questions from
sealed artifacts only.  These functions keep the original graph-first
implementations, so the tests can check every artifact answer against
an independent computation from the raw graph:

* toposort and cycles: one semi-external DFS plus one back-edge scan;
* reachability: semi-external label propagation over the edge file.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro import DiskGraph, semi_external_dfs
from repro.core.classify import IntervalIndex
from repro.errors import NotADAGError


def topological_order(
    graph: DiskGraph,
    memory: int,
    algorithm: str = "divide-td",
    start: Optional[int] = None,
) -> List[int]:
    """Reverse DFS finishing order; raises NotADAGError on a back edge."""
    result = semi_external_dfs(graph, memory, algorithm=algorithm, start=start)
    index = IntervalIndex(result.tree)
    # A digraph is cyclic iff a DFS of it has a back edge: an edge whose
    # target is a (non-strict) ancestor of its source.
    for u, v in graph.scan():
        if u == v or index.is_ancestor(v, u):
            raise NotADAGError(
                f"graph has a cycle: edge ({u}, {v}) is a back edge"
            )
    finish_order = [
        node for node in result.tree.postorder()
        if not result.tree.is_virtual(node)
    ]
    finish_order.reverse()
    return finish_order


def find_cycle(
    graph: DiskGraph, memory: int, algorithm: str = "divide-td"
) -> Optional[List[int]]:
    """The first self-loop or back edge in scan order, closed into a cycle."""
    result = semi_external_dfs(graph, memory, algorithm=algorithm)
    tree = result.tree
    index = IntervalIndex(tree)
    for u, v in graph.scan():
        if u == v:
            return [u]
        if index.is_ancestor(v, u):
            # Walk the tree path u -> v upward, then reverse it.
            path = [u]
            current = u
            while current != v:
                current = tree.parent[current]
                path.append(current)
            path.reverse()
            return path
    return None


def has_cycle(
    graph: DiskGraph, memory: int, algorithm: str = "divide-td"
) -> bool:
    """Whether the graph contains a directed cycle."""
    return find_cycle(graph, memory, algorithm=algorithm) is not None


def reachable_set(graph: DiskGraph, source: int) -> Set[int]:
    """Every node reachable from ``source``, by label propagation.

    Keep one mark per node and rescan the edge file, marking ``v``
    whenever ``u`` is marked, until a scan changes nothing.
    """
    if not 0 <= source < graph.node_count:
        raise ValueError(f"source {source} out of range")
    marked = {source}
    changed = True
    while changed:
        changed = False
        for u, v in graph.scan():
            if u in marked and v not in marked:
                marked.add(v)
                changed = True
    return marked
