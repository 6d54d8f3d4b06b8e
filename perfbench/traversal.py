"""Traversal workloads: one ``semi_external_dfs`` call is one operation.

A run builds a suite of graphs from the seed, then traverses the whole
suite round after round until its time is up.  Round 0 warms caches
and is not timed into the result.  Every traversal is verified outside
the timed region; the exact counts of each graph must repeat in every
round.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import BlockDevice, DiskGraph, RunOptions, Tracer, semi_external_dfs
from repro.core import verify_dfs_tree
from repro.graph.generators import power_law_graph, random_graph

from common import (
    BenchmarkError, CountGuard, HostRecord, Recorder, Sample, Workspace,
    at_nominal_speed, order_digest, peak_rss_mb, speed_probe, suite_time,
)
from layers import Instruments, per_call, result_layers

#: Elements per block.  Small enough that a scan of these graphs spans
#: tens of blocks, so block counts resolve changes to the scan pattern.
BLOCK_ELEMENTS = 512

#: Kernel every workload runs on.
KERNEL = "numpy"


@dataclass(frozen=True)
class GraphSpec:
    """How to build one family of seeded graphs and size their budget."""

    family: str  # "power-law" or "random"
    nodes: int
    degree: float
    codec: str
    #: Budget M = 3n + share * m: the tree plus this share of the edges.
    edge_share: float

    def generate(self, seed: int) -> Any:
        build = power_law_graph if self.family == "power-law" else random_graph
        return build(self.nodes, self.degree, seed=seed)

    def memory(self, graph: DiskGraph) -> int:
        return 3 * graph.node_count + int(self.edge_share * graph.edge_count)


@dataclass
class LoadedGraph:
    device: BlockDevice
    graph: DiskGraph
    memory: int
    generate_s: float
    load_s: float
    #: Stored edge bytes of the loaded file over its edges.
    bytes_per_edge: float
    #: Speed probe taken just before the set-up.
    probe_s: float

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.load_s

    @property
    def nominal_setup_s(self) -> float:
        return at_nominal_speed(self.setup_s, self.probe_s)


def graph_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th graph of a run's suite."""
    return seed * 1000 + index


def load_graph(spec: GraphSpec, seed: int,
               directory: Optional[str] = None) -> LoadedGraph:
    """Generate one graph and load it onto a fresh device, timing both.

    Without ``directory`` the device owns a temp dir, removed on close.
    """
    probe_s = speed_probe()
    started = time.perf_counter()
    digraph = spec.generate(seed)
    generated = time.perf_counter()
    device = BlockDevice(
        block_elements=BLOCK_ELEMENTS, kernel=KERNEL,
        block_codec=spec.codec, directory=directory,
    )
    graph = DiskGraph.from_digraph(device, digraph)
    loaded = time.perf_counter()
    return LoadedGraph(
        device, graph, spec.memory(graph),
        generate_s=generated - started, load_s=loaded - generated,
        bytes_per_edge=(
            device.stats.snapshot().edge_bytes_stored / graph.edge_count
        ),
        probe_s=probe_s,
    )


def load_suite(spec: GraphSpec, seed: int, count: int,
               workspace: Workspace) -> List[LoadedGraph]:
    """Generate and load ``count`` graphs, timing each set-up."""
    return [
        load_graph(spec, graph_seed(seed, index),
                   workspace.sub(f"graph-{index}"))
        for index in range(count)
    ]


def close_suite(suite: List[LoadedGraph]) -> None:
    for loaded in suite:
        loaded.device.close()


def suite_paths(suite: List[LoadedGraph], workspace: Workspace) -> Set[str]:
    """Workspace paths the suite itself owns: each device dir and graph."""
    paths = set()
    for loaded in suite:
        paths.add(os.path.relpath(loaded.device.directory, workspace.path))
        paths.add(os.path.relpath(loaded.graph.edge_file.path, workspace.path))
    return paths


def check_traversal(loaded: LoadedGraph, result: Any) -> bool:
    """The result's tree is a DFS tree of the graph (one extra scan)."""
    return verify_dfs_tree(loaded.graph, result.tree).ok


@dataclass(frozen=True)
class TraversalWorkload:
    name: str
    spec: GraphSpec
    algorithm: str
    suite: int

    def run(self, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
        host = HostRecord(KERNEL, self.spec.codec)
        workspace = Workspace(self.name)
        guard = CountGuard(self.name, seed)
        suite = load_suite(self.spec, seed, self.suite, workspace)
        setups = list(suite)
        try:
            outcome = self._measure(seed, suite, setups, guard, seconds, traced)
        finally:
            close_suite(suite)
        guard.check_previous_runs()
        owned = suite_paths(suite, workspace)
        leftovers = workspace.leftovers(owned.__contains__)
        workspace.close()
        if leftovers:
            raise BenchmarkError(f"teardown: the run leaked {leftovers}")
        outcome["host"] = host.finish()
        outcome["setup"] = [loaded.nominal_setup_s for loaded in setups]
        outcome["generate"] = [loaded.generate_s for loaded in setups]
        outcome["load"] = [loaded.load_s for loaded in setups]
        outcome["bytes_per_edge"] = (
            sum(loaded.bytes_per_edge for loaded in suite) / len(suite)
        )
        return outcome

    def _traverse(self, loaded: LoadedGraph,
                  tracer: Optional[Tracer]) -> Tuple[Sample, Any]:
        """Probe the host's speed, then time one traversal."""
        options = RunOptions(block_codec=self.spec.codec, tracer=tracer)
        probe_s = speed_probe()
        started = time.perf_counter()
        result = semi_external_dfs(
            loaded.graph, loaded.memory, algorithm=self.algorithm,
            options=options,
        )
        return (time.perf_counter() - started, probe_s), result

    def _measure(self, seed: int, suite: List[LoadedGraph],
                 setups: List[LoadedGraph], guard: CountGuard,
                 seconds: float, traced: bool) -> Dict[str, Any]:
        """Traverse the suite round by round until ``seconds`` pass.

        Each traversal follows a speed probe, so its time can be taken
        to nominal host speed.  Untraced: every round after the warm-up
        is timed, and each timed traversal is followed by a set-up of
        the same graph on a scratch device, appended to ``setups``, so
        set-up is sampled across the whole run rather than only at its
        start.  Traced: the rounds after the warm-up alternate untraced
        and traced, so the tracing overhead compares rounds taken in the
        same host phase.  Once the minimum rounds are done, the deadline
        may cut a round short.
        """
        deadline = time.perf_counter() + seconds
        minimum = 3 if traced else 2
        plain: Dict[int, List[Sample]] = {i: [] for i in range(len(suite))}
        with_trace: Dict[int, List[Sample]] = {
            i: [] for i in range(len(suite))
        }
        recorder = Recorder()
        traced_results: List[Any] = []
        counts: List[Dict[str, int]] = []
        attempted = failed = 0
        rounds = 0
        while rounds < minimum or time.perf_counter() < deadline:
            tracing = traced and rounds % 2 == 1
            instruments = Instruments(recorder) if tracing else None
            results = []
            try:
                for index, loaded in enumerate(suite):
                    if rounds >= minimum and time.perf_counter() >= deadline:
                        break
                    if instruments is not None:
                        instruments.watch_device(loaded.device)
                    sample, result = self._traverse(
                        loaded, Tracer() if tracing else None
                    )
                    results.append(result)
                    if tracing:
                        with_trace[index].append(sample)
                    elif rounds:
                        plain[index].append(sample)
                        probe = load_graph(self.spec, graph_seed(seed, index))
                        probe.device.close()
                        setups.append(probe)
            finally:
                if instruments is not None:
                    instruments.close()
            for index, (loaded, result) in enumerate(zip(suite, results)):
                attempted += 1
                exact = {
                    "ios": result.io.total,
                    "passes": result.passes,
                    "order": order_digest(result.order),
                }
                guard.check(f"graph-{index}", exact)
                if rounds == 0:
                    counts.append(exact)
                if not check_traversal(loaded, result):
                    failed += 1
            if tracing:
                traced_results.extend(results)
            rounds += 1
        outcome: Dict[str, Any] = {
            "attempted": attempted,
            "failed": failed,
            "latency_ms": suite_time(plain, nominal=True) * 1000,
            "ios": sum(c["ios"] for c in counts) / len(counts),
            "passes": sum(c["passes"] for c in counts) / len(counts),
            "peak_rss_mb": peak_rss_mb(),
        }
        if traced:
            layers = per_call(recorder, len(traced_results))
            layers.update(result_layers(traced_results))
            layers["trace.traversal_s"] = suite_time(with_trace, nominal=False)
            layers["trace.overhead_frac"] = (
                suite_time(with_trace, nominal=True) * 1000
                / outcome["latency_ms"] - 1
            )
            outcome["layers"] = layers
            outcome["trace"] = [
                dict(event.to_dict(), source="program", traversal=number)
                for number, result in enumerate(traced_results)
                for event in result.events
            ] + [dict(span, source="benchmark") for span in recorder.spans]
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (
        TraversalWorkload(
            name="td-powerlaw",
            spec=GraphSpec("power-law", nodes=1500, degree=6,
                           codec="fixed32", edge_share=0.2),
            algorithm="divide-td",
            suite=16,
        ),
        TraversalWorkload(
            name="batch-random-dv",
            spec=GraphSpec("random", nodes=1000, degree=6,
                           codec="delta-varint", edge_share=0.5),
            algorithm="edge-by-batch",
            suite=16,
        ),
    )
}
