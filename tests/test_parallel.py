"""Tests for the process-pool part scheduler (:mod:`repro.parallel`).

The pool width defaults to 2 and can be forced from the environment
(``REPRO_TEST_WORKERS``) so CI can run the whole suite at a fixed width.
"""

import multiprocessing
import os
import pickle
import random
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.parallel
from repro import DiskGraph, Tracer
from repro.algorithms import divide_star_dfs, divide_td_dfs
from repro.algorithms.divide_conquer import star_strategy
from repro.core.tree import SpanningTree
from repro.errors import ConvergenceError
from repro.graph import power_law_graph
from repro.graph.digraph import Digraph
from repro.obs import SpanEvent, phase_totals
from repro.parallel import PartOutcome, PartPayload, part_memory_shares
from repro.storage.io_stats import IOSnapshot
from repro.storage.shm import SEGMENT_PREFIX, ColumnSegment, set_segment_observer

from .conftest import assert_valid_dfs_result

POOL = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def clustered_graph(cluster_count=6, cluster_size=200, extra_edges=400, seed=7):
    """Disconnected strongly connected clusters (a >=4-part division).

    Each cluster is a directed cycle (one SCC) plus random intra-cluster
    edges; no edges cross clusters, so a top-level division reliably
    produces one part per cluster.
    """
    graph = Digraph(cluster_count * cluster_size)
    rng = random.Random(seed)
    for cluster in range(cluster_count):
        base = cluster * cluster_size
        for i in range(cluster_size):
            graph.add_edge(base + i, base + (i + 1) % cluster_size)
        produced = 0
        while produced < extra_edges:
            u = base + rng.randrange(cluster_size)
            v = base + rng.randrange(cluster_size)
            if u == v:
                continue
            graph.add_edge(u, v)
            produced += 1
    return graph


class TestPartMemoryShares:
    def test_even_split_when_floors_allow(self):
        shares, oversubscribed = part_memory_shares(1000, [10, 10, 10, 10], 4)
        assert shares == [250, 250, 250, 250]
        assert not oversubscribed

    def test_fewer_parts_than_workers_widens_the_slice(self):
        shares, _ = part_memory_shares(1000, [10, 10], 8)
        assert shares == [500, 500]

    def test_floor_raises_an_undersized_slice(self):
        # even slice is 100, but a 60-node part needs 3*60 + 2 = 182; the
        # raised share pushes the concurrent total past the budget, which
        # is flagged rather than fatal
        shares, oversubscribed = part_memory_shares(400, [60, 5, 5, 5], 4)
        assert shares[0] == 182
        assert shares[1:] == [100, 100, 100]
        assert oversubscribed

    def test_oversubscription_when_every_floor_exceeds_the_slice(self):
        shares, oversubscribed = part_memory_shares(400, [60, 60, 60, 60], 4)
        assert shares == [182, 182, 182, 182]
        assert oversubscribed

    def test_sequential_width_charges_one_share(self):
        _, oversubscribed = part_memory_shares(200, [60, 60, 60, 60], 1)
        assert not oversubscribed  # parts run one at a time

    def test_empty_parts(self):
        assert part_memory_shares(100, [], 4) == ([], False)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            part_memory_shares(100, [10], 0)
        with pytest.raises(ValueError, match="budget"):
            part_memory_shares(0, [10], 2)


@pytest.fixture(scope="module")
def pool_graph():
    return clustered_graph()


POOL_MEMORY = 3 * 1200 + 400


class TestPoolMatchesSequential:
    """workers>1 must be observationally identical to the sequential run."""

    @pytest.mark.parametrize("workers", sorted({POOL, 4}))
    def test_star_pool_matches_sequential(
        self, device_factory, pool_graph, workers
    ):
        seq_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        sequential = divide_star_dfs(seq_disk, POOL_MEMORY)

        par_device = device_factory(64)
        par_disk = DiskGraph.from_digraph(par_device, pool_graph)
        pooled = divide_star_dfs(par_disk, POOL_MEMORY, workers=workers)

        assert pooled.details.get("parallel_dispatches", 0) >= 1
        assert pooled.order == sequential.order
        assert pooled.io == sequential.io
        assert pooled.passes == sequential.passes
        assert_valid_dfs_result(pooled, par_disk, pool_graph)
        # no worker scratch directories survive a successful run
        assert not [
            name for name in os.listdir(par_device.directory)
            if name.startswith("pool-")
        ]

    def test_td_pool_matches_sequential(self, device_factory, pool_graph):
        seq_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        sequential = divide_td_dfs(seq_disk, POOL_MEMORY)

        par_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        pooled = divide_td_dfs(par_disk, POOL_MEMORY, workers=POOL)

        assert pooled.details.get("parallel_dispatches", 0) >= 1
        assert pooled.order == sequential.order
        assert pooled.io == sequential.io

    def test_workers_one_keeps_the_sequential_loop(
        self, device_factory, pool_graph
    ):
        default_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        default = divide_star_dfs(default_disk, POOL_MEMORY)

        explicit_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        explicit = divide_star_dfs(explicit_disk, POOL_MEMORY, workers=1)

        assert explicit.order == default.order
        assert explicit.io == default.io
        assert explicit.passes == default.passes
        assert "parallel_dispatches" not in explicit.details

    @pytest.mark.parametrize("boundary", ["shm", "pickle-fallback"])
    def test_pooled_ios_equal_sequential_under_both_boundaries(
        self, device_factory, pool_graph, boundary, segment_ledger,
        monkeypatch,
    ):
        """The logical-I/O regression gate for the worker boundary.

        Whatever crosses the process line — shared int32 columns, or the
        pickled part trees a host without usable shared memory falls
        back to — the pooled run must charge *exactly* the block
        transfers of the sequential loop and produce the same order.
        The fallback is forced by making every segment allocation in the
        parent fail.
        """
        seq_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        sequential = divide_star_dfs(seq_disk, POOL_MEMORY)
        shm_before = _shm_entries()

        dispatched = []
        conquer_parts = repro.parallel.conquer_parts

        def counting_conquer_parts(division, *args, **kwargs):
            dispatched.append(division.part_count)
            return conquer_parts(division, *args, **kwargs)

        monkeypatch.setattr(
            repro.parallel, "conquer_parts", counting_conquer_parts
        )
        if boundary == "pickle-fallback":
            def no_shared_memory(cls, capacity_words):
                raise OSError("shared memory unavailable")

            monkeypatch.setattr(
                ColumnSegment, "create", classmethod(no_shared_memory)
            )
        par_disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        pooled = divide_star_dfs(par_disk, POOL_MEMORY, workers=POOL)

        assert len(dispatched) == 1
        assert pooled.io == sequential.io
        assert pooled.io.reads == sequential.io.reads
        assert pooled.io.writes == sequential.io.writes
        assert pooled.order == sequential.order
        fallbacks = pooled.details.get("worker_boundary_fallbacks", 0)
        if boundary == "shm":
            # shared memory worked end to end; no part fell back
            assert fallbacks == 0
            assert len(segment_ledger["create"]) == 2 * dispatched[0]
        else:
            # every part fell back, and no segment was ever created
            assert fallbacks == dispatched[0]
            assert segment_ledger["create"] == []
        assert_segments_balanced(segment_ledger)
        assert _shm_entries() <= shm_before

    def test_mapped_part_scan_charges_identical_ios(self, device_factory):
        """The worker's mmap read path is invisible to logical I/O.

        ``open_sealed(..., mapped=True)`` swaps buffered reads for a
        read-only mapping, but every block still flows through
        ``device.read_block`` — same edges, same charges, byte for byte.
        """
        from repro.storage import edge_file_from_edges
        from repro.storage.edge_file import EdgeFile

        device = device_factory(32)
        edges = [(u, (u * 7 + 3) % 500) for u in range(500)]
        sealed = edge_file_from_edges(device, edges)

        before = device.stats.snapshot()
        plain = EdgeFile.open_sealed(
            device, sealed.path, sealed.edge_count, sealed.block_count
        )
        plain_edges = plain.read_all()
        plain_cost = device.stats.snapshot() - before

        before = device.stats.snapshot()
        mapped = EdgeFile.open_sealed(
            device, sealed.path, sealed.edge_count, sealed.block_count,
            mapped=True,
        )
        mapped_edges = mapped.read_all()
        mapped_cost = device.stats.snapshot() - before

        assert mapped_edges == plain_edges == edges
        assert mapped_cost == plain_cost
        assert mapped_cost.reads == sealed.block_count

    def test_mapped_empty_file_falls_back_to_buffered(self, device_factory):
        from repro.storage import edge_file_from_edges
        from repro.storage.edge_file import EdgeFile

        device = device_factory(32)
        sealed = edge_file_from_edges(device, [])
        mapped = EdgeFile.open_sealed(
            device, sealed.path, 0, 0, mapped=True
        )
        assert mapped.read_all() == []


class TestSpanTiling:
    def test_replayed_worker_phases_tile_the_run_io(
        self, device_factory, pool_graph
    ):
        disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        result = divide_star_dfs(
            disk, POOL_MEMORY, tracer=Tracer(), workers=POOL
        )
        assert result.details.get("parallel_dispatches", 0) >= 1

        totals = phase_totals(result.events)
        assert sum(t.io.reads for t in totals.values()) == result.io.reads
        assert sum(t.io.writes for t in totals.values()) == result.io.writes

    def test_replayed_events_carry_the_worker_tag(
        self, device_factory, pool_graph
    ):
        disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        result = divide_star_dfs(
            disk, POOL_MEMORY, tracer=Tracer(), workers=POOL
        )
        workers_seen = {
            event.attributes["worker"]
            for event in result.events
            if "worker" in event.attributes
        }
        # one tag per dispatched part (the clusters are the parts)
        assert len(workers_seen) >= 2
        # every worker-tagged "part" span replays with its own phases
        tagged_phases = {
            event.name for event in result.events
            if "worker" in event.attributes
        }
        assert "part" in tagged_phases


def dense_clusters(cluster_count=4, cluster_size=300, degree=14):
    """Disconnected power-law clusters too dense to fit any memory share.

    Each cluster's part exceeds the run budget ``M`` (let alone a worker's
    slice of it), so after the top-level division the recursion must keep
    restructuring inside the parts — where a tight pass cap then trips
    *after* the part files have been materialized.
    """
    graph = Digraph(cluster_count * cluster_size)
    for cluster in range(cluster_count):
        base = cluster * cluster_size
        shape = power_law_graph(cluster_size, degree, seed=10 + cluster)
        for u, v in shape.edges():
            graph.add_edge(base + u, base + v)
    return graph


DENSE_MEMORY = 3 * 1200 + 150


class TestFailureCleanup:
    """A mid-recursion error must leave zero part artifacts behind."""

    @pytest.mark.parametrize("workers", [1, sorted({POOL, 4})[-1]])
    def test_pass_cap_error_leaves_no_part_files(self, device_factory, workers):
        device = device_factory(64)
        disk = DiskGraph.from_digraph(device, dense_clusters())
        files_before = set(os.listdir(device.directory))
        with pytest.raises(ConvergenceError, match="restructure passes"):
            divide_star_dfs(
                disk, DENSE_MEMORY, max_passes=2, workers=workers
            )
        files_after = set(os.listdir(device.directory))
        assert files_after == files_before

    def test_deadline_error_leaves_no_part_files(self, device_factory):
        device = device_factory(64)
        disk = DiskGraph.from_digraph(device, dense_clusters())
        files_before = set(os.listdir(device.directory))
        with pytest.raises(ConvergenceError, match="deadline"):
            divide_star_dfs(
                disk, DENSE_MEMORY, deadline_seconds=0.0, workers=POOL
            )
        assert set(os.listdir(device.directory)) == files_before


def _crash_worker(payload):
    """Stand-in worker that dies without cleanup (not even atexit runs)."""
    os._exit(3)


def _shm_entries():
    """Current ``/dev/shm`` entries carrying this package's prefix."""
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        }
    except FileNotFoundError:  # non-tmpfs host; the ledger still covers us
        return set()


@pytest.fixture
def segment_ledger():
    """Tracking allocator: records every segment create/unlink in order."""
    ledger = {"create": [], "unlink": []}

    def observer(action, name):
        ledger[action].append(name)

    set_segment_observer(observer)
    try:
        yield ledger
    finally:
        set_segment_observer(None)


def assert_segments_balanced(ledger):
    """Every created segment was unlinked, and none survives on disk."""
    created, unlinked = set(ledger["create"]), set(ledger["unlink"])
    assert created == unlinked
    assert not (_shm_entries() & created)


class TestSegmentLifecycle:
    """Shared-memory segments are parent-owned: no error path may leak.

    The tracking allocator (:func:`repro.storage.shm.set_segment_observer`)
    records every create/unlink in the parent — the only process allowed
    to do either — so balance plus an empty ``/dev/shm`` sweep proves
    leak-freedom without trusting worker cooperation.
    """

    def test_successful_pool_run_unlinks_every_segment(
        self, device_factory, pool_graph, segment_ledger
    ):
        disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        result = divide_star_dfs(disk, POOL_MEMORY, workers=POOL)
        assert result.details.get("parallel_dispatches", 0) >= 1
        # two segments per part (tree in, outcome out), all reclaimed
        assert len(segment_ledger["create"]) >= 2
        assert_segments_balanced(segment_ledger)

    def test_pass_cap_failure_unlinks_every_segment(
        self, device_factory, segment_ledger
    ):
        disk = DiskGraph.from_digraph(device_factory(64), dense_clusters())
        with pytest.raises(ConvergenceError, match="restructure passes"):
            divide_star_dfs(disk, DENSE_MEMORY, max_passes=2, workers=POOL)
        assert len(segment_ledger["create"]) >= 2
        assert_segments_balanced(segment_ledger)

    def test_deadline_expiry_unlinks_every_segment(
        self, device_factory, segment_ledger
    ):
        disk = DiskGraph.from_digraph(device_factory(64), dense_clusters())
        with pytest.raises(ConvergenceError, match="deadline"):
            divide_star_dfs(
                disk, DENSE_MEMORY, deadline_seconds=0.0, workers=POOL
            )
        assert_segments_balanced(segment_ledger)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="monkeypatched worker entry point needs fork inheritance",
    )
    def test_worker_crash_unlinks_every_segment(
        self, device_factory, pool_graph, segment_ledger, monkeypatch
    ):
        """A worker dying mid-part (no exception, no cleanup) cannot leak.

        ``os._exit`` skips every ``finally`` in the worker; the pool
        surfaces :class:`BrokenProcessPool` and the parent's ``finally``
        still unlinks both segments of every part.
        """
        monkeypatch.setattr(repro.parallel, "_run_part_worker", _crash_worker)
        disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        with pytest.raises(BrokenProcessPool):
            divide_star_dfs(disk, POOL_MEMORY, workers=POOL)
        assert len(segment_ledger["create"]) >= 2
        assert_segments_balanced(segment_ledger)

    def test_forced_pickle_boundary_creates_no_segments(
        self, device_factory, pool_graph, segment_ledger, monkeypatch
    ):
        """With shared memory unavailable, parts cross pickled.

        Every segment allocation fails, so each part falls back to the
        pickled boundary and the ledger never sees a create or unlink.
        """
        def no_shared_memory(cls, capacity_words):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(
            ColumnSegment, "create", classmethod(no_shared_memory)
        )
        disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        result = divide_star_dfs(disk, POOL_MEMORY, workers=POOL)
        dispatches = result.details.get("parallel_dispatches", 0)
        assert dispatches >= 1
        assert result.details.get("worker_boundary_fallbacks", 0) >= 1
        assert segment_ledger["create"] == []
        assert segment_ledger["unlink"] == []


def tree_fingerprint(tree):
    """Everything that makes two trees the same ordered rooted tree."""
    preorder = list(tree.preorder())
    return (
        tree.root,
        preorder,
        [tree.parent[node] for node in preorder],
        [tree.is_virtual(node) for node in preorder],
    )


class TestWorkerBoundarySerialization:
    """The parent→worker payloads must survive pickling unchanged."""

    def test_run_result_tree_round_trips(self, device_factory, pool_graph):
        disk = DiskGraph.from_digraph(device_factory(64), pool_graph)
        result = divide_star_dfs(disk, POOL_MEMORY)
        clone = pickle.loads(pickle.dumps(result.tree))
        assert tree_fingerprint(clone) == tree_fingerprint(result.tree)

    def test_part_payload_round_trips(self):
        tree = SpanningTree.initial_star([0, 1, 2], virtual_root=3)
        payload = PartPayload(
            index=1,
            depth=1,
            edge_path="/tmp/part-1.edges",
            edge_count=12,
            block_count=2,
            tree=tree,
            real_node_count=3,
            memory=64,
            pass_limit=5,
            deadline_seconds=1.5,
            strategy=star_strategy,
            algorithm="divide-star",
            block_elements=32,
            kernel="python",
            fault_plan=None,
            max_retries=3,
            backoff_seconds=0.0,
            allocator_start=7,
            worker_dir="/tmp/pool-0-1",
            traced=True,
            block_codec="fixed32",
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.strategy is star_strategy  # pickled by reference
        assert tree_fingerprint(clone.tree) == tree_fingerprint(payload.tree)
        assert (clone.index, clone.edge_path, clone.memory, clone.pass_limit) \
            == (1, "/tmp/part-1.edges", 64, 5)
        assert clone.deadline_seconds == 1.5
        assert clone.traced is True

    def test_part_outcome_round_trips(self):
        event = SpanEvent(
            name="solve", span_id=1, parent_id=None, depth=0, sequence=0,
            elapsed_seconds=0.25,
            io=IOSnapshot(reads=4, writes=1, retries=0, faults=0,
                          checksum_failures=0),
            attributes={"nodes": 3},
        )
        outcome = PartOutcome(
            index=2,
            tree=SpanningTree.initial_star([0, 1], virtual_root=2),
            io=IOSnapshot(reads=9, writes=3, retries=1, faults=1,
                          checksum_failures=0),
            passes=2,
            divisions=1,
            max_depth=3,
            details={"inmemory_solves": 4},
            events=(event,),
        )
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.io == outcome.io
        assert clone.events == outcome.events
        assert clone.details == outcome.details
        assert tree_fingerprint(clone.tree) == tree_fingerprint(outcome.tree)

    @given(st.data())
    def test_random_trees_round_trip(self, data):
        node_count = data.draw(st.integers(min_value=1, max_value=40))
        tree = SpanningTree()
        tree.add_node(0, virtual=True)
        tree.root = 0
        for node in range(1, node_count):
            parent = data.draw(
                st.integers(min_value=0, max_value=node - 1),
                label=f"parent-of-{node}",
            )
            virtual = data.draw(st.booleans(), label=f"virtual-{node}")
            tree.add_node(node, virtual=virtual)
            tree.attach(node, parent)
        clone = pickle.loads(pickle.dumps(tree))
        assert tree_fingerprint(clone) == tree_fingerprint(tree)
