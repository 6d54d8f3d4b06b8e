"""Process-pool execution of division parts (the parallel conquer step).

The paper's DivideConquerDFS recurses into the parts of a valid division
one after another, yet the parts are *independent by construction*: part
``G_i`` shares no edge with part ``G_j``, each part owns a private edge
file, and the merge step consumes the part DFS-Trees in part order.  This
module exploits that independence.  When a run is configured with
``workers > 1``, the top-level division's parts are submitted to a
:class:`concurrent.futures.ProcessPoolExecutor`; each worker process
rebuilds a private :class:`~repro.storage.block_device.BlockDevice` /
:class:`~repro.algorithms.base.RunContext` around the part's already
materialized edge file and runs the *unmodified* sequential recursion on
it.  The parent then reassembles deterministically:

* part DFS-Trees are collected **in part order** — the merge sees exactly
  the sequence the sequential loop would have produced, so the final DFS
  order is identical whatever the completion order of the workers;
* each worker's measured :class:`~repro.storage.io_stats.IOSnapshot` is
  folded into the parent device's counter with
  :meth:`~repro.storage.io_stats.IOStats.absorb`, so ``DFSResult.io``
  still reports every block transfer of the run;
* each worker's span events are re-emitted through the parent tracer
  (:meth:`~repro.obs.Tracer.replay`) tagged ``worker=<part index>``, so
  per-phase I/O totals still tile the run total exactly;
* the memory budget ``M`` is split across the concurrently running
  workers (:func:`part_memory_shares`) so the pool as a whole stays
  inside the semi-external model's budget whenever the parts allow it.

The worker boundary is **columnar, not pickled**.  A part's spanning tree
crosses the process line as preorder int32 columns — node / parent /
virtual-flag, the :func:`~repro.core.tree_io.tree_columns` decomposition
— framed into a :class:`~repro.storage.shm.ColumnSegment` shared-memory
segment by the kernel layer, and the part DFS-Tree comes back the same
way through a pre-allocated outcome segment.  Only scalars, the strategy
reference, and span events are pickled.  Workers map the already-sealed
part file read-only (``EdgeFile.open_sealed(..., mapped=True)``) instead
of re-reading it through buffered I/O, so the page cache is shared
across the pool; every block still flows through ``device.read_block``,
so logical I/O charges are bit-identical to the sequential run.

Segment lifecycle is parent-owned: every segment is created before
dispatch and unlinked in a ``finally`` after the pool drains, so worker
crashes, ``FIRST_EXCEPTION`` cancellation, and deadline expiry cannot
leak ``/dev/shm`` entries.  A host that cannot provide shared memory
degrades per part to a pickled payload (counted in
``worker_boundary_fallbacks``).

Failure semantics: the pool waits with ``FIRST_EXCEPTION``; on a worker
failure the in-flight siblings are cancelled, every remaining part edge
file and worker scratch directory is removed, and the first failing
part's error (in part order, for determinism) is re-raised in the parent.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from .errors import MemoryBudgetExceeded, StorageError
from .graph.disk_graph import DiskGraph
from .obs import MemorySink, SpanEvent, Tracer
from .storage.block_device import BlockDevice
from .storage.buffer_pool import TREE_NODE_COST, MemoryBudget
from .storage.edge_file import EdgeFile
from .storage.faults import FaultPlan
from .storage.io_stats import IOSnapshot
from .storage.shm import ColumnSegment, words_for_columns
from .core.tree import SpanningTree, VirtualNodeAllocator
from .core.tree_io import tree_columns, tree_from_columns

if TYPE_CHECKING:
    from .algorithms.base import RunContext
    from .algorithms.division import Division
    from .kernels.base import Kernel

#: A cut strategy as :mod:`repro.algorithms.divide_conquer` defines it.
#: Workers receive the module-level ``star_strategy`` / ``td_strategy``
#: functions, which pickle by reference.
_Strategy = Callable[[SpanningTree, MemoryBudget], Tuple[Set[int], Set[int]]]

#: Headroom elements granted to a part beyond its spanning-tree cost, so
#: a worker's context never starts exactly at the ``k * |V_i|`` floor.
_SHARE_HEADROOM = 2

#: Extra per-column capacity in a part's outcome segment.  The recursion
#: only *removes* nodes from a part tree before returning it (every
#: return path splices out non-root virtual nodes), so the input tree's
#: node count bounds the outcome; the headroom merely absorbs the root
#: row and keeps the bound honest against off-by-one drift.
_OUTCOME_HEADROOM = 16


@dataclass(frozen=True)
class PartPayload:
    """Everything a worker process needs to conquer one division part.

    The payload is the parent→worker *control* interface and must stay
    picklable (plain ints/strings, a module-level strategy function, an
    optional frozen :class:`~repro.storage.faults.FaultPlan`).  Bulk data
    does not ride in it: the part's spanning tree crosses as framed
    int32 columns in the shared-memory segment named by ``tree_segment``
    (and ``tree`` is ``None``), and the worker writes its result tree
    into ``outcome_segment``.  When both segment names are ``None`` the
    payload is self-contained and ``tree`` carries the pickled spanning
    tree (the per-part fallback on shm-hostile hosts).
    """

    index: int
    depth: int
    edge_path: str
    edge_count: int
    block_count: int
    tree: Optional[SpanningTree]
    real_node_count: int
    memory: int
    pass_limit: int
    deadline_seconds: Optional[float]
    strategy: _Strategy
    algorithm: str
    block_elements: int
    kernel: str
    fault_plan: Optional[FaultPlan]
    max_retries: int
    backoff_seconds: float
    allocator_start: int
    worker_dir: str
    traced: bool
    block_codec: str
    tree_segment: Optional[str] = None
    outcome_segment: Optional[str] = None


@dataclass(frozen=True)
class PartOutcome:
    """What a worker sends back: measurements plus the part DFS-Tree.

    Normally ``tree`` is ``None`` — the DFS-Tree went back as columns in
    the payload's ``outcome_segment`` and only this record (scalars,
    counter dict, span events) is pickled.  ``tree`` is only populated on
    the pickle fallback, or when a result tree unexpectedly outgrew its
    pre-sized outcome segment.
    """

    index: int
    tree: Optional[SpanningTree]
    io: IOSnapshot
    passes: int
    divisions: int
    max_depth: int
    details: Dict[str, int]
    events: Tuple[SpanEvent, ...]


def part_memory_shares(
    total: int, part_node_counts: Sequence[int], workers: int
) -> Tuple[List[int], bool]:
    """Split the budget ``M`` across the concurrently running parts.

    Each part receives an even ``M / concurrent`` slice, raised to its
    spanning-tree floor ``k * |V_i| + 2`` when the slice is too small for
    the part's tree to exist at all (the semi-external model's
    ``k * |V| <= M`` precondition, with a little headroom).

    Returns:
        ``(shares, oversubscribed)`` — one share per part, in part order,
        and whether the ``concurrent`` largest shares exceed ``total``
        (i.e. the floors forced the pool beyond the budget; the run is
        still correct, but the paper's memory bound no longer holds for
        the pool as a whole).
    """
    if total <= 0:
        raise ValueError("memory budget must be positive")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not part_node_counts:
        return [], False
    concurrent = max(1, min(workers, len(part_node_counts)))
    even = total // concurrent
    shares = [
        max(even, TREE_NODE_COST * count + _SHARE_HEADROOM)
        for count in part_node_counts
    ]
    budget = MemoryBudget(total)
    oversubscribed = False
    for rank, share in enumerate(sorted(shares, reverse=True)[:concurrent]):
        try:
            budget.charge(f"worker-{rank}", share)
        except MemoryBudgetExceeded:
            oversubscribed = True
            break
    return shares, oversubscribed


def _tree_to_segment(
    segment: ColumnSegment, tree: SpanningTree, kernel: "Kernel"
) -> None:
    """Frame ``tree`` into ``segment`` as ``[root] / nodes / parents / flags``."""
    root, nodes, parents, flags = tree_columns(tree)
    segment.write_columns([[root], nodes, parents, flags], kernel)


def _tree_from_segment(
    segment: ColumnSegment, kernel: "Kernel"
) -> SpanningTree:
    """Rebuild the spanning tree framed by :func:`_tree_to_segment`.

    Copies every column out of shared memory before constructing, so the
    returned tree never aliases the segment.
    """
    columns = segment.read_column_lists(kernel)
    if len(columns) != 4 or len(columns[0]) != 1:
        raise StorageError(
            f"segment {segment.name} does not hold a spanning tree"
        )
    root_column, nodes, parents, flags = columns
    return tree_from_columns(
        root_column[0], nodes, parents, flags, context=segment.name
    )


def _run_part_worker(payload: PartPayload) -> PartOutcome:
    """Worker entry point: conquer one part in a private process.

    Rebuilds the storage stack around the part's sealed edge file — a
    private device (scratch files go to ``payload.worker_dir``), a
    :class:`DiskGraph` adopting the parent-materialized part file mapped
    read-only, and a fresh ``workers=1``
    :class:`~repro.algorithms.base.RunContext` — then runs the sequential
    recursion unchanged.  The part file is owned (``owns_file=True``)
    exactly as in the sequential loop, so the worker deletes it once
    consumed.

    The part tree arrives as shared columns (``payload.tree_segment``) or
    pickled (``payload.tree``); the result tree leaves the same way.
    This function never unlinks a segment — the parent owns them all.
    """
    from .algorithms.base import RunContext
    from .algorithms.divide_conquer import _divide_conquer

    device = BlockDevice(
        block_elements=payload.block_elements,
        directory=payload.worker_dir,
        kernel=payload.kernel,
        fault_plan=payload.fault_plan,
        max_retries=payload.max_retries,
        backoff_seconds=payload.backoff_seconds,
        block_codec=payload.block_codec,
    )
    try:
        if payload.tree_segment is not None:
            attached = ColumnSegment.attach(payload.tree_segment)
            try:
                part_tree = _tree_from_segment(attached, device.kernel)
            finally:
                attached.close()
        elif payload.tree is not None:
            part_tree = payload.tree
        else:
            raise StorageError(
                f"part {payload.index}: payload carries neither a tree "
                "segment nor a pickled tree"
            )
        edge_file = EdgeFile.open_sealed(
            device,
            payload.edge_path,
            payload.edge_count,
            payload.block_count,
            mapped=True,
        )
        graph = DiskGraph(device, payload.real_node_count, edge_file)
        sink: Optional[MemorySink] = None
        tracer: Optional[Tracer] = None
        if payload.traced:
            sink = MemorySink()
            tracer = Tracer(sinks=[sink])
        context = RunContext(
            graph,
            payload.memory,
            payload.algorithm,
            deadline_seconds=payload.deadline_seconds,
            tracer=tracer,
            workers=1,
        )
        try:
            # Continue the parent's virtual-id sequence so part trees and
            # worker-internal contractions can never collide with ids the
            # parent handed out before dispatch.  Worker-allocated ids are
            # spliced out before the tree is returned (every return path
            # of the recursion removes non-root virtuals), so two workers
            # sharing this start value is safe.
            context.allocator = VirtualNodeAllocator(payload.allocator_start)
            with context.tracer.span(
                "part",
                depth=payload.depth,
                part=payload.index,
                nodes=payload.real_node_count,
                edges=payload.edge_count,
            ):
                tree = _divide_conquer(
                    edge_file,
                    payload.real_node_count,
                    part_tree,
                    context,
                    payload.strategy,
                    payload.depth,
                    owns_file=True,
                    pass_limit=payload.pass_limit,
                )
            pickled_tree: Optional[SpanningTree] = tree
            if payload.outcome_segment is not None:
                outcome = ColumnSegment.attach(payload.outcome_segment)
                try:
                    _tree_to_segment(outcome, tree, device.kernel)
                    pickled_tree = None
                except StorageError:
                    # The result outgrew its pre-sized segment (should be
                    # impossible — the recursion only removes nodes); fall
                    # back to pickling rather than failing the part.
                    pickled_tree = tree
                finally:
                    outcome.close()
            return PartOutcome(
                index=payload.index,
                tree=pickled_tree,
                io=device.stats.snapshot(),
                passes=context.passes,
                divisions=context.divisions,
                max_depth=context.max_depth,
                details=dict(context.details),
                events=tuple(sink.events) if sink is not None else (),
            )
        finally:
            context.release()
    finally:
        device.close()
        shutil.rmtree(payload.worker_dir, ignore_errors=True)


def _build_payloads(
    division: "Division",
    context: "RunContext",
    strategy: _Strategy,
    depth: int,
    pass_limit: int,
) -> Tuple[List[PartPayload], Dict[str, ColumnSegment]]:
    """Snapshot the dispatch-time state of the run into one payload per part.

    Each part also gets two parent-owned shared-memory segments: its
    spanning tree framed as columns, and a pre-sized empty outcome
    segment for the result tree.  Returns the payloads plus every created
    segment keyed by name — the caller MUST unlink them all (normally in
    a ``finally``) whatever happens to the pool.  A part whose segments
    cannot be allocated falls back to a pickled payload and is counted
    in ``worker_boundary_fallbacks``.
    """
    device = context.graph.device
    shares, oversubscribed = part_memory_shares(
        context.memory,
        [len(part.real_nodes) for part in division.parts],
        context.workers,
    )
    if oversubscribed:
        context.bump("worker_memory_oversubscribed")
    remaining_deadline = context.remaining_seconds()
    remaining_passes = max(1, pass_limit - context.passes)
    payloads: List[PartPayload] = []
    segments: Dict[str, ColumnSegment] = {}
    for part, share in zip(division.parts, shares):
        tree: Optional[SpanningTree] = None
        tree_segment: Optional[str] = None
        outcome_segment: Optional[str] = None
        try:
            root, nodes, parents, flags = tree_columns(part.tree)
            inbound = ColumnSegment.create(
                words_for_columns([1, len(nodes), len(nodes), len(nodes)])
            )
            segments[inbound.name] = inbound
            inbound.write_columns(
                [[root], nodes, parents, flags], device.kernel
            )
            cap = len(nodes) + _OUTCOME_HEADROOM
            outbound = ColumnSegment.create(
                words_for_columns([1, cap, cap, cap])
            )
            segments[outbound.name] = outbound
            tree_segment = inbound.name
            outcome_segment = outbound.name
        except (OSError, StorageError):
            # Shared memory unavailable (or exhausted) on this host:
            # this part's tree rides the pickled payload instead.
            context.bump("worker_boundary_fallbacks")
            tree = part.tree
        payloads.append(
            PartPayload(
                index=part.index,
                depth=depth,
                edge_path=part.edge_file.path,
                edge_count=part.edge_file.edge_count,
                block_count=part.edge_file.block_count,
                tree=tree,
                real_node_count=len(part.real_nodes),
                memory=share,
                pass_limit=remaining_passes,
                deadline_seconds=remaining_deadline,
                strategy=strategy,
                algorithm=context.algorithm,
                block_elements=device.block_elements,
                kernel=device.kernel.name,
                fault_plan=device.fault_plan,
                max_retries=device.max_retries,
                backoff_seconds=device.backoff_seconds,
                allocator_start=context.allocator.next_id,
                worker_dir=os.path.join(
                    device.directory, f"pool-{depth}-{part.index}"
                ),
                traced=context.tracer.enabled,
                block_codec=device.block_codec,
                tree_segment=tree_segment,
                outcome_segment=outcome_segment,
            )
        )
    return payloads, segments


def _cleanup_failed_dispatch(
    division: "Division", payloads: Sequence[PartPayload]
) -> None:
    """Remove every part artifact a failed pool run may have left behind.

    Part files a worker already consumed are gone (``EdgeFile.delete`` is
    idempotent and tolerates a missing file); cancelled or failed parts
    still have theirs, and crashed workers may have left scratch
    directories.  After this, zero part artifacts survive the error.
    (Shared-memory segments are not handled here — ``conquer_parts``
    unlinks them in its ``finally`` regardless of how the pool ended.)
    """
    for part in division.parts:
        part.edge_file.delete()
    for payload in payloads:
        shutil.rmtree(payload.worker_dir, ignore_errors=True)


def conquer_parts(
    division: "Division",
    context: "RunContext",
    strategy: _Strategy,
    depth: int,
    pass_limit: int,
) -> List[SpanningTree]:
    """Conquer a division's parts on a process pool; return trees in order.

    The drop-in parallel replacement for the sequential part loop of
    :func:`~repro.algorithms.divide_conquer._divide_conquer`.  The caller
    only dispatches here from the top-level recursion (workers recurse
    sequentially inside their part), so no parent span is open while
    worker I/O is absorbed and worker events are replayed — which is what
    keeps the leaf-phase tiling invariant exact.

    Every shared-memory segment created for the dispatch is unlinked in
    the ``finally`` below — on success, on a worker exception, on
    ``FIRST_EXCEPTION`` cancellation, on a crashed worker process, and on
    deadline expiry alike, because the cleanup never depends on worker
    cooperation.
    """
    payloads, segments = _build_payloads(
        division, context, strategy, depth, pass_limit
    )
    try:
        worker_count = max(1, min(context.workers, len(payloads)))
        futures: List["Future[PartOutcome]"] = []
        executor = ProcessPoolExecutor(max_workers=worker_count)
        try:
            futures = [
                executor.submit(_run_part_worker, payload)
                for payload in payloads
            ]
            wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                future.cancel()
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

        errors: List[BaseException] = []
        outcomes: List[Optional[PartOutcome]] = []
        for future in futures:
            if future.cancelled():
                outcomes.append(None)
                continue
            error = future.exception()
            if error is not None:
                errors.append(error)
                outcomes.append(None)
            else:
                outcomes.append(future.result())
        if errors or any(outcome is None for outcome in outcomes):
            _cleanup_failed_dispatch(division, payloads)
            if errors:
                raise errors[0]
            raise RuntimeError("process pool dropped a part without an error")

        device = context.graph.device
        trees: List[SpanningTree] = []
        for payload, outcome in zip(payloads, outcomes):
            if outcome is None:  # unreachable; narrows the Optional for mypy
                continue
            device.stats.absorb(outcome.io)
            context.passes += outcome.passes
            context.divisions += outcome.divisions
            if outcome.max_depth > context.max_depth:
                context.max_depth = outcome.max_depth
            for key, amount in outcome.details.items():
                context.bump(key, amount)
            context.tracer.replay(outcome.events, worker=payload.index)
            if outcome.tree is not None:
                trees.append(outcome.tree)
            elif payload.outcome_segment is not None:
                trees.append(
                    _tree_from_segment(
                        segments[payload.outcome_segment], device.kernel
                    )
                )
            else:
                raise StorageError(
                    f"part {payload.index} returned neither a pickled tree "
                    "nor an outcome segment"
                )
        context.bump("parallel_dispatches")
        context.check_deadline()
        return trees
    finally:
        for segment in segments.values():
            segment.destroy()
