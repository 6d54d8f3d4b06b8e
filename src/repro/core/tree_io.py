"""Spanning-tree persistence: checkpoint the in-memory tree to the device.

Semi-external DFS runs can be long (the paper's experiments run for
hours); the only in-memory state the algorithms carry between passes is
the spanning tree, so checkpointing it makes a run resumable.  A tree
over ``n`` nodes serializes to ``3`` ints per node (node, parent,
virtual flag) plus a small header, costing ``ceil(3n / B)`` write I/Os —
the same unit the algorithms are charged in.

Format (little-endian int32 stream)::

    MAGIC  root  count  [node parent flags] * count

Nodes are emitted in preorder, so reconstruction by appending children
reproduces the sibling order exactly.

The module-level :func:`write_tree_blob` / :func:`read_tree_blob` pair
is the raw wire format, used by :mod:`repro.serve.store` as the tree
payload *inside* a manifest-bearing artifact directory.  Publish and
open trees through :class:`repro.serve.ArtifactStore`
(``ArtifactStore.for_run(device).publish_tree`` /
``store.open(name).tree``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import StorageError
from ..storage.block_device import BlockDevice
from ..storage.serialization import pack_ints, unpack_ints
from .tree import SpanningTree

#: Format marker ("DFS1" as an int, little-endian).
MAGIC = 0x44465331

_NO_PARENT = -1
_FLAG_VIRTUAL = 1


def tree_columns(tree: SpanningTree) -> Tuple[int, List[int], List[int], List[int]]:
    """Decompose ``tree`` into ``(root, nodes, parents, flags)`` columns.

    Nodes appear in preorder (so sibling order is recoverable by
    appending), ``parents`` uses ``-1`` for the root, and ``flags``
    carries the virtual bit.  This is the columnar form the
    shared-memory worker boundary moves across the process line; the
    row-oriented wire format below is a zip of the same columns.

    Only the part of the tree reachable from the root is emitted
    (detached nodes are transient algorithm state, never
    checkpoint-worthy).

    Raises:
        StorageError: when the tree has no root.
    """
    if tree.root is None:
        raise StorageError("cannot save a rootless tree")
    nodes: List[int] = []
    parents: List[int] = []
    flags: List[int] = []
    for node in tree.preorder():
        parent = tree.parent[node]
        nodes.append(node)
        parents.append(_NO_PARENT if parent is None else parent)
        flags.append(_FLAG_VIRTUAL if tree.is_virtual(node) else 0)
    return tree.root, nodes, parents, flags


def tree_from_columns(
    root: int,
    nodes: Sequence[int],
    parents: Sequence[int],
    flags: Sequence[int],
    context: str = "tree columns",
) -> SpanningTree:
    """Rebuild a tree from :func:`tree_columns` output.

    Raises:
        StorageError: mismatched column lengths.
    """
    if len(nodes) != len(parents) or len(nodes) != len(flags):
        raise StorageError(f"{context}: mismatched tree column lengths")
    return SpanningTree.from_preorder(
        root, nodes, parents, flags, no_parent=_NO_PARENT
    )


def tree_values(tree: SpanningTree) -> List[int]:
    """Serialize ``tree`` to its int32 wire values (header + triples).

    Raises:
        StorageError: when the tree has no root.
    """
    root, nodes, parents, flags = tree_columns(tree)
    values = [MAGIC, root, len(nodes)]
    for triple in zip(nodes, parents, flags):
        values.extend(triple)
    return values


def tree_from_values(values: List[int], context: str) -> SpanningTree:
    """Reconstruct a tree from its wire values (see :func:`tree_values`).

    Raises:
        StorageError: on a bad magic number or truncated value stream.
    """
    if len(values) < 3 or values[0] != MAGIC:
        raise StorageError(f"{context} is not a tree checkpoint")
    root, count = values[1], values[2]
    expected = 3 + 3 * count
    if len(values) < expected:
        raise StorageError(
            f"{context} truncated: expected {expected} values, got {len(values)}"
        )
    body = values[3:expected]
    return tree_from_columns(
        root, body[0::3], body[1::3], body[2::3], context=context
    )


def write_tree_blob(device: BlockDevice, tree: SpanningTree, path: str) -> None:
    """Write ``tree`` to ``path`` as CRC-framed blocks on ``device``."""
    values = tree_values(tree)
    block_values = device.block_elements
    # repro: allow[SEX101] checkpoint frames flow through device.write_block, so every block IS charged
    with open(path, "wb") as handle:
        for start in range(0, len(values), block_values):
            device.write_block(
                handle, pack_ints(values[start : start + block_values]),
                context=path,
            )


def read_tree_blob(device: BlockDevice, path: str) -> SpanningTree:
    """Read a tree written by :func:`write_tree_blob` (I/O-counted).

    Raises:
        StorageError: on a bad magic number, truncated file, or (via
            :class:`~repro.errors.CorruptBlockError`) a block whose
            checksum no longer matches.
    """
    values: List[int] = []
    # repro: allow[SEX101] checkpoint frames flow through device.read_block, so every block IS charged
    with open(path, "rb") as handle:
        while True:
            chunk = device.read_block(handle, context=path)
            if chunk is None:
                break
            values.extend(unpack_ints(chunk))
    return tree_from_values(values, context=path)

