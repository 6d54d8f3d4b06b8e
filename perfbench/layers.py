"""Per-layer instrumentation, installed from outside the program.

The traced run wraps public entry points of each layer — the block
device's ``read_block``/``write_block``, ``EdgeFile.scan_columns``, the
columnar kernel (through a proxy installed as ``device.kernel``),
``IntervalIndex`` construction, ``dfs_preferring_tree``,
``s_edge_endpoints`` and the SCC pass sealing uses — and restores every
one of them on :meth:`Instruments.close`.  Nothing in the program is
edited; the untraced runs never see these wrappers.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.algorithms import division as division_mod
from repro.algorithms import divide_conquer as divide_conquer_mod
from repro.algorithms import restructure as restructure_mod
from repro.apps import components as components_mod
from repro.core import inmemory as inmemory_mod
from repro.core.classify import IntervalIndex
from repro.obs import phase_totals
from repro.storage.edge_file import EdgeFile

from common import Recorder

#: Kernel ops the proxy times, with how many elements each call handled.
KERNEL_OPS: Dict[str, Callable[[Tuple[Any, ...], Any], int]] = {
    "classify_slice": lambda args, out: int(out[0]) - int(args[3]),
    "make_index": lambda args, out: len(args[0]),
    "collect_cross_edges": lambda args, out: len(args[1]),
    "route_edges": lambda args, out: len(args[1]),
    "make_columns": lambda args, out: len(args[0]),
    "unpack_edge_columns": lambda args, out: len(out[0]),
}

#: Phase spans the program already emits (``repro.obs``), reported per
#: traversal as ``algorithms.<phase>_s`` and ``algorithms.<phase>.ios``.
PHASES = (
    "restructure", "divide", "sgraph", "partition", "cut-tree", "solve",
    "merge", "checkpoint",
)

#: Phases that tile a traversal without overlap (``repro.obs.LEAF_PHASES``
#: restricted to the DFS family); the rest of the wall time is unattributed.
LEAF_PHASES = ("restructure", "divide", "solve", "merge", "checkpoint", "sort")


def _timed(recorder: Recorder, name: str, calls_key: str,
           function: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.add(f"{name}_s", recorder.end(span))
            recorder.add(f"{name}.{calls_key}")
    return wrapper


class KernelProxy:
    """Stands in for a device's kernel and times the ops in KERNEL_OPS."""

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder
        self._wrapped: Dict[str, Callable[..., Any]] = {}

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._inner, name)
        if name not in KERNEL_OPS:
            return value
        wrapped = self._wrapped.get(name)
        if wrapped is None:
            wrapped = self._wrap(name, value)
            self._wrapped[name] = wrapped
        return wrapped

    def _wrap(self, op: str, function: Callable[..., Any]) -> Callable[..., Any]:
        recorder = self._recorder
        elems = KERNEL_OPS[op]
        key = f"kernels.{op}"

        def wrapper(*args: Any) -> Any:
            span = recorder.begin(key)
            out = function(*args)
            recorder.add(f"{key}_s", recorder.end(span))
            recorder.add(f"{key}.calls")
            recorder.add(f"{key}.elems", elems(args, out))
            return out
        return wrapper


class Instruments:
    """Installs the layer wrappers; :meth:`close` restores everything."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []
        self._patch_module_functions()
        self._patch_interval_index()
        self._patch_scan_columns()

    # -- installation ------------------------------------------------
    def _set(self, owner: Any, name: str, value: Any) -> None:
        had = name in vars(owner)
        prior = vars(owner).get(name)

        def undo() -> None:
            if had:
                setattr(owner, name, prior)
            else:
                delattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(undo)

    def _patch_module_functions(self) -> None:
        recorder = self.recorder
        dfs = _timed(recorder, "core.dfs_preferring_tree", "calls",
                     inmemory_mod.dfs_preferring_tree)
        for module in (inmemory_mod, restructure_mod, divide_conquer_mod):
            self._set(module, "dfs_preferring_tree", dfs)
        self._set(components_mod, "strongly_connected_components",
                  _timed(recorder, "apps.scc", "calls",
                         components_mod.strongly_connected_components))
        endpoints = division_mod.s_edge_endpoints

        def s_edge_endpoints(*args: Any) -> Any:
            recorder.add("algorithms.s_edge_endpoints.calls")
            return endpoints(*args)
        self._set(division_mod, "s_edge_endpoints", s_edge_endpoints)

    def _patch_interval_index(self) -> None:
        recorder = self.recorder
        original = IntervalIndex.__init__

        def __init__(index: IntervalIndex, tree: Any) -> None:
            span = recorder.begin("core.interval_index")
            try:
                original(index, tree)
            finally:
                recorder.add("core.interval_index_s", recorder.end(span))
                recorder.add("core.interval_index.builds")
        self._set(IntervalIndex, "__init__", __init__)

    def _patch_scan_columns(self) -> None:
        recorder = self.recorder
        original = EdgeFile.scan_columns

        def scan_columns(edge_file: EdgeFile) -> Any:
            blocks = original(edge_file)
            try:
                while True:
                    span = recorder.begin("storage.scan")
                    try:
                        columns = next(blocks)
                    except StopIteration:
                        return
                    finally:
                        recorder.add("storage.scan_s", recorder.end(span))
                    recorder.add("storage.edges_scanned", len(columns[0]))
                    yield columns
            finally:
                blocks.close()
        self._set(EdgeFile, "scan_columns", scan_columns)

    def watch_device(self, device: Any) -> None:
        """Time this device's block transfers and kernel ops."""
        recorder = self.recorder
        for op in ("read_block", "write_block"):
            self._set(device, op, _timed(
                recorder, f"storage.{op}", "calls", getattr(device, op)
            ))
        self._set(device, "kernel", KernelProxy(device.kernel, recorder))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()


def result_layers(results: Sequence[Any]) -> Dict[str, float]:
    """Per-traversal phase, division and storage figures from results.

    Sums the program's own span events (``repro.obs.phase_totals``) and
    result counters over ``results`` and divides by their number.
    """
    count = len(results)
    totals: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    raw = stored = 0
    for result in results:
        phases = phase_totals(result.events, set(PHASES) | set(LEAF_PHASES))
        for phase in PHASES:
            total = phases.get(phase)
            add(f"algorithms.{phase}_s", total.seconds if total else 0.0)
            add(f"algorithms.{phase}.ios", total.io.total if total else 0)
        leaf = sum(phases[p].seconds for p in LEAF_PHASES if p in phases)
        add("algorithms.unattributed_s", result.elapsed_seconds - leaf)
        add("algorithms.divisions", getattr(result, "divisions", 0))
        add("algorithms.divisions_vetoed",
            result.details.get("divisions_vetoed", 0))
        add("storage.retries", result.io.retries)
        raw += result.io.edge_bytes_raw
        stored += result.io.edge_bytes_stored
    layers = {name: value / count for name, value in totals.items()}
    layers["storage.compression_ratio"] = raw / stored if stored else 1.0
    return layers


def per_call(recorder: Recorder, operations: int) -> Dict[str, float]:
    """Recorder counters divided by the number of traced operations."""
    return {
        name: value / operations for name, value in recorder.counts.items()
    }
