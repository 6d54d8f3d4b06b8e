"""serve-mixed: publish versions of small graphs and query them over HTTP.

The server is a separate process (``python -m repro serve --port 0``).
One keep-alive connection drives it in a closed loop, a window of
queries at a time.  Between windows, on a fixed schedule, the benchmark
publishes the next graph of its suite as a new version, so writes sit
beside reads and the first query after each publish pays a cold
``ArtifactStore.open`` in the server.  Every answer is checked, after its window, against
``QueryEngine.execute`` on the same artifact version in this process.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro import RunOptions, Tracer, semi_external_dfs
from repro.errors import ReproError
from repro.serve import ArtifactStore, QueryEngine, seal_result

from common import (
    ROOT, BenchmarkError, CountGuard, HostRecord, Recorder, Sample, Workspace,
    at_nominal_speed, median, order_digest, percentile, proc_cpu_seconds,
    proc_peak_rss_mb, speed_probe,
)
from layers import Instruments, per_call, result_layers
from traversal import (
    KERNEL, GraphSpec, LoadedGraph, check_traversal, close_suite, load_suite,
    suite_paths,
)

NAME = "serve-mixed"
SPEC = GraphSpec("power-law", nodes=400, degree=4, codec="fixed32",
                 edge_share=0.2)
ALGORITHM = "divide-td"
#: Graphs in the suite; republishes cycle through them.
SUITE = 24
#: Nodes whose reachability sets are sealed, so ``reachable`` from them
#: is always decidable.
PINNED = (0, 1, 2, 3)
#: Queries per window.  A run publishes each graph once, so writes are
#: about 0.02% of requests and cold opens cannot set the 99th percentile.
WINDOW = 1000
#: Server start-ups timed into ``setup_s``; the last one stays up.
SERVER_STARTS = 5
ARTIFACT = "bench"
#: What a clean store holds: published version directories, no staging.
#: The traced half of a traced run publishes into a store of its own.
STORE_PATH = re.compile(
    rf"^store(-traced)?(/{ARTIFACT}(/v\d{{6}}(/[^/]+)?)?)?$"
)

#: Query kinds of the mix, each drawn with equal probability: the mix is
#: synthetic, with no measured traffic behind it.  The suite's graphs
#: are cyclic, so ``toposort``/``topo-position`` would be refused (409).
KINDS = (
    "position", "ancestor", "path", "scc", "reachable", "reachable-set",
    "order", "cycle",
)


def query_pool(seed: int, count: int = 1000) -> List[Tuple[str, Dict[str, str]]]:
    """Deterministic mixed queries: (kind, string parameters)."""
    rng = random.Random(seed)
    nodes = SPEC.nodes
    pool = []
    for _ in range(count):
        kind = rng.choice(KINDS)
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        params: Dict[str, int] = {}
        if kind == "position":
            params = {"node": u}
        elif kind in ("ancestor", "path"):
            params = {"u": u, "v": v}
        elif kind == "scc":
            params = rng.choice(({"node": u}, {"u": u, "v": v}, {}))
        elif kind == "reachable":
            params = {"u": rng.choice(PINNED), "v": v}
        elif kind == "reachable-set":
            params = {"source": rng.choice(PINNED), "limit": 20}
        elif kind == "order":
            params = {"offset": rng.randrange(nodes), "limit": 20}
        text = {key: str(value) for key, value in params.items()}
        text["artifact"] = ARTIFACT
        pool.append((kind, text))
    return pool


class Server:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, store_root: str, workspace: Workspace,
                 trace_path: Optional[str] = None) -> None:
        command = [sys.executable, "-u", "-m", "repro", "serve",
                   "--store", store_root, "--port", "0"]
        if trace_path is not None:
            command += ["--trace-out", trace_path]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TMPDIR"] = workspace.path
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._read_port()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.connection = HTTPConnection("127.0.0.1", self.port, timeout=10)

    def _read_port(self) -> int:
        stdout = self.process.stdout
        assert stdout is not None
        ready, _, _ = select.select([stdout], [], [], 30)
        line = stdout.readline() if ready else ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise BenchmarkError(f"server did not report its port: {line!r}")
        return int(match.group(1))

    def _await_health(self) -> None:
        deadline = time.perf_counter() + 30
        while True:
            connection = HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise BenchmarkError("server never answered /healthz")
            time.sleep(0.01)

    def get(self, path: str) -> Tuple[Optional[int], bytes]:
        try:
            self.connection.request("GET", path)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, HTTPException):
            self.connection.close()
            return None, b""

    def stop(self) -> None:
        """SIGTERM, then wait; a server that will not exit fails the run."""
        connection = getattr(self, "connection", None)
        if connection is not None:
            connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                raise BenchmarkError("server ignored SIGTERM")
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServeMixed:
    name = NAME

    def run(self, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
        host = HostRecord(KERNEL, SPEC.codec)
        self.workspace = workspace = Workspace(self.name)
        self.trace_path = workspace.sub("server-trace.jsonl")
        self.guard = CountGuard(self.name, seed)
        self.pool = query_pool(seed)
        self.server: Optional[Server] = None
        suite = load_suite(SPEC, seed, SUITE, workspace)
        try:
            starts = []
            for _ in range(SERVER_STARTS):
                self._stop_server()
                probe_s = speed_probe()
                started = time.perf_counter()
                self.server = Server(workspace.sub("store"), workspace)
                starts.append(at_nominal_speed(
                    time.perf_counter() - started, probe_s
                ))
            outcome = self._measure(suite, seconds, traced)
        finally:
            self._stop_server()
            close_suite(suite)
        self.guard.check_previous_runs()
        owned = suite_paths(suite, workspace)
        leftovers = workspace.leftovers(
            lambda path: path in owned or path == "server-trace.jsonl"
            or STORE_PATH.match(path) is not None
        )
        workspace.close()
        if leftovers:
            raise BenchmarkError(f"teardown: the run leaked {leftovers}")
        outcome["host"] = host.finish()
        outcome["setup"] = [
            loaded.nominal_setup_s + median(starts) for loaded in suite
        ]
        outcome["generate"] = [loaded.generate_s for loaded in suite]
        outcome["load"] = [loaded.load_s for loaded in suite]
        outcome["bytes_per_edge"] = (
            sum(loaded.bytes_per_edge for loaded in suite) / len(suite)
        )
        return outcome

    def _stop_server(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.stop()

    # -- one publish -----------------------------------------------------
    def _publish(self, loaded: LoadedGraph, store: ArtifactStore,
                 tracer: Optional[Tracer]) -> Dict[str, Any]:
        """Edge file to queryable version: DFS, seal, publish."""
        graph_io = loaded.device.stats.snapshot()
        store_io = store.stats.snapshot()
        started = time.perf_counter()
        result = semi_external_dfs(
            loaded.graph, loaded.memory, algorithm=ALGORITHM,
            options=RunOptions(block_codec=SPEC.codec, tracer=tracer),
        )
        traversed = time.perf_counter()
        artifact = seal_result(
            loaded.graph, result, memory=loaded.memory, sources=PINNED
        )
        sealed = time.perf_counter()
        ref = store.publish(artifact, ARTIFACT)
        published = time.perf_counter()
        ios = (
            (loaded.device.stats.snapshot() - graph_io).total
            + (store.stats.snapshot() - store_io).total
        )
        return {
            "result": result,
            "version": ref.version,
            "path": ref.path,
            "traversal_s": traversed - started,
            "seal_s": sealed - traversed,
            "store_publish_s": published - sealed,
            "publish_s": published - started,
            "ios": ios,
        }

    def _traced_publish(self, suite: List[LoadedGraph], loaded: LoadedGraph,
                        store: ArtifactStore,
                        recorder: Recorder) -> Dict[str, Any]:
        instruments = Instruments(recorder)
        try:
            for graph in suite:
                instruments.watch_device(graph.device)
            instruments.watch_device(store.device)
            return self._publish(loaded, store, Tracer())
        finally:
            instruments.close()

    # -- one window of queries ---------------------------------------------
    def _window(self, offset: int) -> Dict[str, Any]:
        server = self.server
        assert server is not None
        pool = self.pool
        requests = [pool[(offset + i) % len(pool)] for i in range(WINDOW)]
        replies = []
        probe_s = speed_probe()
        started = time.perf_counter()
        for kind, params in requests:
            sent = time.perf_counter()
            status, body = server.get(f"/v1/query/{kind}?{urlencode(params)}")
            replies.append((status, body, time.perf_counter() - sent))
        elapsed = time.perf_counter() - started
        return {"requests": requests, "replies": replies, "seconds": elapsed,
                "probe_s": probe_s}

    @staticmethod
    def _verify(window: Dict[str, Any], engine: QueryEngine,
                execute_us: Dict[str, List[float]],
                latencies: List[Sample]) -> int:
        """Failures in the window; latencies, failures as misses."""
        failed = 0
        for (kind, params), (status, body, latency) in zip(
            window["requests"], window["replies"]
        ):
            started = time.perf_counter()
            try:
                answer = engine.execute(kind, params)
            except ReproError:  # the query itself is refused: a failure
                answer = None
            execute_us[kind].append((time.perf_counter() - started) * 1e6)
            ok = (status == 200 and answer is not None
                  and json.loads(body) == json.loads(json.dumps(answer)))
            failed += not ok
            latencies.append(
                (latency if ok else float("inf"), window["probe_s"])
            )
        return failed

    def _measure(self, suite: List[LoadedGraph], seconds: float,
                 traced: bool) -> Dict[str, Any]:
        """Publish each graph of the suite once, on a fixed schedule.

        Graph *k* is published at ``k / SUITE`` of the phase, and windows
        of queries run until the next publish is due.  The schedule,
        not the host's speed, sets how many versions a run publishes,
        so the store and the server's cache grow the same way in every
        run.  Traced runs spend the first half against the untraced
        server and the second half against one started with
        ``--trace-out``, whose publishes also run under the layer
        wrappers.  The traced half publishes into a fresh store of its
        own, so both halves query stores that grow through the same
        versions and their latencies differ only by tracing.
        """
        recorder = Recorder()
        publishes: List[Dict[str, Any]] = []
        traced_publishes: List[Dict[str, Any]] = []
        execute_us: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        open_ms: List[float] = []
        publish_bytes: List[int] = []
        latencies: Dict[bool, List[Sample]] = {False: [], True: []}
        window_qps: List[float] = []
        attempted = failed = 0
        windows = 0
        cpu_used = 0.0
        phases = [(False, seconds / 2), (True, seconds / 2)] if traced else [
            (False, seconds)
        ]
        for tracing, length in phases:
            store_root = self.workspace.sub(
                "store-traced" if tracing else "store"
            )
            if tracing:
                self._stop_server()
                self.server = Server(store_root, self.workspace, self.trace_path)
            assert self.server is not None
            with ArtifactStore(store_root) as store:
                cpu_before = proc_cpu_seconds(self.server.process.pid)
                begun = time.perf_counter()
                for graph, loaded in enumerate(suite):
                    if tracing:
                        publish = self._traced_publish(
                            suite, loaded, store, recorder
                        )
                        traced_publishes.append(publish)
                    else:
                        publish = self._publish(loaded, store, None)
                        publishes.append(publish)

                    # Checks: outside the timed windows and the layer wrappers.
                    result = publish["result"]
                    self.guard.check(f"graph-{graph}", {
                        "ios": publish["ios"], "passes": result.passes,
                        "order": order_digest(result.order),
                    })
                    publish["graph"] = graph
                    attempted += 1
                    failed += not check_traversal(loaded, result)
                    publish_bytes.append(sum(
                        os.path.getsize(os.path.join(publish["path"], entry))
                        for entry in os.listdir(publish["path"])
                    ))
                    opened = time.perf_counter()
                    artifact = store.open(ARTIFACT, publish["version"])
                    engine = QueryEngine(artifact)
                    open_ms.append((time.perf_counter() - opened) * 1000)

                    due = begun + (graph + 1) * length / SUITE
                    while True:
                        window = self._window(windows * WINDOW)
                        windows += 1
                        failed += self._verify(
                            window, engine, execute_us, latencies[tracing]
                        )
                        attempted += WINDOW
                        if not tracing:
                            window_qps.append(WINDOW / window["seconds"])
                        if time.perf_counter() >= due:
                            break
            if not tracing:
                cpu_used = proc_cpu_seconds(self.server.process.pid) - cpu_before
        assert self.server is not None
        peak_rss = proc_peak_rss_mb(self.server.process.pid)
        self._stop_server()  # flushes the server's trace file

        outcome: Dict[str, Any] = {
            "attempted": attempted,
            "failed": failed,
            "latency_ms": p50_ms(latencies[False], nominal=True),
            "ios": sum(p["ios"] for p in publishes) / SUITE,
            "passes": sum(p["result"].passes for p in publishes) / SUITE,
            "peak_rss_mb": peak_rss,
        }
        if traced:
            requests = [
                record["elapsed_seconds"] * 1000
                for record in _read_jsonl(self.trace_path)
                if record.get("name") == "request"
            ]
            layers = per_call(recorder, len(traced_publishes))
            layers.update(result_layers([p["result"] for p in traced_publishes]))
            request_ms = median(requests)
            traced_p50 = p50_ms(latencies[True], nominal=False)
            queries = len(window_qps) * WINDOW
            layers.update({
                "serve.publish_s": median([p["publish_s"] for p in publishes]),
                "serve.query_p50_ms": p50_ms(latencies[False], nominal=False),
                "serve.query_p99_ms": percentile(
                    [latency for latency, _ in latencies[False]], 0.99
                ) * 1000,
                "serve.query_qps": median(window_qps),
                "serve.seal_s": median([p["seal_s"] for p in publishes]),
                "serve.store.publish_s": median(
                    [p["store_publish_s"] for p in publishes]
                ),
                "serve.store.publish_bytes": median(publish_bytes),
                "serve.store.open_ms": median(open_ms),
                "serve.app.request_ms": request_ms,
                "serve.app.transport_ms": traced_p50 - request_ms,
                "serve.server_cpu_us_per_query": cpu_used / queries * 1e6,
                "trace.traversal_s": median(
                    [p["traversal_s"] for p in traced_publishes]
                ),
                "trace.overhead_frac": (
                    p50_ms(latencies[True], nominal=True)
                    / outcome["latency_ms"] - 1
                ),
            })
            for kind, times in execute_us.items():
                layers[f"serve.queries.execute_us.{kind}"] = median(times)
            outcome["layers"] = layers
            outcome["trace"] = [
                dict(event.to_dict(), source="program", publish=number)
                for number, publish in enumerate(traced_publishes)
                for event in publish["result"].events
            ] + [
                dict(span, source="benchmark") for span in recorder.spans
            ] + [
                dict(record, source="server")
                for record in _read_jsonl(self.trace_path)
            ]
        return outcome


def p50_ms(samples: List[Sample], nominal: bool) -> float:
    """Median latency in ms, each first taken to nominal host speed
    with the probe of its window if ``nominal``."""
    return percentile(
        [at_nominal_speed(*sample) if nominal else sample[0]
         for sample in samples], 0.5,
    ) * 1000


def _read_jsonl(path: str) -> List[Dict[str, Any]]:
    if not os.path.isfile(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]
