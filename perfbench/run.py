"""The repository's benchmark: discovery at scale, under load, and live.

    python3 perfbench/run.py --workload discover-dragonfly992 --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``perfbench/DESIGN.md`` for why each was chosen):

* ``discover-dragonfly992`` -- idle parallel initial discovery of the
  992-device Swapped Dragonfly D3(8, 62);
* ``load-mesh16`` -- the Fig. 6 change protocol on the 4x4 mesh under
  30% uniform Poisson traffic of 64-byte packets;
* ``serve-mesh64`` -- ``repro serve`` on a churning 8x8 mesh, driven
  by an open-loop stream of 100 requests per second.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced, checks that both did the same
simulated work, and prints the per-layer metrics.  Every run checks
the program's outputs; the last line of stdout is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) and the exit code
is non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import json
import queue
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

HERE = Path(__file__).resolve().parent

WORKLOADS = ("discover-dragonfly992", "load-mesh16", "serve-mesh64")

#: End-to-end metrics (always measured with tracing off) and units.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "p50_ms": "ms",
    "p90_ms": "ms",
}

#: Per-layer metrics of the traced run and their units.
PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_hop": "events/hop",
    "sim.cancels": "count",
    "sim.self_s": "s",
    "fabric.hops": "count",
    "fabric.port_sends": "count",
    "fabric.drops": "count",
    "fabric.max_queued": "count",
    "fabric.self_s": "s",
    "fabric.self_us_per_hop": "us",
    "protocols.pi4_requests": "count",
    "protocols.pi4_completions": "count",
    "protocols.timeouts": "count",
    "protocols.retries": "count",
    "protocols.pi5_events": "count",
    "protocols.self_s": "s",
    "manager.fm_packets": "count",
    "manager.db_writes": "count",
    "manager.self_s": "s",
    "manager.recompute_routes_s": "s",
    "manager.devices_per_request": "ratio",
    "manager.sim_discovery_ms": "sim_ms",
    "routing.turn_pools": "count",
    "routing.path_queries": "count",
    "routing.self_s": "s",
    "capability.self_s": "s",
    "topology.build_s": "s",
    "workloads.app_injected": "count",
    "workloads.app_delivered": "count",
    "workloads.delivered_ratio": "ratio",
    "workloads.self_s": "s",
    "service.ops": "count",
    "service.exec_p50_ms": "ms",
    "service.exec_p99_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.send_late_p99_ms": "ms",
    "obs.metrics_scrape_ms": "ms",
    "experiments.self_s": "s",
    "trace.overhead": "ratio",
}

#: Work counts a traced run must reproduce exactly (batch workloads).
TRACE_INVARIANT = ("sim.events", "fabric.hops", "protocols.pi4_requests",
                   "workloads.app_delivered", "manager.sim_discovery_ms")

#: Batch iterations per untraced run, at least.
MIN_ITERATIONS = 2
#: Wall-clock cap on one batch iteration's child process.
CHILD_TIMEOUT_S = 150.0

SERVE_TOPOLOGY = "mesh64"
#: Mean simulated seconds between churn faults.  ``FaultInjector``
#: asks for an interval comfortably above the assimilation time so
#: each change is absorbed before the next; a mesh64 rediscovery
#: takes tens of simulated milliseconds.
SERVE_MEAN_INTERVAL = 0.1
#: Open-loop request rate (requests per wall second).  One connection
#: is served one request at a time, and each answer waits for the
#: kernel thread to hand over the interpreter lock (a 5 ms switch
#: interval), so 200/s sits at the knee: runs alternated between a
#: 6 ms median and a growing backlog.  100/s leaves headroom.
SERVE_RATE = 100.0
#: A request with no response this long after it was due has failed.
REQUEST_TIMEOUT_S = 5.0
#: Server start-ups per untraced serve run (the last one is measured).
SERVE_SETUPS = 3
#: Cap on the wait for the server's initial discovery.
READY_TIMEOUT_S = 90.0


class BenchError(Exception):
    """A workload could not be run to the end."""


# -- batch workloads ---------------------------------------------------------------

def run_iteration(workload: str, seed: int, traced: bool) -> dict:
    """One batch iteration in a fresh interpreter (``batch.py``)."""
    command = [sys.executable, str(HERE / "batch.py"),
               "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    try:
        proc = subprocess.run(
            command, cwd=common.ROOT, env=common.child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} iteration exceeded "
                         f"{CHILD_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} iteration exited "
                         f"{proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def batch_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    iterations = []
    while (len(iterations) < MIN_ITERATIONS
           or time.perf_counter() - started < seconds):
        iterations.append(run_iteration(workload, seed, traced=False))
    visibility = [ms for it in iterations for ms in it["visibility_ms"]]
    failed = sum(1 for it in iterations if it["failures"])
    samples = {
        "setup_s": [it["setup_s"] for it in iterations],
        "run_s": [it["run_s"] for it in iterations],
        "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
    }
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics.update(
        ok_share=(len(iterations) - failed) / len(iterations),
        p50_ms=common.percentile(visibility, 50),
        p90_ms=common.percentile(visibility, 90),
    )
    return {
        "metrics": metrics, "samples": samples,
        "sample_counts": {"p50_ms": len(visibility),
                          "p90_ms": len(visibility)},
        "attempted": len(iterations), "failed": failed,
        "failures": [f for it in iterations for f in it["failures"]],
    }


def batch_traced(workload: str, seed: int) -> dict:
    plain = run_iteration(workload, seed, traced=False)
    traced = run_iteration(workload, seed, traced=True)
    for name in TRACE_INVARIANT:
        if plain["counts"][name] != traced["counts"][name]:
            traced["failures"].append(
                f"tracing changed {name}: {plain['counts'][name]} "
                f"untraced, {traced['counts'][name]} traced")
    layers = layer_metrics(traced["counts"], traced["layers"])
    layers["trace.overhead"] = traced["run_s"] / plain["run_s"]
    return {
        "metrics": layers, "samples": {}, "attempted": 2,
        "failed": sum(1 for it in (plain, traced) if it["failures"]),
        "failures": plain["failures"] + traced["failures"],
    }


def layer_metrics(counts: dict, layers: dict) -> dict:
    """Every per-layer metric from a traced run's counts and profile."""
    metrics = {name: counts[name] for name in PER_LAYER if name in counts}
    metrics.update({name: layers[name] for name in PER_LAYER
                    if name in layers})
    hops = counts["fabric.hops"]
    injected = counts["workloads.app_injected"]
    requests = counts["protocols.pi4_requests"]
    metrics["sim.events_per_hop"] = (
        counts["sim.events"] / hops if hops else 0.0)
    metrics["fabric.self_us_per_hop"] = (
        layers["fabric.self_s"] * 1e6 / hops if hops else 0.0)
    metrics["manager.devices_per_request"] = (
        counts["manager.devices_found"] / requests if requests else 0.0)
    # With nothing injected, nothing was lost.
    metrics["workloads.delivered_ratio"] = (
        counts["workloads.app_delivered"] / injected if injected else 1.0)
    return metrics


# -- the live service --------------------------------------------------------------

class Connection:
    """A pipelined NDJSON connection: send any time, responses by id."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.reader = self.sock.makefile("rb")
        hello = json.loads(self.reader.readline())
        if hello.get("event") != "hello":
            raise BenchError(f"expected the hello banner, got {hello!r}")
        self.responses: dict = {}
        self.arrived = threading.Condition()
        self.next_id = 0
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        try:
            for line in self.reader:
                received = time.perf_counter()
                document = json.loads(line)
                if "id" not in document:
                    continue  # feed event
                with self.arrived:
                    self.responses[document["id"]] = (received, document)
                    self.arrived.notify_all()
        except (OSError, ValueError):
            pass

    def send(self, op: str, **params) -> int:
        self.next_id += 1
        self.sock.sendall(json.dumps(
            {"id": self.next_id, "op": op, **params}).encode() + b"\n")
        return self.next_id

    def wait(self, request_id: int, deadline: float):
        """The ``(received, document)`` of a response, or ``None``."""
        with self.arrived:
            while request_id not in self.responses:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None
                self.arrived.wait(remaining)
            return self.responses[request_id]

    def call(self, op: str, **params) -> dict:
        """Closed-loop request; returns the result or raises."""
        answer = self.wait(self.send(op, **params),
                           time.perf_counter() + 30)
        if answer is None:
            raise BenchError(f"no response to {op!r} within 30 s")
        document = answer[1]
        if not document.get("ok"):
            raise BenchError(f"{op!r} failed: {document.get('error')}")
        return document["result"]

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.thread.join(5)


class ServerProcess:
    """One ``repro serve`` process, from spawn to ready to shutdown."""

    def __init__(self, seed: int, traced: bool):
        args = ["serve", "--topology", SERVE_TOPOLOGY, "--churn",
                "--seed", str(seed), "--port", "0",
                "--mean-interval", repr(SERVE_MEAN_INTERVAL)]
        program = ([str(HERE / "serve_traced.py")] if traced
                   else ["-m", "repro"])
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *program, *args], cwd=common.ROOT,
            env=common.child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue" = queue.Queue()
        self.stderr: list = []
        self._pumps = [
            threading.Thread(target=self._pump, args=(
                self.proc.stdout, self.lines.put), daemon=True),
            threading.Thread(target=self._pump, args=(
                self.proc.stderr, self.stderr.append), daemon=True),
        ]
        for pump in self._pumps:
            pump.start()
        self.conn = None

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line.rstrip("\n"))

    def connect_when_ready(self) -> tuple:
        """Wait for the initial discovery; returns (set-up s, endpoints).

        Ready means the FM finished its initial discovery and the
        database holds at least two endpoints, so path queries have a
        distinct source and destination.
        """
        try:
            banner = self.lines.get(timeout=READY_TIMEOUT_S)
        except queue.Empty:
            raise BenchError("server printed no banner") from None
        if " on " not in banner:
            raise BenchError(f"unexpected server banner {banner!r}")
        address = banner.split(" on ", 1)[1].split(",")[0]
        self.conn = Connection(int(address.rsplit(":", 1)[1]))
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            status = self.conn.call("status")
            if status["driver"]["crashed"]:
                raise BenchError(f"kernel crashed before ready: "
                                 f"{status['driver']['crashed']}")
            if status["discoveries"] >= 1:
                topology = self.conn.call("topology")
                endpoints = sorted(d["dsn"] for d in topology["devices"]
                                   if d["type"] == "endpoint")
                if len(endpoints) >= 2:
                    return time.perf_counter() - self.started, endpoints
            time.sleep(0.02)
        raise BenchError(f"no initial discovery within "
                         f"{READY_TIMEOUT_S:g} s")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (MiB)."""
        status = Path(f"/proc/{self.proc.pid}/status")
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM in the server's /proc status")

    def shutdown(self) -> list:
        """Stop the server; returns the stdout lines it printed."""
        try:
            if self.conn is not None:
                try:
                    self.conn.send("shutdown")
                except OSError:
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            if self.conn is not None:
                self.conn.close()
            for pump in self._pumps:
                pump.join(5)
        lines = []
        while not self.lines.empty():
            lines.append(self.lines.get())
        return lines


def open_loop(conn: Connection, endpoints: list, seed: int,
              window_s: float) -> dict:
    """Send the read mix at a fixed rate; time each from its due time."""
    src, dst = random.Random(seed).sample(endpoints, 2)
    count = max(1, int(window_s * SERVE_RATE))
    start = time.perf_counter() + 0.05
    sent = []
    for index in range(count):
        op = common.QUERY_MIX[index % len(common.QUERY_MIX)]
        due = start + index / SERVE_RATE
        common.sleep_until(due)
        params = {"src": src, "dst": dst} if op == "path" else {}
        sent.append((conn.send(op, **params), op, due,
                     time.perf_counter() - due))

    latencies, late, sim_points, hop_points = [], [], [], []
    failed = path_misses = 0
    problems = []
    last_received = start
    for request_id, op, due, lateness in sent:
        late.append(lateness)
        answer = conn.wait(request_id, due + REQUEST_TIMEOUT_S)
        if answer is None:
            failed += 1
            continue
        received, document = answer
        last_received = max(last_received, received)
        if not document.get("ok"):
            code = (document.get("error") or {}).get("code")
            if code in common.PATH_MISSES:
                path_misses += 1
                latencies.append(received - due)
            else:
                failed += 1
            continue
        result = document["result"]
        if "sim_time" not in result:
            problems.append(f"{op} response has no sim_time")
            failed += 1
            continue
        latencies.append(received - due)
        sim_points.append((received, result["sim_time"]))
        if op == "metrics":
            hops = result["metrics"].get("port.tx_packets", {}).get("value")
            hop_points.append((received, hops or 0))
        crashed = (result.get("driver") or {}).get("crashed")
        if crashed:
            problems.append(f"kernel crashed while serving: {crashed}")
    if len(hop_points) < 2:
        raise BenchError(f"only {len(hop_points)} metrics requests "
                         f"answered")
    if [sim for _, sim in sorted(sim_points)] != sorted(
            sim for _, sim in sim_points):
        problems.append("simulated time ran backwards")
    (t_first, hops_first), (t_last, hops_last) = min(hop_points), max(
        hop_points)
    return {
        "attempted": count, "failed": failed, "path_misses": path_misses,
        "problems": sorted(set(problems)), "latencies": latencies,
        "late": late, "run_s": last_received - start,
        # Packet-hops the kernel simulated per wall second, between the
        # first and the last metrics scrape of the window.
        "hops_per_s": (hops_last - hops_first) / (t_last - t_first),
    }


def serve_session(seed: int, window_s: float, traced: bool) -> dict:
    """Start a server, wait for ready, drive the window, shut down."""
    server = ServerProcess(seed, traced)
    try:
        setup_s, endpoints = server.connect_when_ready()
        stream = open_loop(server.conn, endpoints, seed, window_s)
        stream["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        lines = server.shutdown()
    if server.proc.returncode != 0:
        stream["problems"].append(
            f"server exited {server.proc.returncode}: "
            + " | ".join(server.stderr[-3:]))
    stream["setup_s"] = setup_s
    if traced:
        from serve_traced import TRACE_PREFIX
        traces = [line for line in lines if line.startswith(TRACE_PREFIX)]
        if not traces:
            raise BenchError("traced server printed no trace: "
                             + " | ".join(server.stderr[-5:]))
        stream["trace"] = json.loads(traces[-1][len(TRACE_PREFIX):])
    return stream


def serve_end_to_end(seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SERVE_SETUPS - 1):
        server = ServerProcess(seed, traced=False)
        try:
            setups.append(server.connect_when_ready()[0])
        finally:
            server.shutdown()
    stream = serve_session(seed, seconds, traced=False)
    setups.append(stream["setup_s"])
    latencies = [s * 1e3 for s in stream["latencies"]]
    attempted = stream["attempted"]
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "run_s": stream["run_s"],
            "peak_rss_mb": stream["peak_rss_mb"],
            "ok_share": (attempted - stream["failed"]) / attempted,
            "p50_ms": common.percentile(latencies, 50),
            "p90_ms": common.percentile(latencies, 90),
        },
        "samples": {"setup_s": setups},
        "sample_counts": {"p50_ms": len(latencies),
                          "p90_ms": len(latencies)},
        "attempted": attempted, "failed": stream["failed"],
        "failures": stream["problems"],
        "notes": [
            f"{stream['path_misses']} path queries answered "
            f"no-path/unknown-dsn under churn (not failures)",
            "tail latency: " + ", ".join(
                f"p{q}={common.percentile(latencies, q):.2f} ms"
                for q in (99, 99.9)),
            f"kernel speed while serving: {stream['hops_per_s']:.0f} "
            f"packet-hops/s",
        ],
    }


def serve_traced(seed: int, seconds: float) -> dict:
    half = max(1.0, seconds / 2)
    plain = serve_session(seed, half, traced=False)
    traced = serve_session(seed, half, traced=True)
    trace = traced["trace"]
    layers = layer_metrics(trace["counts"], trace["layers"])
    timings = common.DriverTimings()
    timings.exec_s, timings.wait_s = trace["exec_s"], trace["wait_s"]
    layers.update(timings.summary(traced["late"]))
    # The window has a fixed length, so compare kernel speed instead.
    layers["trace.overhead"] = plain["hops_per_s"] / traced["hops_per_s"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {
        "metrics": layers, "samples": {}, "attempted": attempted,
        "failed": failed,
        "failures": plain["problems"] + traced["problems"],
    }


# -- reporting ---------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mesh64":
        return (serve_traced if trace else serve_end_to_end)(seed, seconds)
    if trace:
        return batch_traced(workload, seed)
    return batch_end_to_end(workload, seed, seconds)


def spread(values: list) -> str:
    """Quartile spread as a share of the median, and the sample count."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    share = (q3 - q1) / mid if mid else 0.0
    return f"spread {share:.1%} n={len(values)}"


def report(workload: str, result: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    missing = [name for name in units if name not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print(f"{workload} ({'per-layer, traced' if trace else 'end to end'}):")
    for name, unit in units.items():
        value = result["metrics"][name]
        samples = result["samples"].get(name)
        count = result.get("sample_counts", {}).get(name)
        extra = (f"  ({spread(samples)})" if samples
                 else f"  (n={count})" if count else "")
        print(f"  {name:<28s} {value:>14.6g} {unit}{extra}")
    for note in result.get("notes", []):
        print(f"  note: {note}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    return {name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured wall seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"benchmark: no program sources at {common.SRC}",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        try:
            result = measure(workload, args.seed, args.seconds, trace)
            metrics[workload] = report(workload, result, trace)
        except BenchError as exc:
            print(f"benchmark: {workload}: {exc}", file=sys.stderr)
            return 1
        correct = correct and not result["failures"]
        attempted += result["attempted"]
        failed += result["failed"]
    if len(workloads) == 1:
        metrics = metrics[workloads[0]]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
