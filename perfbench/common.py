"""Shared helpers of the benchmark: layer attribution, work counts, stats.

Nothing here changes the program under test.  Per-layer numbers come
from timing calls into the ``repro`` subpackages from outside: a
``cProfile`` profiler per thread gives each function's self time and
call count, and the self times of a subpackage's functions add up to
that layer's self time (a span's duration minus the time its child
spans cover, at function granularity).
"""

from __future__ import annotations

import cProfile
import functools
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The ``repro`` subpackages the benchmark attributes time to.
LAYERS = ("sim", "fabric", "protocols", "manager", "routing",
          "capability", "topology", "workloads", "service", "obs",
          "experiments")

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_present() -> bool:
    """Whether the program's sources sit next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_sources() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def peak_rss_mb() -> float:
    """Peak resident set of this process (MiB; ``ru_maxrss`` is KiB)."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


# -- layer attribution ----------------------------------------------------------

def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` subpackage a source file belongs to, if any."""
    parts = Path(filename).parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and index + 1 < len(parts):
            layer = parts[index + 1]
            return layer if layer in LAYERS else None
    return None


class ThreadProfiler:
    """One ``cProfile`` profiler per thread, merged on demand.

    ``cProfile`` only sees the thread that enabled it, so
    :meth:`patch_threads` wraps :meth:`threading.Thread.run` to give
    every thread started afterwards its own profiler.
    """

    def __init__(self):
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._original_run = None

    def new_profile(self) -> cProfile.Profile:
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        return profile

    def patch_threads(self) -> None:
        original = threading.Thread.run
        profiler = self

        @functools.wraps(original)
        def run(thread_self):
            profile = profiler.new_profile()
            profile.enable()
            try:
                original(thread_self)
            finally:
                profile.disable()

        self._original_run = original
        threading.Thread.run = run

    def unpatch_threads(self) -> None:
        if self._original_run is not None:
            threading.Thread.run = self._original_run
            self._original_run = None

    def stats(self) -> Dict[tuple, tuple]:
        """Merged raw stats: ``(file, line, func) -> (cc, nc, tt, ct)``."""
        merged: Dict[tuple, list] = {}
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            profile.create_stats()
            for key, (cc, nc, tt, ct, _callers) in profile.stats.items():
                entry = merged.setdefault(key, [0, 0, 0.0, 0.0])
                entry[0] += cc
                entry[1] += nc
                entry[2] += tt
                entry[3] += ct
        return {key: tuple(value) for key, value in merged.items()}


def layer_self_seconds(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Sum of function self times per layer (seconds)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, _func), (_cc, _nc, tt, _ct) in stats.items():
        layer = layer_of(filename)
        if layer is not None:
            totals[layer] += tt
    return totals


def calls(stats: Dict[tuple, tuple], path_suffix: str,
          funcs: Iterable[str]) -> int:
    """Total calls of the functions ``funcs`` defined in ``path_suffix``."""
    wanted = set(funcs)
    suffix = path_suffix.replace("/", os.sep)
    return sum(
        value[1] for (filename, _line, func), value in stats.items()
        if func in wanted and filename.endswith(suffix)
    )


def cumulative(stats: Dict[tuple, tuple], path_suffix: str,
               func: str) -> tuple:
    """``(calls, cumulative seconds)`` of one function."""
    suffix = path_suffix.replace("/", os.sep)
    n, seconds = 0, 0.0
    for (filename, _line, name), (_cc, nc, _tt, ct) in stats.items():
        if name == func and filename.endswith(suffix):
            n += nc
            seconds += ct
    return n, seconds


# -- work counts -----------------------------------------------------------------

#: Port counters that count a packet thrown away by the fabric.
DROP_COUNTERS = ("tx_dropped_no_link", "tx_dropped_link_down",
                 "rx_dropped", "rx_crc_dropped", "rx_lost")


def work_counts(setup) -> dict:
    """Deterministic work counts of a finished run, read after the fact.

    Reading counters never schedules events or draws randomness, so
    this is the same for a traced and an untraced run of one seed.
    """
    from repro.obs.metrics import MetricsRegistry

    scraped = MetricsRegistry().scrape_setup(setup).collect()

    def value(name: str) -> int:
        return int(scraped.get(name, {}).get("value", 0))

    fm = setup.fm
    history = fm.history
    counters = fm.counters.asdict()
    return {
        # Scheduling consumes one id per event; reading the next id
        # after the run counts every event ever scheduled.
        "sim.events": next(setup.env._eid),
        "fabric.hops": value("port.tx_packets"),
        "fabric.port_sends": value("port.tx_queued")
        + value("port.tx_dropped_no_link"),
        "fabric.drops": sum(value(f"port.{name}") for name in DROP_COUNTERS),
        "protocols.pi4_requests": sum(s.requests_sent for s in history),
        "protocols.pi4_completions": sum(
            s.completions_received for s in history),
        "protocols.timeouts": int(counters.get("timeouts", 0)),
        "protocols.retries": int(counters.get("retries", 0)),
        "protocols.pi5_events": int(counters.get("pi5_received", 0)),
        "manager.fm_packets": sum(s.total_packets for s in history),
        "manager.devices_found": sum(s.devices_found for s in history),
        "manager.sim_discovery_ms": sum(
            s.discovery_time for s in history
            if s.started_at is not None and s.finished_at is not None
        ) * 1e3,
    }


def layer_metrics(stats: Dict[tuple, tuple]) -> dict:
    """Per-layer numbers a profile of one run yields."""
    metrics = {f"{layer}.self_s": seconds
               for layer, seconds in layer_self_seconds(stats).items()}
    metrics["sim.cancels"] = calls(stats, "repro/sim/core.py", ["cancel"])
    metrics["routing.turn_pools"] = calls(
        stats, "repro/routing/turnpool.py", ["build_turn_pool"])
    metrics["routing.path_queries"] = calls(
        stats, "repro/routing/paths.py",
        ["db_route", "db_endpoint_routes", "fabric_route",
         "fabric_endpoint_routes"],
    ) + calls(stats, "repro/service/api.py", ["op_path"])
    metrics["manager.db_writes"] = calls(
        stats, "repro/manager/database.py",
        ["add_device", "add_link", "mark_port_down", "prune_unreachable",
         "clear"],
    )
    # The full FM extends routes during the walk and reads them back
    # to program event routes; only other managers recompute them all.
    metrics["manager.recompute_routes_s"] = sum(
        cumulative(stats, "repro/manager/database.py", name)[1]
        for name in ("extend_route", "route_to_fm", "recompute_routes")
    )
    scrapes, scrape_s = cumulative(stats, "repro/obs/metrics.py",
                                   "scrape_setup")
    metrics["obs.metrics_scrape_ms"] = (
        scrape_s / scrapes * 1e3 if scrapes else 0.0)
    metrics["topology.build_s"] = (
        cumulative(stats, "repro/topology/registry.py",
                   "resolve_topology")[1]
        + cumulative(stats, "repro/topology/spec.py", "build")[1]
    )
    return metrics


def track_queue_depth() -> list:
    """Track the deepest output queue any port reaches.

    Wraps :meth:`Port.send`; install it before the fabric is built.
    The returned one-element list holds the peak.
    """
    from repro.fabric.port import Port

    peak = [0]
    original = Port.send

    def send(self, packet):
        original(self, packet)
        depth = self.queued_packets()
        if depth > peak[0]:
            peak[0] = depth

    Port.send = send
    return peak


class DriverTimings:
    """Queue wait and execute time of every command a driver runs.

    Wraps :meth:`SimulationDriver.submit`: the wait runs from the
    submit call to the start of the command on the sim thread, and the
    execute time is the command itself (the ``service.api.op_*``
    handler for a request).
    """

    def __init__(self):
        self.wait_s: List[float] = []
        self.exec_s: List[float] = []
        self._original = None

    def install(self) -> "DriverTimings":
        from repro.service.driver import SimulationDriver

        original = SimulationDriver.submit
        wait_s, exec_s = self.wait_s, self.exec_s

        def submit(driver, fn):
            submitted = time.perf_counter()

            def timed(setup):
                began = time.perf_counter()
                wait_s.append(began - submitted)
                try:
                    return fn(setup)
                finally:
                    exec_s.append(time.perf_counter() - began)

            return original(driver, timed)

        self._original = original
        SimulationDriver.submit = submit
        return self

    def uninstall(self) -> None:
        if self._original is not None:
            from repro.service.driver import SimulationDriver
            SimulationDriver.submit = self._original
            self._original = None

    def summary(self, late_s: Sequence[float]) -> dict:
        """The ``service.*`` metrics; ``late_s`` is the sender's lateness."""
        return {
            "service.ops": len(self.exec_s),
            "service.exec_p50_ms": percentile(self.exec_s, 50) * 1e3,
            "service.exec_p99_ms": percentile(self.exec_s, 99) * 1e3,
            "service.queue_wait_p50_ms": percentile(self.wait_s, 50) * 1e3,
            "service.queue_wait_p99_ms": percentile(self.wait_s, 99) * 1e3,
            "service.send_late_p99_ms": percentile(late_s, 99) * 1e3,
        }


# -- open-loop request streams ---------------------------------------------------

#: The read mix of ``benchmarks/bench_service.py``, cycled in order.
QUERY_MIX = ("topology", "status", "path", "status", "metrics", "status")

#: Error codes a path query may legitimately return under churn.
PATH_MISSES = ("no-path", "unknown-dsn")


def sleep_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(min(remaining, 0.05))
