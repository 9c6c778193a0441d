"""One iteration of a batch workload, in a fresh interpreter.

    python3 perfbench/batch.py --workload discover-dragonfly992 --seed 3
    python3 perfbench/batch.py --workload load-mesh16 --seed 3 --trace

Builds the workload's inputs from the seed, sets the simulation up,
runs the timed operation, checks the outputs and prints one JSON
document as its last line.  ``--trace`` profiles the iteration per
layer (see :mod:`common`) and ends with a short open-loop probe of the
service read path on the final state; without it nothing but a stamp
per database insertion is added to the program.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_program_sources()

#: The ROADMAP's 992-device scale point: Swapped Dragonfly D3(8, 62).
DRAGONFLY = "dragonfly-k8m62"
#: The Fig. 6 mesh of the load workload and its application traffic.
MESH = "mesh16"
LOAD = 0.3
PACKET_BYTES = 64
#: Saturation guard: below this share of injected packets delivered,
#: the load run measures queue growth instead of the change protocol.
#: Below saturation 84-94% arrive, depending on the removed switch.
MIN_DELIVERED_RATIO = 0.7

#: After an untraced iteration, more set-ups are timed until at least
#: this many have run and this much wall time has gone into them;
#: ``setup_s`` is the median of all, the iteration's own included.
EXTRA_SETUPS = 4
SETUP_BUDGET_S = 0.25

#: Open-loop probe of the service read path run after a traced batch
#: iteration: request count and fixed rate (requests per second).
PROBE_REQUESTS = 60
PROBE_RATE = 100.0

BATCH_WORKLOADS = ("discover-dragonfly992", "load-mesh16")


def stamp_database_inserts() -> list:
    """Record the wall time at which each device enters the FM database."""
    from repro.manager.database import TopologyDatabase

    stamps: list = []
    original = TopologyDatabase.add_device

    def add_device(self, record):
        stamps.append(time.perf_counter())
        return original(self, record)

    TopologyDatabase.add_device = add_device
    return stamps


def run_discover(seed: int, operate) -> dict:
    """Idle parallel initial discovery of the 992-device dragonfly."""
    from repro.analysis.model import expected_packets
    from repro.experiments.runner import (
        build_simulation,
        database_matches_fabric,
        run_until_ready,
    )
    from repro.topology.registry import resolve_topology

    def set_up():
        spec = resolve_topology(DRAGONFLY)
        # The seed picks which endpoint hosts the FM; the packet count
        # of a fully active fabric does not depend on it.
        host = random.Random(seed).choice(list(spec.endpoints))
        return spec, host, build_simulation(spec, algorithm="parallel",
                                            fm_host=host)

    t0 = time.perf_counter()
    spec, host, setup = operate(set_up)
    t1 = time.perf_counter()
    stats = operate(lambda: run_until_ready(setup))
    t2 = time.perf_counter()

    failures = []
    if stats.devices_found != spec.total_devices:
        failures.append(f"found {stats.devices_found} of "
                        f"{spec.total_devices} devices")
    if not database_matches_fabric(setup):
        failures.append("database does not match the fabric")
    expected = expected_packets(spec)
    if stats.requests_sent != expected:
        failures.append(f"{stats.requests_sent} PI-4 requests, analytic "
                        f"model expects {expected}")
    return {"setup": setup, "setup_s": t1 - t0, "run_start": t1,
            "run_s": t2 - t1, "failures": failures,
            "app_injected": 0, "app_delivered": 0,
            "rebuild": {"fm_host": host},
            "input": {"topology": DRAGONFLY, "fm_host": host}}


def run_load(seed: int, operate) -> dict:
    """The Fig. 6 change protocol on mesh16 under 30% Poisson traffic."""
    import repro.experiments.load as load_module
    from repro.experiments.scenario import Scenario
    from repro.workloads.traffic import TrafficSpec

    built = {}
    original = load_module.build_simulation

    def build_simulation(*args, **kwargs):
        setup = original(*args, **kwargs)
        built["setup"] = setup
        built["at"] = time.perf_counter()
        return setup

    load_module.build_simulation = build_simulation
    scenario = Scenario(
        kind="load", topology=MESH, seed=seed,
        traffic=TrafficSpec(load=LOAD, packet_bytes=PACKET_BYTES).to_dict(),
    )
    t0 = time.perf_counter()
    result = operate(scenario.run)
    t2 = time.perf_counter()
    load_module.build_simulation = original

    failures = []
    if not result.database_correct:
        failures.append("database does not match the fabric")
    injected = result.packets_injected
    delivered = result.packets_delivered
    ratio = delivered / injected if injected else 0.0
    if ratio < MIN_DELIVERED_RATIO:
        failures.append(f"saturated: delivered {delivered} of {injected} "
                        f"packets ({ratio:.1%} < "
                        f"{MIN_DELIVERED_RATIO:.0%})")
    return {"setup": built["setup"], "setup_s": built["at"] - t0,
            "run_start": built["at"], "run_s": t2 - built["at"],
            "failures": failures,
            "app_injected": injected, "app_delivered": delivered,
            "rebuild": {},
            "input": {"topology": MESH, "victim": result.changed_device,
                      "load": LOAD, "packet_bytes": PACKET_BYTES}}


def time_setups(topology: str, **kwargs) -> list:
    """Wall seconds of more set-ups of ``topology``."""
    from repro.experiments.runner import build_simulation
    from repro.topology.registry import resolve_topology

    times = []
    while len(times) < EXTRA_SETUPS or sum(times) < SETUP_BUDGET_S:
        gc.collect()  # start each from a heap without the last fabric
        t0 = time.perf_counter()
        build_simulation(resolve_topology(topology), algorithm="parallel",
                         **kwargs)
        times.append(time.perf_counter() - t0)
    return times


def service_probe(setup, seed: int) -> tuple:
    """Open-loop read requests through a driver on the final state.

    Returns the ``service.*`` metrics and the count of failed requests.
    """
    from repro.service.api import ApiError, handler_for
    from repro.service.driver import SimulationDriver

    timings = common.DriverTimings().install()
    endpoints = sorted(r.dsn for r in setup.fm.database.endpoints())
    src, dst = random.Random(seed).sample(endpoints, 2)
    driver = SimulationDriver(setup).start()
    late, futures = [], []
    start = time.perf_counter() + 0.01
    try:
        for index in range(PROBE_REQUESTS):
            op = common.QUERY_MIX[index % len(common.QUERY_MIX)]
            fn, _needs_sim = handler_for(op)
            params = {"src": src, "dst": dst} if op == "path" else {}
            due = start + index / PROBE_RATE
            common.sleep_until(due)
            late.append(time.perf_counter() - due)
            futures.append(driver.submit(
                lambda s, fn=fn, params=params: fn(s, driver, params)))
        errors = 0
        for future in futures:
            try:
                future.result(timeout=30)
            except ApiError as exc:
                if exc.code not in common.PATH_MISSES:
                    errors += 1
    finally:
        driver.stop()
        timings.uninstall()
    return timings.summary(late), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=BATCH_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    stamps = stamp_database_inserts()
    profiler = peak = profile = None
    if args.trace:
        profiler = common.ThreadProfiler()
        profile = profiler.new_profile()
        peak = common.track_queue_depth()

    def operate(fn):
        """Run one phase of the iteration, profiled when tracing."""
        if profile is None:
            return fn()
        profile.enable()
        try:
            return fn()
        finally:
            profile.disable()

    runner = run_discover if args.workload == BATCH_WORKLOADS[0] \
        else run_load
    outcome = runner(args.seed, operate)
    setup = outcome.pop("setup")
    run_start = outcome.pop("run_start")
    # Device visibility: wall ms from the start of the timed operation
    # to each database insertion (inserts during set-up count as 0).
    outcome["visibility_ms"] = [max(0.0, t - run_start) * 1e3
                                for t in stamps]
    outcome["peak_rss_mb"] = common.peak_rss_mb()

    counts = operate(lambda: common.work_counts(setup))
    counts["workloads.app_injected"] = outcome.pop("app_injected")
    counts["workloads.app_delivered"] = outcome.pop("app_delivered")
    outcome["counts"] = counts

    rebuild = outcome.pop("rebuild")
    if not args.trace:
        del setup
        setups = [outcome["setup_s"]] + time_setups(
            outcome["input"]["topology"], **rebuild)
        outcome["setup_s"] = statistics.median(setups)
    else:
        layers = common.layer_metrics(profiler.stats())
        layers["fabric.max_queued"] = peak[0]
        service, errors = service_probe(setup, args.seed)
        layers.update(service)
        if errors:
            outcome["failures"].append(
                f"{errors} service probe requests failed")
        outcome["layers"] = layers
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
