"""``repro serve`` with per-layer tracing, for the benchmark's traced run.

    python3 perfbench/serve_traced.py serve --topology mesh64 --churn ...

Takes the ``repro`` command line unchanged.  Before the service
starts it gives every thread a profiler, times every command the
simulation driver runs, and tracks output-queue depth; when the
service shuts down it prints one line ``PERFBENCH_TRACE <json>`` with
the work counts and per-layer numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_program_sources()

#: Prefix of the line that carries the trace to the benchmark.
TRACE_PREFIX = "PERFBENCH_TRACE "


def main(argv) -> int:
    import repro.service as service_package
    from repro.cli import main as cli_main

    profiler = common.ThreadProfiler()
    profiler.patch_threads()
    timings = common.DriverTimings().install()
    peak = common.track_queue_depth()
    handles = []
    start_service = service_package.start_service

    def start_and_keep(*args, **kwargs):
        handle = start_service(*args, **kwargs)
        handles.append(handle)
        return handle

    service_package.start_service = start_and_keep
    profile = profiler.new_profile()
    profile.enable()
    try:
        code = cli_main(argv)
    finally:
        profile.disable()
        profiler.unpatch_threads()
    handle = handles[0]
    counts = common.work_counts(handle.setup)
    traffic = getattr(handle.driver, "traffic", None)
    traffic_stats = traffic.stats() if traffic is not None else {}
    counts["workloads.app_injected"] = traffic_stats.get(
        "packets_injected", 0)
    counts["workloads.app_delivered"] = traffic_stats.get(
        "packets_delivered", 0)
    trace = {
        "counts": counts,
        "layers": common.layer_metrics(profiler.stats()),
        "exec_s": timings.exec_s,
        "wait_s": timings.wait_s,
    }
    trace["layers"]["fabric.max_queued"] = peak[0]
    print(TRACE_PREFIX + json.dumps(trace), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
