"""What the benchmark measures: mechanisms, workloads and metric names.

This module imports nothing from the program under test, so the entry
point can read it (and refuse to run) in a tree that has no ``src/``.
``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: The mechanisms a caller can pick, in canonical order.
MECHS = ("posix_spawn", "fork_exec", "forkserver", "forkserver-pool",
         "template", "gateway", "xproc", "spawn_batch")

#: The yardstick measured beside them in every round: the same child
#: through the standard library's ``os.posix_spawn`` and ``os.waitpid``,
#: with none of the program's code on the path.  The end-to-end metrics
#: are each mechanism's median as a multiple of its median.
REFERENCE = "raw"

#: Mechanisms whose layer has a public spawn call to time without a
#: builder above it, with the per-layer names of that call's spans.
DIRECT = {
    "forkserver": ("forkserver.direct_spawn_us",
                   "forkserver.direct_wait_us"),
    "forkserver-pool": ("forkserver_pool.direct_spawn_us",
                        "forkserver_pool.direct_wait_us"),
    "template": ("templates.direct_lease_us", None),
    "gateway": ("gateway.direct_spawn_us", "gateway.direct_wait_us"),
    "xproc": ("xproc.direct_launch_us", None),
}

WORKLOADS = ("noop", "piped-c2")

#: Program counters that mean a request was retried or degraded; in the
#: traced run each one counts as a failed operation.
DEGRADE_COUNTERS = ("spawn_retry", "fallback", "breaker_open",
                    "ambiguous_loss", "gateway_retry", "gateway_reconnect",
                    "gateway_internal_errors")

#: (name, unit, better) of every end-to-end metric (untraced run).
END_TO_END: List[Tuple[str, str, str]] = (
    [(f"{mech}.p50_vs_raw", "x", "lower") for mech in MECHS]
    + [("setup_s", "s", "lower"), ("success_ratio", "ratio", "higher")])


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [(f"{mech}.p50_us", "us", "lower")
            for mech in MECHS + (REFERENCE,)]
    for mech in MECHS:
        for span in ("build", "launch", "drain", "wait"):
            rows.append((f"{mech}.{span}_us", "us", "lower"))
        rows.append((f"{mech}.trace_overhead_pct", "%", "lower"))
    rows.append(("core.builder_self_us", "us", "lower"))
    for spawn_name, wait_name in DIRECT.values():
        rows.append((spawn_name, "us", "lower"))
        if wait_name:
            rows.append((wait_name, "us", "lower"))
    rows += [
        ("forkserver.encode_send_us", "us", "lower"),
        ("forkserver.helper_fork_us", "us", "lower"),
        ("forkserver.reply_us", "us", "lower"),
        ("framecache.hit_ratio", "ratio", "higher"),
        ("framecache.lookups", "count", "higher"),
        ("forkserver_pool.dispatch_self_us", "us", "lower"),
        ("pool.workers_booted", "count", "lower"),
        ("template.lease_hit_ratio", "ratio", "higher"),
        ("template.lease_attempts", "count", "higher"),
        ("gateway.hop_self_us", "us", "lower"),
        ("gateway.wait_self_us", "us", "lower"),
        ("gateway.internal_errors", "count", "lower"),
        ("xproc.stages_per_spawn", "count", "lower"),
        ("xproc.procs_retained_per_spawn", "count", "lower"),
        ("policy.degraded_ops", "count", "lower"),
        ("helper_procs", "count", "lower"),
        ("helper_rss_mib", "MiB", "lower"),
        ("parent_rss_mib", "MiB", "lower"),
        ("obs.trace_overhead_pct", "%", "lower"),
    ]
    return rows


#: (name, unit, better) of every per-layer metric (traced run).
PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

UNITS: Dict[str, str] = {name: unit for name, unit, _ in
                         END_TO_END + PER_LAYER}
