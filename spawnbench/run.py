"""Spawn-latency benchmark: spawn() → wait() per mechanism, per workload.

Run from the repository root::

    python3 spawnbench/run.py --workload noop --seed 1 --seconds 45 --trace 0

Each mechanism (see ``spec.MECHS``) runs in its own fresh interpreter
(``worker.py``), and so does the yardstick (``spec.REFERENCE``): the
same child through ``os.posix_spawn`` alone.  A run cold-boots every
mechanism ``SETUP_REPS`` times, one at a time, and leaves it warm; then
come ``ROUNDS`` rounds in which every mechanism measures once, one after
another in an order the seed shuffles, each for an equal share of
``--seconds``, with the yardstick measuring for an eighth of a share
after each of them.  Each median is pooled from all of its rounds; each
round's host steal time (``/proc/stat``) is printed beside it.

The end-to-end metrics divide each mechanism's median by the
yardstick's.  On a shared host every spawn path speeds up and slows
down together by 15-20% over minutes; the multiple of a raw spawn
measured in the same rounds stays put, and it moves only when the
program's own path does.  The absolute medians are printed in the
table and are per-layer metrics of the traced run.

Human-readable lines (host confounders, per-round steal, load and
memory, per-mechanism sample count, median and tail) come first; the
last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (``spec.END_TO_END``/``spec.PER_LAYER``).
Without the program's sources beside it, the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import (DEGRADE_COUNTERS, DIRECT, MECHS, PER_LAYER,  # noqa: E402
                  REFERENCE, UNITS, WORKLOADS)

#: Every interpreter a run starts: one per mechanism, and the yardstick.
MEMBERS = MECHS + (REFERENCE,)

#: Seconds a whole run may take before the benchmark gives up.
RUN_LIMIT_S = 170.0
#: Cold boots per mechanism and run; ``setup_s`` takes their median.
SETUP_REPS = 5
#: Seconds of unsampled warm-up per mechanism after its last cold boot.
WARMUP_S = 0.1
#: Rounds per run: every mechanism measures once per round, in a fresh
#: seeded order, so a slow spell of the host is spread over all of them.
ROUNDS = 40
#: Where the program's temporary sockets go, so nothing is written
#: outside the checkout (used only when the socket path stays short).
TMP_DIR = os.path.join(ROOT, ".spawnbench-tmp")
UNIX_PATH_MAX = 107


def host_info() -> Dict[str, object]:
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as handle:
            text = handle.read()
        thp = text[text.index("[") + 1:text.index("]")]
    except (OSError, ValueError):
        thp = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "page_size": os.sysconf("SC_PAGE_SIZE"),
            "thp": thp, "kernel": platform.release(),
            "python": platform.python_version()}


def cpu_times() -> Tuple[float, float]:
    """(monotonic seconds, host steal seconds summed over CPUs)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return time.monotonic(), int(fields[8]) / os.sysconf("SC_CLK_TCK")


def steal_pct(before: Tuple[float, float], after: Tuple[float, float]
              ) -> float:
    """Share of CPU time the hypervisor took away between two readings."""
    wall = (after[0] - before[0]) * len(os.sched_getaffinity(0))
    return 100 * (after[1] - before[1]) / wall if wall > 0 else 0.0


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    # mkdtemp adds ~32 characters of socket path under TMPDIR.
    if len(TMP_DIR) + 40 <= UNIX_PATH_MAX:
        os.makedirs(TMP_DIR, exist_ok=True)
        env["TMPDIR"] = TMP_DIR
    return env


class Worker:
    """One mechanism's interpreter, in its own process group, driven one
    command at a time (see ``worker.py``)."""

    def __init__(self, mech: str, args, env):
        self.mech = mech
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--mech", mech, "--workload", args.workload,
             "--seed", str(args.seed), "--trace", str(args.trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            start_new_session=True, text=True)

    def call(self, deadline: float, op: str, **fields) -> dict:
        self.proc.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(
                f"{self.mech}: worker " + ("overran the run's time limit"
                                           if not ready else
                                           f"died ({self.proc.poll()})"))
        return json.loads(line)

    def close(self, deadline: float) -> bool:
        """End the worker; True if anything of its group had to be
        killed (a process left behind, or a worker that would not stop)."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            clean = self.proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired):
            clean = False
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            clean = False
        except ProcessLookupError:
            pass
        self.proc.wait()
        return not clean


def med(values) -> float:
    """Median, 0.0 for no values (every operation failed: the run is
    already marked incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(ordered: List[float]):
    """The highest percentile with at least ten samples beyond it, and
    its value, or ``(None, None)`` below 20 samples."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) * (1 - pct / 100) >= 10:
            return pct, ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return None, None


def merge_rounds(parts: Dict[str, list]) -> dict:
    """One mechanism's worker replies: its cold ``boots``, its measured
    ``rounds`` and its ``finish``.

    Spawn timings are pooled from every round; counts and errors come
    from every reply."""
    rounds = parts["rounds"]
    merged = {key: [] for key in ("untraced_ns", "traced", "direct",
                                  "stamps")}
    for part in rounds:
        for key in merged:
            merged[key] += part.get(key, [])
    replies = [reply for group in parts.values() for reply in group]
    merged["setup_s"] = [boot["setup_s"] for boot in parts["boots"]]
    merged["errors"] = [error for reply in replies
                        for error in reply["errors"]]
    merged["counters"] = {}
    for part in rounds:
        for name, value in part.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    for key in ("attempted", "failed"):
        merged[key] = sum(reply[key] for reply in replies)
    merged["launches"] = sum(part.get("launches", 0) for part in rounds)
    finish = parts["finish"][0]
    merged["leaked"] = finish["leftover_procs"] + finish["threads_left"]
    kept, launched = finish.get("xproc_retained", (0, 0))
    merged["retained_per_spawn"] = kept / max(1, launched)
    merged["workers_booted"] = finish.get("workers_booted", 0)
    merged["helper_procs"] = finish["helpers"]["procs"]
    merged["helper_rss_mib"] = finish["helpers"]["rss_mib"]
    merged["rss_mib"] = med(part["memory"]["rss_mib"] for part in rounds)
    return merged


def end_to_end(merged: Dict[str, dict]) -> Dict[str, float]:
    raw = med(merged[REFERENCE]["untraced_ns"]) or 1
    metrics = {f"{mech}.p50_vs_raw": med(merged[mech]["untraced_ns"]) / raw
               for mech in MECHS}
    metrics["setup_s"] = sum(med(merged[mech]["setup_s"]) for mech in MECHS)
    attempted = sum(m["attempted"] for m in merged.values())
    failed = sum(m["failed"] for m in merged.values())
    metrics["success_ratio"] = (attempted - failed) / max(1, attempted)
    return metrics


def per_layer(merged: Dict[str, dict]) -> Dict[str, float]:
    """Layer medians from the traced samples; self times are
    differences of medians within this run."""
    layers: Dict[str, float] = {
        f"{mech}.p50_us": med(merged[mech]["untraced_ns"]) / 1e3
        for mech in MEMBERS}
    for mech in MECHS:
        m = merged[mech]
        for index, span in enumerate(("build", "launch", "drain", "wait")):
            layers[f"{mech}.{span}_us"] = med(
                row[index] for row in m["traced"]) / 1e3
        base = med(m["untraced_ns"]) or 1
        layers[f"{mech}.trace_overhead_pct"] = (
            med(sum(row) for row in m["traced"]) / base - 1) * 100
    for mech, (spawn_name, wait_name) in DIRECT.items():
        rows = merged[mech]["direct"]
        layers[spawn_name] = med(row[1] for row in rows) / 1e3
        if wait_name:
            layers[wait_name] = med(row[3] for row in rows) / 1e3
    stamps = merged["forkserver"]["stamps"]
    for name, start, end in (("encode_send", 0, 1), ("helper_fork", 1, 2),
                             ("reply", 2, 3)):
        layers[f"forkserver.{name}_us"] = med(
            row[end] - row[start] for row in stamps) / 1e3

    def total(name: str) -> int:
        return sum(m["counters"].get(name, 0) for m in merged.values())

    hits = total("frame_cache_hits")
    lookups = hits + total("frame_cache_misses")
    template = merged["template"]["counters"]
    leases = template.get("template_lease", 0)
    attempts = leases + template.get("template_lease_miss", 0)
    xproc = merged["xproc"]
    pool_spawn = layers["forkserver_pool.direct_spawn_us"]
    layers.update({
        "core.builder_self_us": layers["forkserver-pool.launch_us"]
        - pool_spawn,
        "forkserver_pool.dispatch_self_us": pool_spawn
        - layers["forkserver.direct_spawn_us"],
        "gateway.hop_self_us": layers["gateway.direct_spawn_us"]
        - pool_spawn,
        "gateway.wait_self_us": layers["gateway.direct_wait_us"]
        - layers["forkserver_pool.direct_wait_us"],
        "framecache.hit_ratio": hits / lookups if lookups else 0.0,
        "framecache.lookups": lookups,
        "pool.workers_booted": merged["forkserver-pool"]["workers_booted"],
        "template.lease_hit_ratio": leases / attempts if attempts else 0.0,
        "template.lease_attempts": attempts,
        "gateway.internal_errors": merged["gateway"]["counters"].get(
            "gateway_internal_errors", 0),
        "xproc.stages_per_spawn": xproc["counters"].get("xproc_stage", 0)
        / max(1, xproc["launches"]),
        "xproc.procs_retained_per_spawn": xproc["retained_per_spawn"],
        "policy.degraded_ops": sum(total(name) for name in DEGRADE_COUNTERS),
        "helper_procs": sum(m["helper_procs"] for m in merged.values()),
        "helper_rss_mib": sum(m["helper_rss_mib"] for m in merged.values()),
        "parent_rss_mib": med(m["rss_mib"] for m in merged.values()),
        "obs.trace_overhead_pct": med(
            layers[f"{mech}.trace_overhead_pct"] for mech in MECHS),
    })
    return {name: layers[name] for name, _, _ in PER_LAYER}


def report(merged: Dict[str, dict]) -> None:
    """The human-readable table: samples, median, tail, setup."""
    print(f"# {'mechanism':<16} {'n':>6} {'p50_us':>10} {'tail':>6} "
          f"{'tail_us':>10} {'setup_ms':>9}")
    for mech in MEMBERS:
        ordered = sorted(t / 1e3 for t in merged[mech]["untraced_ns"])
        pct, value = tail(ordered)
        print(f"# {mech:<16} {len(ordered):>6} {med(ordered):>10.1f} "
              f"{'-' if pct is None else f'p{pct:g}':>6} "
              f"{'-' if value is None else f'{value:.1f}':>10} "
              f"{med(merged[mech]['setup_s']) * 1e3:>9.1f}")
    for mech, m in merged.items():
        for error in m["errors"]:
            print(f"# error {mech}: {error}")
        if m["leaked"]:
            print(f"# error {mech}: {m['leaked']} processes or threads "
                  f"left behind")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="spawn() -> wait() latency per mechanism")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "core",
                                       "__init__.py")):
        print("spawnbench: the program's sources (src/repro) are not "
              "beside the benchmark; nothing to measure", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rng = random.Random(args.seed)
    rounds = ROUNDS
    share = args.seconds / (len(MEMBERS) * rounds)
    print(f"# spawnbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} rounds={rounds}")
    print(f"# host {json.dumps(host_info())}")
    parts = {mech: {"boots": [], "warmup": [], "rounds": [], "finish": []}
             for mech in MEMBERS}
    env = worker_env()
    workers = {mech: Worker(mech, args, env) for mech in MEMBERS}
    unclean = []

    def each(op: str, group: str, members=MEMBERS, **fields) -> None:
        """``op`` on every worker, one at a time, in a seeded order."""
        order = list(members)
        rng.shuffle(order)
        for mech in order:
            parts[mech][group].append(workers[mech].call(deadline, op,
                                                         **fields))

    def phase(mech: str, seconds: float) -> None:
        """One round of ``mech``, with the host's steal and load."""
        load_before, times = os.getloadavg(), cpu_times()
        part = workers[mech].call(deadline, "measure", seconds=seconds)
        part["steal_pct"] = steal_pct(times, cpu_times())
        parts[mech]["rounds"].append(part)
        print("# phase " + json.dumps(
            {"mech": mech, "p50_us": med(part["untraced_ns"]) / 1e3,
             "steal_pct": part["steal_pct"], "load_before": load_before,
             "load_after": os.getloadavg(), **part["memory"]}))

    try:
        for _ in range(SETUP_REPS):
            each("boot", "boots", MECHS)
        each("measure", "warmup", seconds=WARMUP_S)
        for _ in range(rounds):
            order = list(MECHS)
            rng.shuffle(order)
            for mech in order:
                # The yardstick measures after every mechanism, an eighth
                # of a share each time, so its median spans the same
                # stretches of the run as theirs.
                for member, seconds in ((mech, share),
                                        (REFERENCE, share / len(MECHS))):
                    phase(member, seconds)
        each("finish", "finish")
    except (RuntimeError, ValueError) as exc:
        print(f"spawnbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for mech, worker in workers.items():
            if worker.close(deadline + 5):
                unclean.append(mech)
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    merged = {mech: merge_rounds(parts[mech]) for mech in MEMBERS}
    report(merged)
    metrics = per_layer(merged) if args.trace else end_to_end(merged)
    failed = sum(m["failed"] for m in merged.values())
    leaked = sum(m["leaked"] for m in merged.values()) + len(unclean)
    if unclean:
        print(f"# error workers not stopped cleanly: {', '.join(unclean)}")
    print(f"# {time.monotonic() - started:.1f}s wall")
    print(json.dumps({
        "correct": failed == 0 and not leaked,
        "attempted": sum(m["attempted"] for m in merged.values()),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
