"""One mechanism of one workload, in a fresh interpreter.

``run.py`` starts this file once per mechanism and drives it with one
JSON command per line on stdin, answering each with one JSON line:

* ``{"op": "boot"}`` stops every service and times the way back to the
  first correct spawn → wait (a ``setup_s`` sample).  The services stay
  warm afterwards.
* ``{"op": "measure", "seconds": s}`` is one round: a short unsampled
  warm-up, then the closed loop for ``s`` seconds; with ``--trace 1``
  that time is split between an untraced loop, a loop with
  ``repro.obs.TELEMETRY`` on, and the layer's direct call.
* ``{"op": "finish"}`` counts the helper processes, stops every service
  and checks that none is left.

Between commands the worker is idle, blocked on its stdin, with nothing
of its own in flight: another mechanism's samples see only its
services' idle timers.

Usage: ``python3 worker.py --mech M --workload W --seed N --trace 0|1``
(from any directory; it finds ``src/`` beside itself).  It exits when
stdin closes.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core import get_strategy  # noqa: E402
from repro.obs import TELEMETRY  # noqa: E402

import ops  # noqa: E402
from spec import DEGRADE_COUNTERS, DIRECT  # noqa: E402

WARMUP_SHARE = 0.05  # of a round's measuring time, not sampled
MIN_OPS = 1  # per caller, even when the time is up
MAX_ERRORS = 5  # error messages kept for the report
XPROC_PROBE = 20  # launches on a fresh xproc machine, to count what it keeps


class Loop:
    """Samples and failure counts of one closed loop."""

    def __init__(self):
        self.samples: List[ops.Spans] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def count_into(self, tally: "Loop") -> None:
        """Add this loop's counts and errors (not its samples) to
        ``tally``."""
        tally.attempted += self.attempted
        tally.failed += self.failed
        tally.errors += self.errors[:MAX_ERRORS - len(tally.errors)]

    def totals(self) -> List[int]:
        return [sum(spans) for spans in self.samples]


def closed_loop(op: Callable[[], ops.Spans], callers: int, seconds: float,
                per_op: int) -> Loop:
    """``callers`` threads each run ``op`` back to back for ``seconds``."""
    deadline = time.monotonic() + seconds

    def caller(loop: Loop) -> None:
        ran = 0
        while ran < MIN_OPS or time.monotonic() < deadline:
            ran += 1
            loop.attempted += per_op
            try:
                loop.samples.append(op())
            except Exception as exc:  # every failure is counted, not fatal
                loop.failed += per_op
                if len(loop.errors) < MAX_ERRORS:
                    loop.errors.append(f"{type(exc).__name__}: {exc}")

    loops = [Loop() for _ in range(callers)]
    threads = [threading.Thread(target=caller, args=(loop,))
               for loop in loops[1:]]
    for thread in threads:
        thread.start()
    caller(loops[0])
    for thread in threads:
        thread.join()
    total = loops[0]
    for loop in loops[1:]:
        total.samples += loop.samples
        loop.count_into(total)
    return total


def cold_boot(op: Callable[[], ops.Spans], per_op: int, tally: Loop) -> float:
    """Seconds from every service stopped to the first correct op."""
    ops.shutdown_services()
    start = time.monotonic()
    for _ in range(20):
        tally.attempted += per_op
        try:
            op()
        except Exception as exc:
            tally.failed += per_op
            if len(tally.errors) < MAX_ERRORS:
                tally.errors.append(f"boot: {type(exc).__name__}: {exc}")
            continue
        return time.monotonic() - start
    raise RuntimeError(f"no correct spawn in 20 cold-boot attempts: "
                       f"{tally.errors}")


def memory_status() -> Dict[str, float]:
    """This process's RSS and ``AnonHugePages`` in MiB (smaps_rollup)."""
    fields = {}
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            parts = line.split()
            if len(parts) == 3 and parts[2] == "kB":
                fields[parts[0].rstrip(":")] = int(parts[1])
    return {"rss_mib": fields.get("Rss", 0) / 1024,
            "anon_huge_mib": fields.get("AnonHugePages", 0) / 1024}


def counter_sums() -> Dict[str, int]:
    sums: Dict[str, int] = {}
    for name, _labels, counter in TELEMETRY.metrics.counters():
        sums[name] = sums.get(name, 0) + counter.value
    return sums


def descendants() -> List[Dict[str, int]]:
    """Live (non-zombie) descendant processes, with their RSS in KiB."""
    children: Dict[int, List[int]] = {}
    states: Dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        states[int(entry)] = fields[0]
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, todo = [], list(children.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        if states.get(pid) == "Z":
            continue
        rss = 0
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        rss = int(line.split()[1])
        except OSError:
            continue
        found.append({"pid": pid, "rss_kib": rss})
    return found


def stop_everything(timeout: float = 10.0) -> int:
    """Stop every service; SIGKILL what is still alive after
    ``timeout`` seconds.  Returns how many processes had to be killed."""
    ops.shutdown_services()
    deadline = time.monotonic() + timeout
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.05)
    left = descendants()
    for proc in left:
        try:
            os.kill(proc["pid"], signal.SIGKILL)
        except ProcessLookupError:
            pass
    return len(left)


class Session:
    """One mechanism on one workload, driven a command at a time."""

    def __init__(self, mech: str, workload: str, seed: int, trace: bool):
        self.mech = mech
        self.trace = trace
        self.shape = ops.make_shape(workload, seed)
        self.per_op = ops.children_per_op(mech)
        self.op = ops.make_op(mech, self.shape)

    def boot(self) -> dict:
        """Stop every service and time the way back to a correct op; the
        services stay warm for the rounds that follow."""
        tally = Loop()
        result = {"setup_s": cold_boot(self.op, self.per_op, tally)}
        return self._counted(result, tally)

    def measure(self, seconds: float) -> dict:
        """One round: a short unsampled warm-up, then the closed loop
        (split with the traced and direct loops when tracing).  Raw
        samples; ``run.py`` does the statistics."""
        tally = Loop()
        result: dict = {}
        stock = ops.template_stock(self.mech)
        try:
            closed_loop(self.op, self.shape.callers,
                        seconds * WARMUP_SHARE, self.per_op).count_into(tally)
            result["memory"] = memory_status()
            parts = (3 if self.mech in DIRECT else 2) if self.trace else 1
            untraced = closed_loop(self.op, self.shape.callers,
                                   seconds / parts, self.per_op)
            untraced.count_into(tally)
            result["untraced_ns"] = untraced.totals()
            if self.trace:
                result.update(traced(self.mech, self.shape, self.op,
                                     self.per_op, seconds / parts, tally))
        finally:
            TELEMETRY.disable()
        # Let the template helper park its replacements now, not while
        # the next mechanism measures.
        ops.restock(self.mech, stock)
        return self._counted(result, tally)

    def finish(self) -> dict:
        """Count the helpers, stop every service and check that no
        process or thread is left behind."""
        result: dict = {}
        tally = Loop()
        if self.mech == "forkserver-pool":
            pool = get_strategy("forkserver-pool").pool()
            result["workers_booted"] = pool.started_workers
        if self.mech == "xproc":
            # Sim processes a fresh machine still holds (minus its agent)
            # after XPROC_PROBE launches.
            strategy = get_strategy("xproc")
            strategy.shutdown()
            for _ in range(XPROC_PROBE):
                closed_loop(self.op, 1, 0.0, self.per_op).count_into(tally)
            result["xproc_retained"] = (len(strategy.kernel().processes) - 1,
                                        XPROC_PROBE)
        helpers = descendants()
        result["helpers"] = {"procs": len(helpers),
                             "rss_mib": sum(p["rss_kib"]
                                            for p in helpers) / 1024}
        result["leftover_procs"] = stop_everything()
        result["threads_left"] = threading.active_count() - 1
        return self._counted(result, tally)

    @staticmethod
    def _counted(result: dict, tally: Loop) -> dict:
        result.update(attempted=tally.attempted, failed=tally.failed,
                      errors=tally.errors)
        return result


def traced(mech: str, shape: ops.Shape, op, per_op: int, seconds: float,
           tally: Loop) -> dict:
    """The traced share: the builder loop and the direct loop with
    ``TELEMETRY`` on, reading only stamps the program already emits.

    Every retry or degradation the program counted is a failed
    operation: it is the only sign of a backend that degraded silently.
    """
    TELEMETRY.enable(None, reset_metrics=True)
    builder = closed_loop(op, shape.callers, seconds, per_op)
    builder.count_into(tally)
    out = {"traced": builder.samples, "direct": [], "stamps": []}
    launches = builder.attempted
    if mech in DIRECT:
        stamps = ops.ForkServerStamps()
        spawn = ops.direct_spawner(mech, stamps)
        direct = closed_loop(ops.direct_op(mech, shape, spawn),
                             shape.callers, seconds, per_op)
        direct.count_into(tally)
        launches += direct.attempted
        out.update(direct=direct.samples, stamps=stamps.rows)
    counters = counter_sums()
    degraded = {name: counters[name] for name in DEGRADE_COUNTERS
                if counters.get(name)}
    if degraded:
        tally.failed += sum(degraded.values())
        tally.errors.append(f"retried or degraded requests: {degraded}")
    out.update(counters=counters, launches=launches)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mech", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Children inherit fds 0-2.  Commands and results travel on private
    # copies, so no child or helper holds the control pipes.
    commands = os.fdopen(os.dup(0))
    results = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    os.close(devnull)
    session = Session(args.mech, args.workload, args.seed,
                      bool(args.trace))
    for line in commands:
        command = json.loads(line)
        if command["op"] == "boot":
            result = session.boot()
        elif command["op"] == "measure":
            result = session.measure(command["seconds"])
        else:
            result = session.finish()
        results.write(json.dumps(result) + "\n")
        results.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
