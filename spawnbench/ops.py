"""Workload shapes and the timed operations, one per mechanism.

An *operation* is one closed-loop request: construct, launch, drain,
wait, check.  It returns its span durations in nanoseconds and raises
:class:`WrongResult` (or whatever the program raised) when the child's
outcome is wrong, so a failure is counted and never becomes a sample.

Every call goes through a public entry point of the program under test:
``ProcessBuilder`` for the end-to-end path, ``repro.core.spawn_batch``
for the batch path, and each service's own ``spawn``/``launch`` for the
``direct`` spans that have no builder above them.
"""

from __future__ import annotations

import os
import random
import string
import time
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.core import (BatchRequest, FileActions, ProcessBuilder,
                        SpawnAttributes, SpawnRequest, get_strategy,
                        spawn_batch)
from repro.core.strategies import TemplateStrategy
from repro.obs import TELEMETRY
from spec import REFERENCE

#: Members per ``spawn_batch`` call; its samples are per child.
BATCH = 8

#: Services that keep state between spawns, shut down before a cold boot.
SERVICES = ("forkserver", "forkserver-pool", "template", "gateway", "xproc")

PAYLOAD_BYTES = 64


class Shape(NamedTuple):
    """What one workload asks every mechanism to do."""

    argv: Tuple[str, ...]
    expected: Optional[bytes]  # piped stdout to compare, None = inherited
    callers: int


def payload(seed: int) -> str:
    """The seeded echo payload: printable, no spaces, 64 bytes."""
    alphabet = string.ascii_letters + string.digits
    rng = random.Random(seed)
    return "".join(rng.choice(alphabet) for _ in range(PAYLOAD_BYTES))


def make_shape(workload: str, seed: int) -> Shape:
    if workload == "noop":
        return Shape(("/bin/true",), None, 1)
    if workload == "piped-c2":
        text = payload(seed)
        return Shape(("/bin/echo", text), text.encode() + b"\n", 2)
    raise ValueError(f"unknown workload {workload!r}")


class WrongResult(Exception):
    """A child ran but its outcome is not the one asked for."""


def check(child, rc: int, out: Optional[bytes], shape: Shape,
          strategy: str) -> None:
    if rc != 0:
        raise WrongResult(f"{strategy}: exit code {rc}")
    if child.strategy != strategy:
        raise WrongResult(f"asked for {strategy}, served by "
                          f"{child.strategy}")
    if out != shape.expected:
        raise WrongResult(f"{strategy}: output {out!r}, "
                          f"expected {shape.expected!r}")


def read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


now = time.monotonic_ns


#: build, launch, drain, wait — nanoseconds, per child.
Spans = Tuple[int, int, int, int]


#: Reaped processes an xproc sim machine may hold before it is rebooted.
#: The sim kernel keeps every reaped process and scans them all on each
#: step, so a launch slows with every launch since boot
#: (``xproc.procs_retained_per_spawn`` reports it).  Rebooting at a fixed
#: count makes xproc's median that of a machine's first launches on every
#: workload, round length and host speed.
XPROC_RETAINED_MAX = 256


def reboot_full_machine() -> None:
    """Reboot the xproc sim machine once it holds too many processes."""
    strategy = get_strategy("xproc")
    if len(strategy.kernel().processes) > XPROC_RETAINED_MAX:
        strategy.shutdown()


def builder_op(mech: str, shape: Shape) -> Callable[[], Spans]:
    """One spawn → wait through ``ProcessBuilder`` on strategy ``mech``."""
    piped = shape.expected is not None

    def op() -> Spans:
        if mech == "xproc":
            reboot_full_machine()
        t0 = now()
        builder = ProcessBuilder(*shape.argv).strategy(mech)
        if piped:
            builder.stdout_to_pipe()
        t1 = now()
        child = builder.spawn()
        t2 = now()
        try:
            with builder.io as io:
                out = io.read_stdout() if piped else None
            t3 = now()
        finally:
            rc = child.wait()
        t4 = now()
        check(child, rc, out, shape, mech)
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3)

    return op


def batch_op(shape: Shape) -> Callable[[], Spans]:
    """``BATCH`` children through ``repro.core.spawn_batch``; spans are
    per child (the batch's spans divided by ``BATCH``)."""
    piped = shape.expected is not None

    def op() -> Spans:
        t0 = now()
        pipes: List[Tuple[int, int]] = []
        members = []
        for _ in range(BATCH):
            if piped:
                pipes.append(os.pipe())
                members.append(SpawnRequest(shape.argv,
                                            stdout=pipes[-1][1]))
            else:
                members.append(SpawnRequest(shape.argv))
        request = BatchRequest(members)
        t1 = now()
        try:
            try:
                result = spawn_batch(request)
            finally:
                for _, write_end in pipes:
                    os.close(write_end)
            t2 = now()
            outs = [read_all(read_end) for read_end, _ in pipes]
        finally:
            for read_end, _ in pipes:
                os.close(read_end)
        t3 = now()
        rcs = [child.wait() for child in result]
        t4 = now()
        if result.strategy != "forkserver-pool":
            raise WrongResult(f"batch served by {result.strategy}")
        for index, child in enumerate(result):
            check(child, rcs[index], outs[index] if piped else None,
                  shape, "forkserver-pool")
        return tuple((b - a) // BATCH
                     for a, b in ((t0, t1), (t1, t2), (t2, t3), (t3, t4)))

    return op


def raw_op(shape: Shape) -> Callable[[], Spans]:
    """The yardstick: the same child through ``os.posix_spawn`` and
    ``os.waitpid`` alone, checked like every other operation."""
    piped = shape.expected is not None

    def op() -> Spans:
        t0 = now()
        read_end = write_end = None
        actions = []
        if piped:
            read_end, write_end = os.pipe()
            actions = [(os.POSIX_SPAWN_DUP2, write_end, 1)]
        t1 = now()
        try:
            try:
                pid = os.posix_spawn(shape.argv[0], shape.argv, os.environ,
                                     file_actions=actions)
            finally:
                if write_end is not None:
                    os.close(write_end)
            t2 = now()
            try:
                out = read_all(read_end) if piped else None
                t3 = now()
            finally:
                rc = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        finally:
            if read_end is not None:
                os.close(read_end)
        t4 = now()
        if rc != 0:
            raise WrongResult(f"raw: exit code {rc}")
        if out != shape.expected:
            raise WrongResult(f"raw: output {out!r}, "
                              f"expected {shape.expected!r}")
        return (t1 - t0, t2 - t1, t3 - t2, t4 - t3)

    return op


def make_op(mech: str, shape: Shape) -> Callable[[], Spans]:
    if mech == REFERENCE:
        return raw_op(shape)
    if mech == "spawn_batch":
        return batch_op(shape)
    return builder_op(mech, shape)


def children_per_op(mech: str) -> int:
    """Children one operation of ``mech`` spawns (and counts)."""
    return BATCH if mech == "spawn_batch" else 1


def shutdown_services() -> None:
    """Stop every shared service so the next spawn boots it cold."""
    for name in SERVICES:
        get_strategy(name).shutdown()


def template_stock(mech: str) -> int:
    """Children the template helper has parked (0 for other mechanisms)."""
    if mech != "template":
        return 0
    return get_strategy("template").registry().stock(
        TemplateStrategy.GENERIC_PROFILE)


def restock(mech: str, stock: int, timeout: float = 1.0) -> None:
    """Wait until the template helper has parked ``stock`` children again
    (its background thread refills what a round leased)."""
    deadline = time.monotonic() + timeout
    while (template_stock(mech) < stock
           and time.monotonic() < deadline):
        time.sleep(0.002)


# -- direct spans: each layer's public spawn, no builder above it ----------

class ForkServerStamps:
    """Per-spawn stamps of the forkserver's own trace stages.

    ``dispatch`` is stamped here just before ``ForkServer.spawn``;
    ``framed`` (request sent) and ``forked`` (helper clock) are the
    program's existing stamps; ``handle`` is when the call returned.
    """

    def __init__(self):
        self.rows: List[Tuple[int, int, int, int]] = []

    def spawn(self, server, argv, fd: int):
        """``server.spawn`` with a trace of our own; needs telemetry on."""
        trace = TELEMETRY.trace("forkserver", argv)
        trace.stage("dispatch")
        child = server.spawn(argv, stdout=fd, trace=trace)
        handle = now()
        self.rows.append((trace.stage_time("dispatch"),
                          trace.stage_time("framed"),
                          trace.stage_time("forked"), handle))
        return child


def direct_spawner(mech: str, stamps: ForkServerStamps):
    """``spawn(argv, stdout_fd) -> child`` on the layer's public API, for
    the mechanisms in ``spec.DIRECT``; the forkserver's spawns record
    their stage stamps into ``stamps``."""
    if mech == "forkserver":
        server = get_strategy("forkserver").server()
        return lambda argv, fd: stamps.spawn(server, argv, fd)
    if mech == "forkserver-pool":
        pool = get_strategy("forkserver-pool").pool()
        return lambda argv, fd: pool.spawn(argv, stdout=fd)
    if mech == "template":
        registry = get_strategy("template").registry()
        profile = TemplateStrategy.GENERIC_PROFILE
        return lambda argv, fd: registry.spawn(profile, argv, stdout=fd)
    if mech == "gateway":
        client = get_strategy("gateway").client()
        return lambda argv, fd: client.spawn(argv, stdout=fd)
    if mech == "xproc":
        strategy = get_strategy("xproc")

        def launch(argv, fd):
            reboot_full_machine()
            actions = FileActions()
            if fd != 1:
                actions.add_dup2(fd, 1)
            return strategy.launch(argv, actions, SpawnAttributes())
        return launch
    raise ValueError(f"{mech} has no direct call")


def direct_op(mech: str, shape: Shape, spawn) -> Callable[[], Spans]:
    """One spawn → wait on ``spawn``; spans are (0, spawn, drain, wait)."""
    piped = shape.expected is not None

    def op() -> Spans:
        read_end = write_end = None
        if piped:
            read_end, write_end = os.pipe()
        try:
            t1 = now()
            try:
                child = spawn(shape.argv, 1 if write_end is None
                              else write_end)
            finally:
                if write_end is not None:
                    os.close(write_end)
            t2 = now()
            try:
                out = read_all(read_end) if piped else None
                t3 = now()
            finally:
                rc = child.wait()
            t4 = now()
        finally:
            if read_end is not None:
                os.close(read_end)
        check(child, rc, out, shape, mech)
        return (0, t2 - t1, t3 - t2, t4 - t3)

    return op
