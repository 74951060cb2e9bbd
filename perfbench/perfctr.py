"""Instructions retired in user space by the calling process.

Read from the CPU's performance counters through ``perf_event_open``
(Linux; ``kernel.perf_event_paranoid`` <= 2 allows a process to count
its own user-space events).  The count of a fixed piece of work repeats
to within a fraction of a percent from run to run, where its CPU time
on a shared host moves with what other tenants run on the same cores
and caches.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

_SYSCALL = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
_EXCLUDE_KERNEL = 1 << 5
_EXCLUDE_HV = 1 << 6
_READ_TIMES = 1 | 2  # PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING
_ATTR_SIZE = 128


class Unavailable(RuntimeError):
    pass


class InstructionCounter:
    """A counter for the calling thread, not inherited by children;
    ``read()`` is the count since it was opened."""

    def __init__(self):
        number = _SYSCALL.get(platform.machine())
        if number is None:
            raise Unavailable(f"no perf_event_open syscall number for {platform.machine()}")
        attr = bytearray(_ATTR_SIZE)
        struct.pack_into("IIQ", attr, 0, _PERF_TYPE_HARDWARE, _ATTR_SIZE, _PERF_COUNT_HW_INSTRUCTIONS)
        struct.pack_into("Q", attr, 32, _READ_TIMES)
        struct.pack_into("Q", attr, 40, _EXCLUDE_KERNEL | _EXCLUDE_HV)
        libc = ctypes.CDLL(None, use_errno=True)
        buf = (ctypes.c_char * _ATTR_SIZE).from_buffer(attr)
        fd = libc.syscall(number, buf, 0, -1, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            raise Unavailable(f"perf_event_open for instructions failed: {os.strerror(err)}")
        self.fd = fd

    def read(self) -> int:
        value, enabled, running = struct.unpack("QQQ", os.read(self.fd, 24))
        if running == enabled:
            return value
        if not running:
            raise Unavailable("the instruction counter never ran")
        # the counter shared the PMU with other events: perf's estimate
        return value * enabled // running

    def close(self) -> None:
        os.close(self.fd)
