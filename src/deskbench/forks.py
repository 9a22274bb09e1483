"""Forked children that send their results back through pipes, shared by
the dense parse and write (dataio) and k-fold CV (evaluation)."""

from __future__ import annotations

import gc
import os
import signal
import threading


def _fork_cores() -> int:
    """Usable cores if this process may fork (POSIX, no other thread), else 1."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _send(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _recv(fd: int, buf):
    """Fill buf from the pipe fd and return it; EOFError if the pipe ends first."""
    view = memoryview(buf).cast("B")
    while view:
        n = os.readv(fd, [view])
        if n == 0:
            raise EOFError("a forked child sent a short result")
        view = view[n:]
    return buf


def _fork(fn, *args):
    """Fork a child that runs fn(*args) and sends each buffer of the list it
    returns down a pipe. Returns (pid, read end). The child leaves only by
    os._exit: 0 after a complete send, else 1."""
    parent = os.getpid()
    r, w = os.pipe()
    code, pid = 1, None
    try:
        pid = os.fork()
        if pid == 0:
            gc.disable()  # no collection copies the parent's pages or runs its finalizers
            os.close(r)
            for buf in fn(*args):
                _send(w, buf)
            code = 0
    finally:
        if os.getpid() != parent:
            os._exit(code)
        os.close(w)
        if pid is None:
            os.close(r)
    return pid, r


def _reap(children, kill: bool) -> bool:
    """Close the pipe of each (pid, read end) and wait for every child, after
    a SIGKILL if kill. True when every child exited with status 0."""
    for pid, r in children:
        os.close(r)
        if kill:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    clean = True
    for pid, _ in children:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped elsewhere: its status is unknown
            status = -1
        clean = clean and status == 0
    return clean
