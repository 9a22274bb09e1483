"""Forked children that send their results back through pipes, shared by
the dense parse and write (dataio) and k-fold CV (evaluation).

The failure rule is MapReduce's: the caller redoes a lost share itself. A
share is lost when the system refuses its pipe or fork, or when its child
fails, dies or sends a short result; `_recv` on it then raises EOFError."""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import threading
import types


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


def _recv(fd: int | None, buf):
    """Fill buf from the pipe fd and return it; EOFError if the pipe ends
    first, or at once for a refused share's None."""
    if fd is None:
        raise EOFError("the system refused this share a fork")
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


@contextlib.contextmanager
def forked(fn, shares):
    """Fork a child per share (an argument tuple) that runs fn(*share) as
    _fork does, and yield `children`: `reads` holds the read ends in share
    order, None from the first refused fork on. On leaving, close the pipes,
    SIGKILL the children if the block raised and wait for them all; `clean`
    then says whether every share was forked and its child exited 0."""
    children = types.SimpleNamespace(reads=[], clean=False)
    pids, done = [], False
    try:
        for share in shares:
            try:
                pid, r = _fork(fn, *share)
            except OSError:  # no process or descriptor to spare
                break
            pids.append(pid)
            children.reads.append(r)
        children.reads += [None] * (len(shares) - len(pids))
        yield children
        done = True
    finally:
        for pid, r in zip(pids, children.reads):
            os.close(r)
            if not done:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        children.clean = len(pids) == len(shares)
        for pid in pids:
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # reaped elsewhere: its status is unknown
                status = -1
            children.clean &= status == 0
