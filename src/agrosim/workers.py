"""Forked workers, one per usable CPU, for work that splits into shares.

A caller cuts its work into shares, runs the first itself and hands the
others to :func:`forked`, which forks one child per share.  Each child runs
``task(share, file)`` into its own unlinked temporary file, made before the
fork, and leaves through :func:`os._exit`; the process reaps it with
:meth:`Worker.wait` and then reads the file.  A share whose file or fork
fails gets no child, and the process runs it too.  Every child is killed, if
still running, and reaped when the ``with`` block is left, however it is
left.  ``agrosim sweep`` (striped shares of its values) and
:meth:`agrosim.sim.TrajectoryRecord.to_csv` (contiguous shares of its rows)
run on this module.
"""

from __future__ import annotations

import contextlib
import os
import signal
import tempfile
import threading
import traceback
from typing import Any, BinaryIO, Callable, Iterator, Optional, Sequence


def count(items: int) -> int:
    """How many workers to run ``items`` shares of work on: one per usable
    CPU, at most ``items`` and at least 1.

    It is 1 without ``os.fork`` or ``os.sched_getaffinity``, or while
    another thread runs, since a forked child would hold only this one.
    """
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        return max(1, min(items, len(os.sched_getaffinity(0))))
    return 1


def how(code: int) -> str:
    """How a child with exit code ``code`` (as from
    :func:`os.waitstatus_to_exitcode`) ended."""
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


class Worker:
    """A forked child that runs ``task(share, file)``, and the unlinked
    temporary file it writes into."""

    def __init__(self, task: Callable[[Any, BinaryIO], None], share: Any):
        self.file = tempfile.TemporaryFile()
        try:
            self.pid = os.fork()
        except OSError:
            self.file.close()
            raise
        if self.pid == 0:
            _child_main(task, share, self.file)
        self.reaped = False

    def wait(self) -> int:
        """Reap the child, rewind its file and return its exit code (0 when
        its task returned, negative for the signal that killed it)."""
        status = os.waitpid(self.pid, 0)[1]
        self.reaped = True
        self.file.seek(0)  # the child's writes moved the offset it shares with us
        return os.waitstatus_to_exitcode(status)

    def stop(self) -> None:
        """Kill and reap the child, unless it is reaped already; close its file."""
        if not self.reaped:
            # an interrupt may land between waitpid and the flag
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.reaped = True
        self.file.close()


@contextlib.contextmanager
def forked(task: Callable[[Any, BinaryIO], None],
           shares: Sequence) -> Iterator[list[Optional[Worker]]]:
    """Fork a :class:`Worker` for each share but the first.

    Yields one entry per share, in order: ``None`` for a share the process
    runs itself (the first, and any whose file or fork failed), else its
    worker.  On leaving the block, each worker is killed if it has not been
    reaped, then reaped, and its file closed.
    """
    children: list[Optional[Worker]] = [None]
    try:
        for share in shares[1:]:
            try:
                children.append(Worker(task, share))
            except OSError:
                children.append(None)  # no file or process to spare: the share runs here
        yield children
    finally:
        for child in children:
            if child is not None:
                child.stop()


def _child_main(task: Callable[[Any, BinaryIO], None], share: Any, fh: BinaryIO) -> None:
    """Run ``task(share, fh)`` in a forked child, flush ``fh`` and exit:
    status 0 when the task returned, 1 when it raised."""
    # the child leaves only through os._exit: it must not flush the
    # parent's stdio buffers or run its atexit handlers a second time
    status = 1
    try:
        task(share, fh)
        fh.flush()  # os._exit drops what is left in a buffer
        status = 0
    except Exception:
        os.write(2, traceback.format_exc().encode())
    finally:  # also on KeyboardInterrupt, which the parent reports
        os._exit(status)
