"""Forked workers, one per usable CPU, for work that splits into shares.

:func:`run` cuts a sequence of items into contiguous shares, one per usable
CPU while each keeps an item, and runs a generator function ``task`` on each
share.  The process runs the first share itself, as the caller consumes its
items; a forked child runs each other share and pickles each item into its
own unlinked temporary file, made before the fork.  The caller reads every
share's items in order, one at a time, as one iterator, so it never holds a
child's whole output: a child's come once it is reaped, followed by
:class:`WorkerDied` if it did not finish.  A share whose file, pipe or fork
fails runs in the process, in its place in the order.  The kernel often
leaves a forked child on the CPU of the process that forked it, where the two
shares run one after the other, so the process sets each child's CPU mask,
right after the fork, to a usable CPU of its own other than the process's
(read from ``/proc/self/stat``), and the child keeps that mask for its life.
The child is moved by the process, so it never waits on the process's CPU for
a turn to move itself, and it starts its share only once the process has
moved it: it waits for the process to close a pipe.  No later choice of the
scheduler puts it back.  A child that cannot be moved runs where the kernel
put it, and where the process's CPU cannot be read no child is moved.  The
process's own CPU mask is never changed, and placement decides only where a
share runs, never what it computes.  No child outlives the ``with`` block,
however it is left.  ``agrosim sweep`` (one result a value) runs on this
module.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import tempfile
import threading
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

Task = Callable[[Any], Iterable]


class WorkerDied(Exception):
    """A forked child ended before its task did: ``pid`` is the child's,
    and ``how`` says how it ended ("was killed by signal 9", "exited with
    status 1")."""

    def __init__(self, pid: int, code: int):
        self.pid = pid
        self.how = (f"was killed by signal {-code}" if code < 0
                    else f"exited with status {code}")
        super().__init__(f"worker {pid} {self.how}")


class _Child:
    """A forked child that runs ``task(share)``, and the unlinked temporary
    file it pickles the items into."""

    def __init__(self, task: Task, share: Any, cpu: Optional[int]):
        self.file = tempfile.TemporaryFile()
        gate: tuple[int, ...] = ()
        try:
            if cpu is not None:
                gate = os.pipe()
            self.pid = os.fork()
        except OSError:
            self.file.close()
            for fd in gate:
                os.close(fd)
            raise
        if self.pid == 0:
            _child_main(task, share, self.file, gate)
        self.reaped = False
        try:
            if cpu is not None:
                # moved by the process, the child need not first wait for a
                # turn on the process's CPU to move itself
                with contextlib.suppress(OSError):  # then it runs where it is
                    os.sched_setaffinity(self.pid, {cpu})
        finally:
            for fd in gate:  # the child sees the end of the pipe: it may start
                os.close(fd)

    def items(self) -> Iterator:
        """Reap the child, then yield the items it wrote, in order; raise
        :class:`WorkerDied` after the last whole one if it did not finish."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.reaped = True
        self.file.seek(0)  # the child's writes moved the offset it shares with us
        try:
            while True:
                yield pickle.load(self.file)
        except (EOFError, pickle.UnpicklingError):
            pass  # the end of what was written, whole or cut short
        if code:
            raise WorkerDied(self.pid, code)

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
def run(task: Task, items: Sequence) -> Iterator[Iterator]:
    """Run the generator function ``task`` on contiguous shares of ``items``,
    one per usable CPU while each keeps an item, all but the first in
    a forked :class:`_Child`, forked on entry, the j-th of them held on the
    j-th usable CPU other than the process's.  There is one share without
    ``os.fork`` or ``os.sched_getaffinity``, or while another thread runs,
    since a forked child would hold only this one.

    Yields one iterator over every share's items, in order.  On leaving the
    block, each child is killed if it has not been reaped, then reaped, and
    its file closed.
    """
    n, usable = 1, set()
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        usable = os.sched_getaffinity(0)
        n = max(1, min(len(items), len(usable)))
    cuts = [j * len(items) // n for j in range(n + 1)]
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    here = _cpu() if n > 1 else None
    spare = [] if here is None else sorted(usable - {here})  # n - 1 or more CPUs
    children: list[Optional[_Child]] = [None]
    try:
        for j, share in enumerate(shares[1:]):
            try:
                children.append(_Child(task, share, spare[j] if spare else None))
            except OSError:
                children.append(None)  # no file or process to spare: the share runs here
        yield itertools.chain.from_iterable(
            task(share) if child is None else child.items()
            for share, child in zip(shares, children))
    finally:
        for child in children:
            if child is not None:
                child.stop()


def _cpu() -> Optional[int]:
    """The CPU this process runs on: field 39 (``processor``) of
    ``/proc/self/stat``, or None where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # the command name (field 2) may hold spaces and ")"
            return int(fh.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _child_main(task: Task, share: Any, fh: BinaryIO, gate: tuple[int, ...]) -> None:
    """Pickle each item of ``task(share)`` into ``fh`` in a forked child,
    and exit: status 0 when the task finished, 1 when it raised.  With a
    ``gate`` pipe, start the task only at its end, once the process has
    closed it after moving the child: the kernel may run the child first."""
    # the child leaves only through os._exit: it must not flush the
    # parent's stdio buffers or run its atexit handlers a second time
    status = 1
    try:
        if gate:
            os.close(gate[1])
            os.read(gate[0], 1)
        for item in task(share):
            pickle.dump(item, fh)
            fh.flush()  # os._exit drops buffers; a child killed later keeps what it sent
        status = 0
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:  # also on KeyboardInterrupt, which the parent reports
        os._exit(status)
