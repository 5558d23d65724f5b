"""Forked worker processes for ``clt-check``'s independent cells.

``run_bins(bins, row)`` runs ``row(i)`` for every cell position ``i`` of
``bins``: bin 0 in the calling process, every other bin in a child made
by ``os.fork``, which inherits everything built before the fork, pickles
its rows back through a pipe and leaves with ``os._exit``.  Each worker
holds only its own scratch, so the peak memory of any one process is one
worker's, not the sum of all workers'.  The caller deals the cells into
the bins; with one bin nothing forks.  Every child is reaped before
``run_bins`` returns or raises.
"""

from __future__ import annotations

import os
import pickle
from typing import BinaryIO, Callable, NoReturn


def run_bins(bins: list[list[int]], row: Callable[[int], list]
             ) -> dict[int, list]:
    """``row(i)`` for every cell position ``i`` in ``bins``, keyed by
    position.  A failing cell stops its bin.  The first failure, the
    calling process's own or else the first child's in bin order, is
    raised once every child has been killed and reaped."""
    rows: dict[int, list] = {}
    children: list[tuple[int, BinaryIO]] = []  # pid, read end of its pipe
    try:
        for cells in bins[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _child(cells, row, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        rows.update((i, row(i)) for i in bins[0])
        for _, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError("a clt-check worker ended without its rows")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            rows.update(value)
    except BaseException:
        import signal  # only on failure: its enums cost memory
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return rows


def _child(cells: list[int], row: Callable[[int], list], w: int) -> NoReturn:
    """A forked worker's whole life: run ``cells``, write the pickled
    ``(True, rows)`` or ``(False, exception)`` to the pipe end ``w`` and
    leave with ``os._exit``, so no parent cleanup (atexit handlers,
    buffered output, a test runner's frames) runs twice."""
    code = 1
    try:
        try:
            result = (True, [(i, row(i)) for i in cells])
        except BaseException as exc:
            result = (False, exc)
        with open(w, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)
