"""Contiguous blocks of a range of work, one per usable CPU, in forked children.

``local_dim_estimate`` runs its sample chains here and the ``boxdim``
reader its line blocks: the first block runs in process and every further
one in an ``os.fork`` child, and the results come back in block order, so a
caller that merges them in that order gets what one block would give.
"""

from __future__ import annotations

import os
import pickle
import warnings


def _block_bounds(count: int, min_size: int) -> list:
    """Bounds of count items in blocks: one block per usable CPU, each of
    at least min_size items (a single block below that)."""
    blocks = max(1, min(_cpu_count(), count // min_size))
    return [count * b // blocks for b in range(blocks + 1)]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _in_blocks(run_block, bounds: list) -> list:
    """[run_block(lo, hi) for each block lo..hi of bounds], in block order.

    The first block runs in process and every further one in an ``os.fork``
    child that pickles its result back through a pipe.  Warnings a block
    records are reissued here in block order once every block is in.  If
    any block raises (or a child dies), the whole range reruns serially in
    process, so an error is raised as the serial run raises it.  With one
    block, or without ``os.fork``, that serial run is the only one.

    Forking is safe here because run_block is pure computation: it reads
    the arguments the child inherits, and at most opens a file by path and
    reads it through its own descriptor.  It writes nothing, touches no
    inherited file, lock or thread, makes no BLAS call, and depends on
    nothing of the process it runs in.  A child leaves only by
    ``os._exit``, so it never runs the caller's cleanup or flushes an
    inherited buffer, and no child outlives the call: each one is killed if
    still running and reaped on success, on error and on KeyboardInterrupt
    alike.
    """
    spans = list(zip(bounds, bounds[1:]))
    if len(spans) > 1 and hasattr(os, "fork"):
        outcomes = _forked_blocks(run_block, spans)
        if outcomes is not None:
            for _, caught in outcomes:
                for args in caught:
                    warnings.warn_explicit(*args)
            return [result for result, _ in outcomes]
    return [run_block(bounds[0], bounds[-1])]


def _forked_blocks(run_block, spans: list) -> list | None:
    """(result, warning arguments) per span, or None if any block failed."""
    # Imported here, where a child may need stopping, so that importing
    # the package loads nothing new.
    import signal

    children = []
    try:
        for lo, hi in spans[1:]:
            _fork_block(run_block, lo, hi, children)
        outcomes = [_recorded(run_block, *spans[0])]
        for _, fd in children:
            with open(fd, "rb", closefd=False) as fh:
                # Only this call's own child wrote these bytes; one whose
                # block failed wrote none, and unpickling them raises.
                outcomes.append(pickle.loads(fh.read()))
        return outcomes
    except Exception:
        return None
    finally:
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _fork_block(run_block, lo: int, hi: int, children: list) -> None:
    """Start run_block(lo, hi) in a forked child; append (pid, read end)."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks (numpy's
            # idle BLAS pool counts); the child starts no thread and runs
            # no BLAS call, so the warning would only litter the report.
            warnings.filterwarnings("ignore", r".*fork\(\)", DeprecationWarning)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    result = _recorded(run_block, lo, hi)
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                    status = 0
                finally:
                    os._exit(status)
    except OSError:
        os.close(r)
        os.close(w)
        raise
    children.append((pid, r))
    os.close(w)


def _recorded(run_block, lo: int, hi: int) -> tuple:
    """(run_block(lo, hi), the warn_explicit arguments of its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        result = run_block(lo, hi)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
