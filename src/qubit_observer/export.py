"""Deterministic CSV/JSON writers.

CSV floats are rendered with 17 significant digits (FLOAT_FMT), and
report.json floats as Python's shortest round-trip repr, so that rerunning
a command with the same configuration and seed produces byte-identical
artifacts on any IEEE-754 platform.  This module owns both formats:
riccati.csv and oracle.csv go through write_csv, paths.csv through
write_rendered, and report.json through write_json.

write_csv renders a table given as 2-D float blocks: it checks every value
first, then writes one FLOAT_FMT cell per entry.  write_rendered is the
writer under it, for a table whose layout its caller knows (paths.csv,
through sde_engine.write_paths_csv): it takes the number of blocks and a
function that returns the text of block i.  A table of two or more blocks
is split across the CPUs the process may run on (os.sched_getaffinity, at
most _MAX_WORKERS): forked children render contiguous ranges of blocks into
anonymous temporary files that the parent appends in order, so the bytes do
not depend on the worker count.
"""

import contextlib
import json
import os
import shutil
import signal
import tempfile

import numpy as np

FLOAT_FMT = ".17g"
SLOT = "%" + FLOAT_FMT
_MAX_WORKERS = 4


def check_finite(values, block: int) -> None:
    """Raise ValueError naming the first non-finite entry of values and the
    index of the block it belongs to."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"non-finite value in output: {float(values[~finite][0])!r} "
                         f"in block {block}")


def _write_range(fh, render, start: int, stop: int) -> None:
    for i in range(start, stop):
        fh.write(render(i).encode())


def _worker_count(n_blocks: int) -> int:
    if n_blocks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, n_blocks)


def _fork_worker(spill, render, start: int, stop: int) -> int:
    """Fork a child that writes blocks start to stop - 1 into spill; return its pid.

    The child only formats text (no BLAS call, whose threads do not survive
    the fork) and leaves by os._exit, so nothing of the parent's is flushed
    or cleaned up twice.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _write_range(spill, render, start, stop)
        spill.flush()
        status = 0
    except BaseException as exc:
        os.write(2, f"CSV worker for blocks {start}-{stop - 1}: {exc!r}\n".encode())
    finally:
        os._exit(status)


def write_rendered(path, header, n_blocks: int, render) -> None:
    """Write the header line, then render(i) for i = 0 .. n_blocks - 1, in order.

    render(i) returns block i's rows as text, each row LF-terminated.  With
    at least two blocks and two usable CPUs, the blocks are cut into one
    contiguous range per worker (_worker_count); the parent writes the first
    range into path while forked children write the others into anonymous
    temporary files beside it, then the parent reaps them and appends their
    bytes in order.  If anything fails, every child is killed and reaped and
    the partly written file is removed.
    """
    workers = _worker_count(n_blocks)
    cuts = [n_blocks * w // workers for w in range(workers + 1)]
    spills, pids = [], []
    fh = open(path, "wb")
    try:
        with fh:
            for start, stop in zip(cuts[1:-1], cuts[2:]):
                spills.append(tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))))
                pids.append(_fork_worker(spills[-1], render, start, stop))
            fh.write((",".join(header) + "\n").encode())
            _write_range(fh, render, cuts[0], cuts[1])
            while pids:
                status = os.waitpid(pids[0], 0)[1]
                pids.pop(0)
                if status:
                    raise RuntimeError(f"CSV worker failed with exit code "
                                       f"{os.waitstatus_to_exitcode(status)}")
            for spill in spills:
                spill.seek(0)
                shutil.copyfileobj(spill, fh)
    except BaseException:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        os.remove(path)
        raise
    finally:
        for spill in spills:
            spill.close()


def write_csv(path, header, blocks) -> None:
    """Write a sequence of 2-D float blocks, in order, under a comma-separated header.

    Every row reads as one FLOAT_FMT field per header column, comma-separated,
    LF line ends.  Every block is checked before the file is opened: a
    non-finite value raises ValueError naming the block's index, and no file
    is created.  The blocks are then written through write_rendered.
    """
    blocks = [np.asarray(block, dtype=float) for block in blocks]
    for i, block in enumerate(blocks):
        check_finite(block, i)

    def render(i):
        block = blocks[i]
        row = ",".join([SLOT] * block.shape[1]) + "\n"
        return (row * len(block)) % tuple(block.ravel().tolist())

    write_rendered(path, header, len(blocks), render)


def _plain(obj):
    """json.dumps fallback: numpy arrays and scalars as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Serialize dicts/lists/scalars, numpy values included, as indented JSON
    with floats in Python's shortest round-trip repr.  A non-finite float
    raises ValueError; a value of any other type raises TypeError."""
    try:
        return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False,
                          default=_plain) + "\n"
    except ValueError as exc:
        raise ValueError(f"non-finite value in output: {exc}") from exc


def write_json(path, obj) -> None:
    """Write dumps_json(obj) to path.  obj is serialized before the file is
    opened, so a value that cannot be written (a non-finite float, say)
    raises and leaves no file."""
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
