"""Deterministic CSV/JSON writers.

Every float is rendered with 17 significant digits (FLOAT_FMT) so that
rerunning a command with the same configuration and seed produces
byte-identical artifacts on any IEEE-754 platform.  This module owns that
format: paths.csv, riccati.csv and oracle.csv all go through write_csv.

write_csv renders each distinct value once.  A column whose bits are the
same on every row of a block (path_id and z_p_true in paths.csv), or the
same as in the previous block (its t column), is baked into a cached row
template; only the remaining columns are formatted row by row.  A table of
two or more blocks is split across the CPUs the process may run on
(os.sched_getaffinity, at most _MAX_WORKERS): forked children render
contiguous ranges of blocks into anonymous temporary files that the parent
appends in order.  Whatever the worker count, the bytes equal a plain
per-row "%.17g" rendering.
"""

import contextlib
import json
import math
import os
import shutil
import signal
import tempfile

import numpy as np

FLOAT_FMT = ".17g"
_SLOT = "%" + FLOAT_FMT
_MAX_WORKERS = 4


def _marker(col: int) -> str:
    # Stands in a template for a column that is constant within the block.
    return f"\0{col}\1"


def _render(fh, blocks, start: int, stop: int) -> None:
    """Write blocks[start:stop] to the binary file fh, one row per line.

    Columns are told apart by bit pattern, so 0.0 and -0.0 never share a
    rendering: a constant column becomes a marker replaced once per block,
    a column repeating the previous block's becomes literal text, and every
    other column becomes a FLOAT_FMT slot.  The template is rebuilt only when
    that split of the columns changes.
    """
    key = template = prev = varying = None
    for i in range(start, stop):
        block = np.ascontiguousarray(blocks[i], dtype=float)
        bits = block.view(np.int64)
        if not len(bits):
            continue
        const = (bits == bits[0]).all(axis=0)
        repeat = ~const & (prev is not None and prev.shape == bits.shape
                           and (bits == prev).all(axis=0))
        # Per column: 0 varies by row, 1 is constant, 2 repeats the previous block.
        kinds = tuple((const + 2 * repeat).tolist())
        if key != (len(bits), kinds):
            key = (len(bits), kinds)
            cells = [[_marker(j)] * len(bits) if kind == 1
                     else [format(x, FLOAT_FMT) for x in block[:, j].tolist()] if kind == 2
                     else [_SLOT] * len(bits) for j, kind in enumerate(kinds)]
            template = "".join(",".join(row) + "\n" for row in zip(*cells))
            varying = np.equal(kinds, 0)
        text = template
        for j in np.flatnonzero(const).tolist():
            text = text.replace(_marker(j), format(block[0, j].item(), FLOAT_FMT))
        fh.write((text % tuple(block[:, varying].ravel().tolist())).encode())
        prev = bits


def _worker_count(n_blocks: int) -> int:
    if n_blocks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, n_blocks)


def _fork_worker(spill, blocks, start: int, stop: int) -> int:
    """Fork a child that renders blocks[start:stop] into spill; return its pid.

    The child only builds and formats blocks (no BLAS call, whose threads do
    not survive the fork) and leaves by os._exit, so nothing of the parent's
    is flushed or cleaned up twice.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _render(spill, blocks, start, stop)
        spill.flush()
        status = 0
    except BaseException as exc:
        os.write(2, f"CSV worker for blocks {start}-{stop - 1}: {exc!r}\n".encode())
    finally:
        os._exit(status)


def write_csv(path, header, blocks) -> None:
    """Write a sequence of 2-D float blocks, in order, under a comma-separated header.

    Every row reads as one FLOAT_FMT field per header column, comma-separated,
    LF line ends.  blocks needs only len() and indexing, so a caller can hand
    in a lazy view whose blocks are built on access.  Every block is checked
    before the file is opened: a non-finite value raises ValueError and no
    file is created.  With at least two blocks and two usable CPUs, the blocks
    are cut into one contiguous range per worker (_worker_count); the parent
    renders the first range into path while forked children render the others
    into anonymous temporary files beside it, then the parent reaps them and
    appends their bytes in order.  If anything fails, every child is killed
    and reaped and the partly written file is removed.
    """
    for i in range(len(blocks)):
        block = np.asarray(blocks[i], dtype=float)
        finite = np.isfinite(block)
        if not finite.all():
            raise ValueError(f"non-finite value in output: {float(block[~finite][0])!r}")
    workers = _worker_count(len(blocks))
    cuts = [len(blocks) * w // workers for w in range(workers + 1)]
    spills, pids = [], []
    fh = open(path, "wb")
    try:
        with fh:
            for start, stop in zip(cuts[1:-1], cuts[2:]):
                spills.append(tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))))
                pids.append(_fork_worker(spills[-1], blocks, start, stop))
            fh.write((",".join(header) + "\n").encode())
            _render(fh, blocks, cuts[0], cuts[1])
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


def _json_fragment(obj, indent, out):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, val) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key), ensure_ascii=False) + ": ")
            _json_fragment(val, indent + 2, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad + "  ")
            _json_fragment(val, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _json_fragment(obj.tolist(), indent, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in output: {x!r}")
        out.append(format(x, FLOAT_FMT))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Serialize dicts/lists/scalars with 17-significant-digit floats."""
    out = []
    _json_fragment(obj, 0, out)
    return "".join(out) + "\n"


def write_json(path, obj) -> None:
    """Write dumps_json(obj) to path.  obj is serialized before the file is
    opened, so a value that cannot be written (a non-finite float, say)
    raises and leaves no file."""
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
