"""Crash-safe appends to a shared JSONL file.

The run-history ledger and the service's job journal are both
append-only JSONL files that outlive a crash and are shared between
processes (the job server and the CLI write the same history
directory).  A writer killed mid-record leaves a *torn tail*: a line
without its newline.  Appending blindly would glue the next record onto
that fragment, and replay, which skips unparseable lines, would then
drop the healthy record too.  :func:`append_line` cuts the fragment off
first.
"""

from __future__ import annotations

import os

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts write unlocked
    fcntl = None  # type: ignore[assignment]

#: Bytes read per step while searching backwards for the last newline.
_SCAN = 4096


def _last_newline_end(fd: int, size: int) -> int:
    """Offset just past the last ``\\n`` in the file, or 0 if none."""
    end = size
    while end > 0:
        start = max(0, end - _SCAN)
        chunk = os.pread(fd, end - start, start)
        index = chunk.rfind(b"\n")
        if index >= 0:
            return start + index + 1
        end = start
    return 0


def append_line(path: str, line: str) -> None:
    """Append ``line`` plus a newline to ``path`` as one durable record.

    Under an exclusive ``flock`` (concurrent writers serialize), a torn
    tail left by a crashed writer is truncated back to the last newline,
    then the whole record goes out in one ``O_APPEND`` write and is
    ``fsync``-ed before the lock is released.
    """
    data = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            os.ftruncate(fd, _last_newline_end(fd, size))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)  # also releases the lock
