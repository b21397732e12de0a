"""The CSV dialect, read and written, and atomic output: files staged and committed together."""

from __future__ import annotations

import csv
import errno
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def staged_outputs():
    """Stage output files, then commit them all or none.

    Yields ``stage(path) -> Path``, the temporary path to write ``path`` to.
    When the block completes, every staged file is renamed onto its target,
    unless a target is a directory: then none is.  When the block or a rename
    raises, every temporary file not yet renamed is removed, so a failing
    command leaves neither partial outputs nor stray temporary files.
    """
    staged: list[tuple[Path, Path]] = []

    def stage(path) -> Path:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        staged.append((tmp, path))
        return tmp

    try:
        yield stage
        for _, path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        while staged:
            os.replace(*staged[0])
            del staged[0]
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write one header row, then ``rows``; floats come out as their repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_csv(path, header, error):
    """Yield ``(line, fields)`` for each non-blank row of the CSV file ``path``;
    a first row other than ``header``, or a row of another width, raises
    ``error``, the caller's exception class, naming ``path:line``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise error(f"{path}:1: bad header {first!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise error(f"{path}:{reader.line_num}: expected {len(header)} fields")
            yield reader.line_num, row
