"""CSV output, and atomic output: files staged next to their targets and committed together."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def staged_outputs():
    """Stage output files, then commit them all or none.

    Yields ``stage(path) -> Path``, the temporary path to write ``path`` to.
    When the block completes, every staged file is renamed onto its target;
    when it raises, every temporary file is removed, so a failing command
    leaves neither partial outputs nor stray temporary files.
    """
    staged: list[tuple[Path, Path]] = []

    def stage(path) -> Path:
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        staged.append((tmp, path))
        return tmp

    try:
        yield stage
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    """Write one header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_float_csv(path, header, values) -> None:
    """`write_csv` of the rows of the 2-D float array ``values``, each field its
    repr, formatted in bulk to the same bytes."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in values.tolist())
