"""CSV tables written column by column.

Every CSV the package writes has one header row and then one row per
entry of equal-length columns.  The rows come out byte for byte as
``csv.writer`` writes the repr strings of the values (comma separated,
``\\r\\n`` terminated, nothing to quote), but each column turns into
Python numbers by ``tolist`` and each row is one string join.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# rows turned into Python numbers at a time; bounds the objects a large
# table holds while it is written (a whole 28 542-edge transition list
# would add about 5 MB to the peak resident memory of a 10-spin run)
ROWS_PER_WRITE = 4096


def write_csv(path: str | Path, header: list, columns: list, labels: list = ()) -> None:
    """Write ``header`` and the rows of ``columns``, each value as its repr.

    The header goes through ``csv.writer``, which quotes unusual names.
    A float is written as the repr of the Python float (the shortest
    string that reads back to it), an integer as its digits.  ``labels``,
    when given, is a leading column of plain strings written as they are.
    """
    columns = [np.asarray(column) for column in columns]
    labels = list(labels)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), ROWS_PER_WRITE):
            window = slice(start, start + ROWS_PER_WRITE)
            rows = zip(*(column[window].tolist() for column in columns))
            lines = (",".join(map(repr, row)) for row in rows)
            if labels:
                lines = (f"{label},{line}" for label, line in zip(labels[window], lines))
            fh.writelines(line + "\r\n" for line in lines)
