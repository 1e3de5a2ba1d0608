"""Deterministic file writers and readers for the command-line tools.

Float tables (trajectories, profiles, fronts, snapshots) are written at
FLOAT_FORMAT's 12 significant digits, a relative error of at most 5e-12,
finer than any of their values is known; everything else, the speeds and
X0 of sweep.csv and every JSON value, keeps repr's exact shortest round-trip
text.  Identical inputs produce byte-identical CSV and JSON; nothing time- or
host-dependent goes into data files.  Float tables are written from their
columns, one %-format per chunk of rows, and a profile is read back in one
conversion.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError, MissingArtifactError

CSV_CHUNK_ROWS = 1024   # rows per %-format: a table's text never exists whole
FLOAT_FORMAT = "%.12g"  # a float table's values: half a unit in the 12th digit


def fmt(x) -> str:
    """Shortest exact decimal form of a float; empty string for None."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return repr(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_json(path: Path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: Path):
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"expected file {path} is missing")
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as e:   # not JSON, not text, or an int past Python's digit limit
        raise MissingArtifactError(f"{path} does not hold valid JSON ({e})") from None


def write_float_csv(path: Path, header: list[str], columns) -> None:
    """Float columns, one per header name, as write_csv writes FLOAT_FORMAT's text.

    That text ("nan", "inf" and "-0" included) never needs CSV quoting, so
    each chunk of CSV_CHUNK_ROWS rows is one %-format of the columns
    interleaved, written as ASCII without csv.writer.  Columns that do not
    match the header in number, or one another in length, are refused before
    the file is touched.
    """
    path = Path(path)
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header) or any(c.ndim != 1 or c.shape != cols[0].shape for c in cols):
        raise InvalidParameterError(
            f"{path.name}: header {header} needs {len(header)} columns of one length; "
            f"got columns of shapes {[c.shape for c in cols]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = np.stack(cols, axis=1)
    line = ",".join([FLOAT_FORMAT] * len(header)) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        for lo in range(0, len(rows), CSV_CHUNK_ROWS):
            part = rows[lo:lo + CSV_CHUNK_ROWS]
            fh.write((line * len(part) % tuple(part.ravel().tolist())).encode("ascii"))


def write_profile_csv(path: Path, xi, f) -> None:
    write_float_csv(path, ["xi", "f"], (xi, f))


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(xi, f) of a profile table: at least 2 rows of finite numbers, xi
    strictly increasing; anything else is a MissingArtifactError naming it.
    Blank lines and columns past the second are ignored."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"expected file {path} is missing")
    head, _, body = path.read_text().partition("\n")
    header = head.rstrip("\r").split(",")
    if header[:2] != ["xi", "f"]:
        raise MissingArtifactError(f"{path} is not a profile table (header {header})")
    try:
        # one conversion of the whole table; loadtxt warns on one without rows
        table = (np.loadtxt(body.splitlines(), delimiter=",", comments=None,
                            usecols=(0, 1), ndmin=2) if body.strip() else np.empty((0, 2)))
    except ValueError as e:
        raise MissingArtifactError(f"{path} has a malformed profile row ({e})") from None
    if len(table) < 2:
        raise MissingArtifactError(f"{path} holds {len(table)} profile rows; need at least 2")
    xi, f = table.T.copy()
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(f))):
        raise MissingArtifactError(f"{path} holds non-finite profile values")
    if not np.all(np.diff(xi) > 0.0):
        raise MissingArtifactError(f"{path}: xi is not strictly increasing")
    return xi, f
