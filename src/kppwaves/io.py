"""Deterministic file writers and readers for the command-line tools.

All floats are rendered with repr (shortest round-trip form), so identical
inputs produce byte-identical CSV and JSON; nothing time- or host-dependent
goes into data files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import MissingArtifactError


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


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"expected file {path} is missing")
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        return header, [row for row in r if row]


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
    with open(path) as fh:
        return json.load(fh)


def write_float_csv(path: Path, header: list[str], rows) -> None:
    """A table whose rows are tuples of Python floats, as write_csv writes it.

    repr of a Python float is fmt's text, "nan" included, and never needs
    CSV quoting, so each line is one %-format, written without csv.writer.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))


def write_profile_csv(path: Path, xi, f) -> None:
    xi = np.asarray(xi, dtype=float).tolist()
    f = np.asarray(f, dtype=float).tolist()
    write_float_csv(path, ["xi", "f"], zip(xi, f))


def read_profile_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(xi, f) of a profile table: at least 2 rows of finite numbers, xi
    strictly increasing; anything else is a MissingArtifactError naming it."""
    header, rows = read_csv(path)
    if header[:2] != ["xi", "f"]:
        raise MissingArtifactError(f"{path} is not a profile table (header {header})")
    if len(rows) < 2:
        raise MissingArtifactError(f"{path} holds {len(rows)} profile rows; need at least 2")
    try:
        xi = np.array([float(r[0]) for r in rows])
        f = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError) as e:
        raise MissingArtifactError(f"{path} has a malformed profile row ({e})") from None
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(f))):
        raise MissingArtifactError(f"{path} holds non-finite profile values")
    if not np.all(np.diff(xi) > 0.0):
        raise MissingArtifactError(f"{path}: xi is not strictly increasing")
    return xi, f
