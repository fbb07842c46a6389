"""Small shared I/O helpers."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from typing import Iterable, Sequence


def fmt9(x: float) -> str:
    """Fixed 9-decimal formatting used for every float we serialize."""
    return f"{x:.9f}"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV dialect of every report: LF line ends and minimal quoting.

    A float cell is written as fmt9; anything else as the csv module writes
    it, None as a blank cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt9(c) if isinstance(c, float) else c for c in row] for row in rows)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
