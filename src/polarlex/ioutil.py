"""Small shared I/O helpers."""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError


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


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def csv_field(text: str) -> str:
    """text as a CSV field: quoted, '"' doubled, if it holds ',', '"', CR or LF.

    write_csv's csv.writer quotes the same fields but one whose only such
    character is CR, which a CSV reader then splits in two rows.
    """
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def not_utf8_error(path: str | Path) -> DataError:
    """The error naming the first line of a file that is not valid UTF-8.

    For a reader that hit UnicodeDecodeError: the decoder reads ahead, so the
    error does not say which line it was in. Lines are counted as a text-mode
    read counts them, at LF, CR and CRLF.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, line in enumerate(data.splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return DataError(f"{path}: line {lineno}: not valid UTF-8")
    return DataError(f"{path}: not valid UTF-8")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
