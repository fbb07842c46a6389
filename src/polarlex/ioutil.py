"""Small shared I/O helpers: the one text reader and the one CSV dialect."""

from __future__ import annotations

import hashlib
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import DataError

# The largest magnitude of a number read from a seed lexicon, polarity
# lexicon, graph or score file. Every sum polarlex takes of such numbers,
# and every squared difference of two, stays finite.
MAX_MAGNITUDE = 1e100

# A character outside XML 1.0's Char production, which no GraphML file can
# hold. Surrogates are left out: no Unicode text holds one alone.
NON_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def fmt9(x: float) -> str:
    """Fixed 9-decimal formatting used for every float we serialize."""
    return f"{x:.9f}"


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def csv_field(text: str) -> str:
    """text as a CSV field: quoted, '"' doubled, if it holds ',', '"', CR or LF."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return fmt9(value)
    return "" if value is None else csv_field(str(value))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV dialect of every report: LF line ends and csv_field quoting.

    A float cell is written as fmt9, None as a blank cell and anything else as
    its str().
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(csv_field, header)) + "\n")
        fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of pairs, for json's object_pairs_hook; a repeated key
    is a ValueError naming it, where json would keep its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def not_utf8_error(path: str | Path) -> DataError:
    """The error naming the first line of a file that is not valid UTF-8.

    For a reader that hit UnicodeDecodeError: the decoder reads ahead, so the
    error does not say which line it was in. Lines are counted as a text-mode
    read counts them, at LF, CR and CRLF.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines up to and including the one that holds the first bad byte
        lineno = len(data[: exc.start + 1].splitlines())
        return DataError(f"{path}: line {lineno}: not valid UTF-8")
    return DataError(f"{path}: not valid UTF-8")


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """path opened to read as strict UTF-8, newline as open() takes it.

    Bytes that are not UTF-8 raise not_utf8_error(path) when the block reads
    them.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line without its line end) of each line of a text file.

    Lines end at LF, CR or CRLF and are numbered from 1; whitespace-only lines
    are skipped.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, line.rstrip("\n")


def read_rows(
    path: str | Path,
    sep: str,
    n_fields: int,
    header: Sequence[str] = (),
    key: str | None = None,
    comments: bool = False,
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each line of read_lines, split at sep.

    With header key names, line 1 must be '#' and then exactly those
    key=value fields, in that order, and comes first as (1, the values); a
    value may hold '='. Every other row has n_fields fields. With key, the
    first field names its row, and a repeated one is a data error. With
    comments, lines that start with '#' are skipped.
    """
    lines = read_lines(path)
    if header:
        lineno, line = next(lines, (0, ""))
        pairs = [f.partition("=") for f in line[1:].split(sep)] if line.startswith("#") else []
        if lineno != 1 or [(name, eq) for name, eq, _ in pairs] != [(k, "=") for k in header]:
            shown = "#" + sep.join(f"{k}=<{k}>" for k in header)
            raise DataError(f"{path}: line 1: expected the header {shown!r}")
        yield 1, [value for _, _, value in pairs]
    seen: set[str] = set()
    for lineno, line in lines:
        if comments and line.startswith("#"):
            continue
        fields = line.split(sep)
        if len(fields) != n_fields:
            raise DataError(
                f"{path}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        if key is not None:
            if fields[0] in seen:
                raise DataError(f"{path}: line {lineno}: duplicate {key} {fields[0]!r}")
            seen.add(fields[0])
        yield lineno, fields


def check_dimension_name(path: str | Path, lineno: int, name: str) -> str:
    """name, read at line lineno of path, if it can be part of a dimension's
    output file names and GraphML attribute names: a name holding '/', NUL
    or another NON_XML_CHAR is a data error."""
    if "/" in name or "\0" in name:
        raise DataError(f"{path}: line {lineno}: dimension name holds '/' or NUL: {name!r}")
    if bad := NON_XML_CHAR.search(name):
        raise DataError(f"{path}: line {lineno}: dimension name holds {bad[0]!r}, "
                        f"which XML cannot hold: {name!r}")
    return name


def sha256_file(path: str | Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()
