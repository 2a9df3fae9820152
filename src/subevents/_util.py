"""Small shared helpers: deterministic hashing, float formatting, the
decoding and line framing of input files, and the framing and atomic
writing of the artifacts the stages hand to each other."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import reprlib
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import IO, TextIO, TypeVar

from .errors import InputFormatError

T = TypeVar("T")

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def fnv1a_32(data: bytes) -> int:
    """32-bit FNV-1a hash; stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFF
    return h


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def format_float(value: float) -> str:
    """Shortest round-trip decimal form, used for deterministic artifacts."""
    return repr(float(value))


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text, dropping a leading byte-order mark;
    bytes that are not UTF-8, met anywhere inside the ``with`` block, raise
    InputFormatError naming the path (with no line: the text layer decodes
    in blocks)."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_list_file(
    path: str | Path | None, bundled: str, bundled_name: str
) -> tuple[str | Path, list[tuple[int, str]]]:
    """The entries of a one-entry-per-line list file and the name to report
    it by: (lineno, stripped line) for each line that is neither blank nor
    a '#' comment. With no path, the bundled data file `bundled` is read
    and reported as `bundled_name`."""
    if path is None:
        text = resources.files("subevents.data").joinpath(bundled).read_text("utf-8")
        path = bundled_name
    else:
        with open_text(path) as fh:
            text = fh.read()
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append((lineno, line))
    return path, entries


@contextmanager
def replacing(path: str | Path, mode: str = "x", **kwargs) -> Iterator[IO]:
    """Open a new temp file next to `path` (``open(tmp, mode, **kwargs)``,
    `mode` "x" or "xb") and, when the ``with`` block ends without an
    exception, move it onto `path`, so a reader sees the old file or the
    new one whole, never a part. The temp file gets the mode the umask
    leaves, as any new file; it is removed when the write fails."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 through `replacing`."""
    with replacing(path, encoding="utf-8") as fh:
        fh.write(text)


def write_table(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """Write a header line and one CSV record per row (csv module defaults),
    through `replacing`."""
    with replacing(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(
    path: str | Path,
    header: Sequence[str],
    parse_row: Callable[[list[str]], T],
) -> list[T]:
    """Read a file written by `write_table`, one `parse_row(record)` per record.

    A wrong header or field count, a `ValueError` from `parse_row` or a CSV
    framing error (unterminated quote, field over `csv.field_size_limit()`)
    raises InputFormatError naming the path and the record's first line;
    bytes that are not UTF-8 raise it naming the path.
    """
    parsed = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh, strict=True)
        start = 1  # first line of the record being read
        try:
            if next(reader, None) != list(header):
                raise InputFormatError(f"{path}:1: expected header {','.join(header)}")
            start = reader.line_num + 1
            for row in reader:
                if len(row) != len(header):
                    raise InputFormatError(
                        f"{path}:{start}: expected {len(header)} fields, got {len(row)}"
                    )
                try:
                    parsed.append(parse_row(row))
                except ValueError as exc:
                    raise InputFormatError(
                        f"{path}:{start}: malformed row {reprlib.repr(row)}"
                    ) from exc
                start = reader.line_num + 1
        except csv.Error as exc:
            raise InputFormatError(f"{path}:{start}: {exc}") from exc
    return parsed


def write_json(path: str | Path, data: object) -> None:
    """Indented JSON plus a trailing newline, through `replacing`."""
    with replacing(path, encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
