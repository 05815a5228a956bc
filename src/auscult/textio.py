"""The package's text files. Every read is UTF-8 and fails as ParseError on
bytes that do not decode; every table is written in the csv module's default
dialect (comma-separated, minimal quoting, \\r\\n line ends)."""

from __future__ import annotations

import csv

from .errors import ParseError


def _read(path, newline, parse):
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ParseError(str(exc)) from None


def read_lines(path) -> list:
    """The file's lines, with \\r\\n and \\r read as \\n."""
    return _read(path, None, list)


def read_csv(path) -> list:
    """The file's rows as lists of cell strings; quoted cells may span lines."""
    return _read(path, "", lambda fh: list(csv.reader(fh)))


def write_csv(path, header, rows) -> None:
    """One header row, then each row of already formatted cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
