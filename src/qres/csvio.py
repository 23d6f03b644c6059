"""CSV input, loaded only to read one: ``exec_times_csv`` and ``eval``'s vector.

A ``csv.Error`` is raised as :class:`~qres.instance.InstanceError` with its text.
"""

from __future__ import annotations

import csv
import os
from typing import Callable, Iterator

from .instance import InstanceError, _triple_entries
from .units import parse_integer, parse_seconds

_CSV_COLUMNS = ("circuit_id", "provider_id", "machine_id", "seconds")
_RESERVATION_COLUMNS = ("circuit_id", "provider_id", "machine_id", "reserved")


def _csv_records(
    reader: csv.DictReader,
    columns: tuple[str, ...],
    skip: Callable[[dict], bool] | None = None,
) -> Iterator[tuple[str, dict]]:
    """The rows of a CSV, each with its line number and every column filled.

    A row with more fields than the header files the rest under ``None``,
    and a row with fewer has ``None`` for each missing column. Rows for
    which ``skip`` is true are passed over.
    """
    for row in reader:
        if skip is not None and skip(row):
            continue
        where = f"line {reader.line_num}"
        if None in row or any(row.get(col) is None for col in columns):
            raise InstanceError(f"{where}: malformed row (expected 4 columns)")
        for col in columns:
            if not row[col]:
                raise InstanceError(f"{where}: empty {col}")
        yield where, row


def read_exec_times_csv(path: str | os.PathLike[str]) -> dict[tuple[str, str, str], int]:
    """The execution time of each triple from the file ``exec_times_csv`` names."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise InstanceError(f"exec_times_csv: {exc}") from exc
    with handle:
        try:
            # A space after a comma is ignored, in the header and in every row.
            reader = csv.DictReader(handle, skipinitialspace=True)
            header = reader.fieldnames
            if header is not None and tuple(header) != _CSV_COLUMNS:
                raise InstanceError(
                    f"execution-time CSV header must be {','.join(_CSV_COLUMNS)}, "
                    f"got {','.join(header)}"
                )
            records = _csv_records(reader, _CSV_COLUMNS)
            return _triple_entries(records, _CSV_COLUMNS, parse_seconds)
        except csv.Error as exc:
            raise InstanceError(str(exc)) from exc


def _is_total_row(row: dict) -> bool:
    """The summary row of a solution CSV: no triple, only sums."""
    return row["circuit_id"] == "TOTAL" and row["provider_id"] == row["machine_id"] == ""


def load_reservations(path: str | os.PathLike[str]) -> dict[tuple[str, str, str], int]:
    """A reservation vector from a CSV file, one level per triple.

    The header must name the columns circuit_id, provider_id, machine_id
    and reserved once each, in any order; other columns are ignored. The
    ``TOTAL`` row that ends ``qres solve`` output is skipped, so a solved
    CSV reads back as its reservation vector.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            reader = csv.DictReader(handle)
            header = reader.fieldnames or []
            if not set(_RESERVATION_COLUMNS).issubset(header):
                raise InstanceError(
                    f"reservations CSV needs columns {','.join(_RESERVATION_COLUMNS)}"
                )
            for column in _RESERVATION_COLUMNS:
                if header.count(column) > 1:
                    raise InstanceError(
                        f"reservations CSV header names {column} more than once"
                    )
            records = _csv_records(reader, _RESERVATION_COLUMNS, _is_total_row)
            return _triple_entries(records, _RESERVATION_COLUMNS, parse_integer)
        except csv.Error as exc:
            raise InstanceError(str(exc)) from exc
