"""Branch and region tables, single records, and their one text format.

Every output of the command line goes through `emit`. A BranchTable or
RegionTable is written as CSV (a header, then one line per row) or as a
JSON array with one object per line; a single record, a dict such as the
eigen and critical results, as a one-row CSV or one JSON object. Floats
are serialized with 17 significant digits, which round-trips IEEE doubles
exactly, and booleans as lowercase true/false. A missing value is an empty
CSV cell or JSON null: failed rows keep their marker in the status column
and leave the value fields empty. `parse_table` reads a branch table back
from either format, field-exact.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

__all__ = ["BranchRow", "BranchTable", "RegionRow", "RegionTable", "emit", "parse_table"]

BRANCH_COLUMNS = [
    "lambda",
    "branch",
    "energy",
    "linf_norm",
    "residual",
    "positive_on_plus",
    "dead_cores",
    "iterations",
    "status",
]
# the type of each branch column, in BranchRow's field order
_BRANCH_TYPES = (float, str, float, float, float, bool, int, int, str)

REGION_COLUMNS = ["p", "q", "classification", "picone_holds", "picone_min", "existence_p_gt_2q"]


def _cell(value) -> str:
    """A value as a CSV cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value) -> str:
    """A value as JSON text; numbers and booleans as in CSV."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    return _cell(value)


def _json_object(columns, values) -> str:
    return "{" + ", ".join([f'"{c}": {_json_value(v)}' for c, v in zip(columns, values)]) + "}"


def _text(table, format: str) -> str:
    """The text of a table, or of one record given as a dict."""
    if isinstance(table, dict):
        columns, records = list(table), [tuple(table.values())]
    else:
        columns = table.columns
        names = [f.name for f in fields(table.rows[0])] if table.rows else []
        records = [tuple(getattr(row, name) for name in names) for row in table.rows]
    if format == "csv":
        return "".join(",".join(map(_cell, values)) + "\n" for values in [columns, *records])
    if format == "json":
        objects = [_json_object(columns, values) for values in records]
        if isinstance(table, dict):
            return objects[0] + "\n"
        return "[\n" + ",\n".join("  " + obj for obj in objects) + "\n]\n"
    raise ConfigError(f"unknown output format: {format!r}")


def _parse_value(value, kind):
    """A CSV cell or JSON value as a column of the given type; empty and null are None."""
    if kind is str:
        return value
    if value is None or value == "":
        return None
    if kind is bool and not isinstance(value, bool):
        if value not in ("true", "false"):
            raise ConfigError(f"bad boolean field: {value!r}")
        return value == "true"
    return kind(value)


@dataclass(frozen=True)
class BranchRow:
    lam: float
    branch: str
    energy: float | None = None
    linf_norm: float | None = None
    residual: float | None = None
    positive_on_plus: bool | None = None
    dead_cores: int | None = None
    iterations: int | None = None
    status: str = "ok"


@dataclass(frozen=True)
class BranchTable:
    rows: tuple[BranchRow, ...]
    columns = BRANCH_COLUMNS  # a class attribute, not a field

    def sorted(self) -> "BranchTable":
        return BranchTable(tuple(sorted(self.rows, key=lambda r: (r.branch, r.lam))))

    def ok_rows(self) -> tuple[BranchRow, ...]:
        return tuple(r for r in self.rows if r.status == "ok")

    def to_csv(self) -> str:
        return _text(self, "csv")


@dataclass(frozen=True)
class RegionRow:
    p: float
    q: float
    classification: str
    picone_holds: bool
    picone_min: float
    existence_p_gt_2q: bool


@dataclass(frozen=True)
class RegionTable:
    rows: tuple[RegionRow, ...]
    columns = REGION_COLUMNS  # a class attribute, not a field

    def to_csv(self) -> str:
        return _text(self, "csv")


def emit(table, path, format: str = "csv") -> None:
    """Write a table, or one record given as a dict, as csv or json.

    The text goes to stdout when path is None.
    """
    text = _text(table, format)
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def parse_table(path) -> BranchTable:
    """Read a branch table back from a csv or json file (field-exact)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("["):
        records = json.loads(text)
    else:
        header, *lines = [ln.split(",") for ln in text.splitlines() if ln != ""]
        if header != BRANCH_COLUMNS:
            raise ConfigError(f"unexpected CSV header: {header}")
        records = [dict(zip(BRANCH_COLUMNS, cells)) for cells in lines]
    return BranchTable(
        tuple(
            BranchRow(*(_parse_value(rec[c], kind) for c, kind in zip(BRANCH_COLUMNS, _BRANCH_TYPES)))
            for rec in records
        )
    )
