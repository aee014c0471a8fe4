"""Recording experiment results to disk.

Benchmarks and examples write their raw measurements as CSV files so the
numbers quoted in docs/benchmarks.md can be regenerated and re-inspected
without re-running anything.  Only the standard library is used.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Mapping, Optional, Sequence

from ..core.errors import ExperimentError

__all__ = ["write_csv", "read_csv", "write_json", "default_results_dir"]


def default_results_dir(base: Optional[str] = None) -> Path:
    """The directory experiment artifacts are written to (created on demand)."""
    directory = Path(base) if base is not None else Path("results")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def write_csv(path, rows: Sequence[Mapping], fieldnames: Optional[Sequence[str]] = None) -> Path:
    """Write ``rows`` (mappings) to ``path`` as CSV; returns the path.

    The field names default to the union of keys across all rows, in first
    appearance order, so heterogeneous rows are handled gracefully.
    """
    rows = list(rows)
    if not rows:
        raise ExperimentError("refusing to write an empty CSV file")
    if fieldnames is None:
        fieldnames = []
        for row in rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in fieldnames})
    return path


def read_csv(path) -> List[dict]:
    """Read a CSV file written by :func:`write_csv` back into dictionaries.

    Numeric-looking values are converted to ``int`` or ``float``.
    """
    path = Path(path)
    rows: List[dict] = []
    with path.open() as handle:
        for row in csv.DictReader(handle):
            rows.append({key: _parse_value(value) for key, value in row.items()})
    return rows


def write_json(path, payload) -> Path:
    """Write ``payload`` to ``path`` as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return path


def _parse_value(value: str):
    if value is None or value == "":
        return None
    if value in ("True", "False"):
        return value == "True"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value
