"""Dataset ingestion: strict CSV parsing plus the two embedded examples.

Parsing is strict by design: every retained cell must be numeric ("Inf" /
"-Inf" count as extended reals), and any failure names the offending row
and column.  Non-numeric columns are only tolerated when explicitly
excluded.  A file that cannot be opened, is not UTF-8 or that the csv
module rejects raises DataError naming the file.

``csv.reader`` is the only tokeniser.  Once every row has the header's
width, all kept cells go through ``float()`` in one C-level pass
(``np.fromiter`` over the row-major cells) and one NaN check; ``float()``
accepts exactly the spellings ``_parse_cell`` accepts, with the same values,
apart from NaN.  When that pass fails (a ragged row, a cell ``float()``
rejects, a NaN), a row-major strict scan parses cell by cell with
``_parse_cell`` and raises at the first bad row or cell, so the error and
its message are those of a cell-by-cell parse.

Embedded data:

* iris.csv -- Anderson/Fisher's 150-flower measurements (the corrected
  variant distributed with R, where rows 35 and 38 carry the fixed petal
  and sepal values); species retained as a text column.
* sleep.csv -- Cushny & Peebles' sleep-gain data as shipped in R: extra
  hours of sleep, drug group 1/2, subject ID, n = 20.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import DataError

_EXTENDED = {
    "inf": math.inf,
    "+inf": math.inf,
    "-inf": -math.inf,
    "infinity": math.inf,
    "+infinity": math.inf,
    "-infinity": -math.inf,
}

_MISSING = {"", "na", "nan", "n/a", "null"}


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric table with unique column names."""

    columns: tuple[str, ...]
    data: np.ndarray  # shape (rows, len(columns)), float64

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise DataError("column names must be unique")
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise DataError("data shape does not match the column list")
        self.data.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        """One column by name; unknown names list the available ones."""
        try:
            j = self.columns.index(name)
        except ValueError:
            raise DataError(
                f"no column {name!r}; available: {list(self.columns)}"
            ) from None
        return self.data[:, j]

    def select(self, names) -> "Dataset":
        cols = [self.column(n) for n in names]
        return Dataset(columns=tuple(names), data=np.column_stack(cols))


def _parse_cell(text: str, row: int, col: str) -> float:
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in _MISSING:
        raise DataError(f"missing value at row {row}, column {col!r}")
    if lowered in _EXTENDED:
        return _EXTENDED[lowered]
    try:
        value = float(stripped)
    except ValueError:
        raise DataError(
            f"non-numeric cell {stripped!r} at row {row}, column {col!r}"
        ) from None
    if math.isnan(value):
        raise DataError(f"NaN cell at row {row}, column {col!r}")
    return value


def _strict_scan(body, header, keep, source):
    """Row-major parse, cell by cell: the first bad cell or ragged row raises."""
    width = len(header)
    out = np.empty((len(body), len(keep)))
    for i, row in enumerate(body, start=2):
        if len(row) != width:
            raise DataError(
                f"{source}: ragged row {i} has {len(row)} cells, expected {width}"
            )
        for k, j in enumerate(keep):
            out[i - 2, k] = _parse_cell(row[j], i, header[j])
    return out


def _convert(body, header, keep, source):
    """All kept cells through float() in one C-level pass, row-major; any
    failure falls back to the strict scan, which locates and reports it."""
    if set(map(len, body)) == {len(header)}:
        if len(keep) == len(header):
            cells = chain.from_iterable(body)
        elif len(keep) == 1:
            cells = map(itemgetter(keep[0]), body)
        else:
            cells = chain.from_iterable(map(itemgetter(*keep), body))
        try:
            out = np.fromiter(map(float, cells), float, count=len(body) * len(keep))
        except ValueError:
            pass
        else:
            if not np.isnan(out).any():
                return out.reshape(len(body), len(keep))
    return _strict_scan(body, header, keep, source)


def _parse_rows(rows, exclude, source):
    rows = list(rows)
    if not rows:
        raise DataError(f"{source}: empty input")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise DataError(f"{source}: duplicate column names {header}")
    keep = [j for j, name in enumerate(header) if name not in set(exclude)]
    if not keep:
        raise DataError(f"{source}: no columns left after exclusion")
    names = tuple(header[j] for j in keep)
    out = _convert(rows[1:], header, keep, source)
    if out.shape[0] == 0:
        raise DataError(f"{source}: no data rows")
    return Dataset(columns=names, data=out)


def load_csv(path: str, delimiter: str = ",", header: bool = True, exclude=()) -> Dataset:
    """Load a strict numeric CSV.

    header=False synthesizes names c1..cp.  Columns named in `exclude` are
    dropped before numeric validation (e.g. a species label).
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            raw = list(csv.reader(handle, delimiter=delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not header:
        if not raw:
            raise DataError(f"{path}: empty input")
        names = [f"c{j + 1}" for j in range(len(raw[0]))]
        raw = [names] + raw
    return _parse_rows(raw, exclude, path)


def _load_embedded(name: str, exclude=()) -> Dataset:
    ref = resources.files("kemeny.data").joinpath(name)
    with ref.open(newline="") as handle:
        raw = list(csv.reader(handle))
    return _parse_rows(raw, exclude, name)


def load_iris() -> Dataset:
    """The embedded 150 x 4 iris measurements (species column dropped)."""
    return _load_embedded("iris.csv", exclude=("species",))


def load_sleep() -> Dataset:
    """The embedded 20 x 3 sleep dataset (extra, group, ID)."""
    return _load_embedded("sleep.csv")


EMBEDDED = {"iris": load_iris, "sleep": load_sleep}


def load_dataset(spec: str, delimiter: str = ",", exclude=()) -> Dataset:
    """Resolve a dataset argument: an embedded name or a CSV path."""
    if spec in EMBEDDED:
        return EMBEDDED[spec]()
    return load_csv(spec, delimiter=delimiter, exclude=exclude)
