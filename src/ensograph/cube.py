"""Monthly gridded SST cubes: in-memory types, on-disk format, climatology.

A cube on disk is a pair of files sharing one stem: ``<name>.json`` holds
the metadata (grid axes, start month, length, missing sentinel) and
``<name>.f32`` holds the payload as raw little-endian 32-bit floats,
time-major, then latitude, then longitude. Cells whose bits equal the
sentinel value are missing. The format is byte-deterministic: saving the
same cube twice produces identical files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grid import GridSpec
from .months import Month, add_months, check_ym, format_ym

FORMAT_VERSION = 1
DEFAULT_MISSING = -999.0
SST_MIN = -5.0
SST_MAX = 45.0


def _january(cube, year: int) -> int:
    """Row of January `year` in the cube; below 0 or past the end when the cube does not hold it."""
    return 12 * (year - cube.start[0]) + 1 - cube.start[1]


@dataclass
class _BaseCube:
    grid: GridSpec
    start: Month
    values: np.ndarray  # float32 [time, lat, lon]
    missing: np.ndarray  # bool    [time, lat, lon]

    def __post_init__(self):
        self.start = check_ym(self.start)
        self.values = np.asarray(self.values, dtype=np.float32)
        self.missing = np.asarray(self.missing, dtype=bool)
        self._check()

    def _check(self):
        expect = (self.n_time, self.grid.n_lat, self.grid.n_lon)
        if self.values.ndim != 3 or self.values.shape[1:] != expect[1:]:
            raise ValidationError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_lat} lats x {self.grid.n_lon} lons)"
            )
        if self.values.shape[0] < 1:
            raise ValidationError("cube must cover at least one month")
        if self.missing.shape != self.values.shape:
            raise ValidationError("missing mask shape does not match values")
        self._check_values()

    def _check_values(self):
        # min and max read NaN when any value is NaN and an infinity when one is
        # infinite, so when both are finite every value is: two reductions and no
        # whole-cube temporary; otherwise the missing flags are read cell by cell
        if np.isfinite(self.values.min()) and np.isfinite(self.values.max()):
            return
        if not np.all(np.isfinite(self.values) | self.missing):
            raise ValidationError("non-finite value without missing flag")

    @property
    def n_time(self) -> int:
        return self.values.shape[0]

    def month_of(self, t: int) -> Month:
        return add_months(self.start, t)

    @property
    def end(self) -> Month:
        return self.month_of(self.n_time - 1)

    def period_label(self) -> str:
        return f"{format_ym(self.start)}..{format_ym(self.end)}"


@dataclass
class SstCube(_BaseCube):
    """Absolute sea-surface temperatures in degC.

    Non-missing values must fall in the physical plausibility range
    [-5, 45] degC; construction rejects anything outside it.
    """

    def _check_values(self):
        # when every value, flagged or not, is a plausible temperature, no check
        # below can fail; NaN fails this test as infinities do (see _BaseCube)
        if SST_MIN <= self.values.min() and self.values.max() <= SST_MAX:
            return
        super()._check_values()
        bad = ((self.values < SST_MIN) | (self.values > SST_MAX)) & ~self.missing
        if bad.any():
            first = self.values.flat[np.argmax(bad)]
            raise ValidationError(
                f"temperature {first:.3f} degC outside plausible range [{SST_MIN}, {SST_MAX}]"
            )


@dataclass
class AnomalyCube(_BaseCube):
    """Departures from a monthly climatology, degC, same layout as SstCube."""


@dataclass
class Climatology:
    """Per-calendar-month mean state on a grid.

    values[m-1] is the mean field for calendar month m. A cell is missing
    for month m when the base period contained no non-missing sample there.
    """

    grid: GridSpec
    base_period: tuple[int, int]  # inclusive (start_year, end_year)
    values: np.ndarray  # float64 [12, lat, lon]
    missing: np.ndarray  # bool    [12, lat, lon]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.missing = np.asarray(self.missing, dtype=bool)
        y0, y1 = self.base_period
        if y0 > y1:
            raise ValueError(f"empty base period {y0}:{y1}")
        expect = (12, self.grid.n_lat, self.grid.n_lon)
        if self.values.shape != expect or self.missing.shape != expect:
            raise ValidationError(f"climatology shape {self.values.shape}, expected {expect}")


def _payload_path(meta_path: Path) -> Path:
    return meta_path.with_suffix(".f32")


def save_cube(cube: _BaseCube, meta_path, missing_value: float = DEFAULT_MISSING):
    """Write the cube as ``<name>.json`` plus ``<name>.f32``.

    The cube is re-validated first, and the write refuses to proceed when
    any live value would collide bitwise with the missing sentinel.
    """
    cube._check()
    meta_path = Path(meta_path)
    if meta_path.suffix != ".json":
        meta_path = meta_path.with_suffix(meta_path.suffix + ".json")
    sentinel = np.float32(missing_value)
    payload = cube.values.astype("<f4", copy=True)
    collide = (payload.view("<u4") == sentinel.view("<u4")) & ~cube.missing
    if collide.any():
        raise ValidationError(
            f"live cell equals missing sentinel {missing_value}; choose another sentinel"
        )
    payload[cube.missing] = sentinel
    header = {
        "format_version": FORMAT_VERSION,
        "start_year": cube.start[0],
        "start_month": cube.start[1],
        "n_time": cube.n_time,
        "lats": list(cube.grid.lats),
        "lons": list(cube.grid.lons),
        "missing_value": float(sentinel),
        "units": "degC",
    }
    meta_path.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    _payload_path(meta_path).write_bytes(payload.tobytes())
    return meta_path


def load_cube(meta_path) -> SstCube:
    """Read a cube pair from disk and return a validated SstCube."""
    meta_path = Path(meta_path)
    try:
        header = json.loads(meta_path.read_text())
    except ValueError as exc:  # bad UTF-8, bad JSON, or an int literal past Python's 4300-digit limit
        raise ValidationError(f"malformed cube header {meta_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"cube header {meta_path} is not a JSON object")
    for key in ("format_version", "start_year", "start_month", "n_time",
                "lats", "lons", "missing_value", "units"):
        if key not in header:
            raise ValidationError(f"cube header missing field {key!r}")
    for key in ("format_version", "start_year", "start_month", "n_time"):
        if type(header[key]) is not int:
            raise ValidationError(f"cube header field {key!r} must be an integer, got {header[key]!r}")
    if header["format_version"] != FORMAT_VERSION:
        raise ValidationError(f"unsupported format_version {header['format_version']}")
    if header["units"] != "degC":
        raise ValidationError(f"unsupported units {header['units']!r}")
    for key in ("lats", "lons"):
        if not isinstance(header[key], list):
            raise ValidationError(f"cube header field {key!r} must be a list, got {header[key]!r}")
    sentinel = header["missing_value"]
    if type(sentinel) not in (int, float):
        raise ValidationError(f"cube header field 'missing_value' must be a number, got {sentinel!r}")
    try:
        grid = GridSpec(tuple(header["lats"]), tuple(header["lons"]))
        start = check_ym((header["start_year"], header["start_month"]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(str(exc)) from exc
    n_time = header["n_time"]
    if n_time < 1:
        raise ValidationError(f"n_time must be >= 1, got {n_time}")

    payload, expected = _payload_path(meta_path), n_time * grid.n_cells * 4
    found = payload.stat().st_size  # before the read, so a bad header allocates nothing
    if found != expected:
        raise ValidationError(
            f"payload size mismatch: expected {expected} bytes "
            f"({n_time} x {grid.n_lat} x {grid.n_lon} float32), found {found}"
        )
    values = np.fromfile(payload, dtype="<f4").reshape(n_time, grid.n_lat, grid.n_lon)
    missing = values.view("<u4") == np.float32(sentinel).view("<u4")
    values[missing] = 0.0
    return SstCube(grid, start, values, missing)


def climatology(cube: _BaseCube, base_years: tuple[int, int]) -> Climatology:
    """Per-calendar-month mean over the base years, skipping missing cells.

    Every calendar month must be represented at least once inside the base
    period; a month with no time slices at all is an error, while a cell
    that is missing in every base sample becomes missing in the result.
    """
    y0, y1 = int(base_years[0]), int(base_years[1])
    if y0 > y1:
        raise ValueError(f"empty base period {y0}:{y1}")
    # base rows j, j + 12, ... hold calendar month (shift + j) % 12 + 1; each such position is summed
    # in row order from 0.0, whole years [years, 12, lat, lon] in one call, then a ragged last year
    first, stop = max(_january(cube, y0), 0), min(_january(cube, y1 + 1), cube.n_time)
    shift = (cube.start[1] - 1 + first) % 12
    absent = np.setdiff1d(np.arange(12), (shift + np.arange(max(stop - first, 0))) % 12)
    if absent.size:
        raise ValidationError(f"base period {y0}:{y1} contains no data for calendar month {absent[0] + 1}")
    (whole, rest), (miss_whole, miss_rest) = (_years(a[first:stop]) for a in (cube.values, cube.missing))
    sums = np.add.reduce(whole, axis=0, dtype=np.float64, initial=0.0)
    sums[:len(rest)] += rest
    missed = np.count_nonzero(miss_whole, axis=0)
    missed[:len(rest)] += miss_rest
    counts = len(whole) + (np.arange(12) < len(rest))[:, None, None] - missed
    # a cell missing in some base years only is summed again over its live rows alone;
    # one missing in all of them is a missing climatology cell and reads 0.0
    partial = (missed > 0) & (counts > 0)
    for j in np.flatnonzero(partial.any(axis=(1, 2))):
        rows, cells = slice(first + j, stop, 12), partial[j]
        sums[j][cells] = np.add.reduce(cube.values[rows][:, cells], axis=0, dtype=np.float64,
                                       initial=0.0, where=~cube.missing[rows][:, cells])
    vals = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return Climatology(cube.grid, (y0, y1), np.roll(vals, shift, axis=0), np.roll(counts == 0, shift, axis=0))


def _years(a: np.ndarray):
    """`a` as whole years [years, 12, ...] and the trailing months of a ragged last year."""
    whole = 12 * (len(a) // 12)
    return a[:whole].reshape((-1, 12) + a.shape[1:]), a[whole:]


def _by_calendar_month(op, series, rows12, out, **kwargs):
    """out[t] = op(series[t], rows12[t % 12]): one call over the whole years, one over the rest."""
    (years, rest), (out_years, out_rest) = _years(series), _years(out)
    op(years, rows12, out=out_years, **kwargs)
    op(rest, rows12[:len(rest)], out=out_rest, **kwargs)


def anomalies(cube: _BaseCube, clim: Climatology) -> AnomalyCube:
    """Subtract the climatology month-by-month from the cube."""
    if cube.grid != clim.grid:
        raise ValidationError("cube and climatology are on different grids")
    # the climatology rolled so that cube row t meets its row t % 12; float64 differences, stored as float32
    shift = 1 - cube.start[1]
    out = np.empty(cube.values.shape, dtype=np.float32)
    _by_calendar_month(np.subtract, cube.values, np.roll(clim.values, shift, axis=0), out, dtype=np.float64)
    miss = np.empty(cube.values.shape, dtype=bool)
    _by_calendar_month(np.logical_or, cube.missing, np.roll(clim.missing, shift, axis=0), miss)
    np.copyto(out, 0.0, where=miss)
    return AnomalyCube(cube.grid, cube.start, out, miss)


def split_by_years(cube, period: tuple[int, int]):
    """Contiguous sub-cube of the months with year in [y0, y1].

    The cube must cover the whole period; refusing a partial overlap keeps
    sample counts from silently changing when a shorter file is supplied.
    """
    y0, y1 = int(period[0]), int(period[1])
    if y0 > y1:
        raise ValueError(f"empty period {y0}:{y1}")
    first, stop = _january(cube, y0), _january(cube, y1 + 1)
    covered = max(min(stop, cube.n_time) - max(first, 0), 0)
    if covered != stop - first:
        raise ValidationError(f"cube {cube.period_label()} covers {covered} of the {stop - first} months "
                              f"in {y0}:{y1}")
    return dataclasses.replace(cube, start=(y0, 1), values=cube.values[first:stop].copy(),
                               missing=cube.missing[first:stop].copy())
