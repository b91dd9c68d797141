import json

import numpy as np
import pytest

from ensograph.cube import (
    AnomalyCube,
    SstCube,
    anomalies,
    climatology,
    load_cube,
    save_cube,
    split_by_years,
)
from ensograph.errors import ValidationError
from ensograph.grid import GridSpec
from helpers import random_sst, small_grid


def test_cube_shape_mismatch_rejected():
    g = small_grid()
    values = np.zeros((5, g.n_lat + 1, g.n_lon), dtype=np.float32)
    with pytest.raises(ValidationError):
        SstCube(g, (1950, 1), values, np.zeros(values.shape, dtype=bool))


def test_cube_rejects_nan_in_live_cells():
    g = small_grid()
    values = np.full((2, g.n_lat, g.n_lon), 20.0, dtype=np.float32)
    missing = np.zeros(values.shape, dtype=bool)
    values[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        SstCube(g, (1950, 1), values, missing)
    # the same NaN is fine once the cell is flagged missing
    missing[0, 0, 0] = True
    SstCube(g, (1950, 1), values, missing)


def test_sst_plausibility_gate():
    g = small_grid()
    values = np.full((2, g.n_lat, g.n_lon), 20.0, dtype=np.float32)
    missing = np.zeros(values.shape, dtype=bool)
    for bad in (46.0, -6.0):
        v = values.copy()
        v[1, 0, 0] = bad
        v[1, 1, 1] = 50.0
        with pytest.raises(ValidationError, match=f"temperature {bad:.3f} degC"):
            SstCube(g, (1950, 1), v, missing)
    # a missing cell's value is not a temperature
    v = values.copy()
    v[1, 0, 0] = 46.0
    flagged = missing.copy()
    flagged[1, 0, 0] = True
    SstCube(g, (1950, 1), v, flagged)
    # anomalies carry no such gate
    AnomalyCube(g, (1950, 1), values - 20.0, missing)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite value without missing flag"),
    (np.inf, "non-finite value without missing flag"),
    (-np.inf, "non-finite value without missing flag"),
    (45.5, r"temperature 45\.500 degC outside plausible range \[-5\.0, 45\.0\]"),
    (-7.0, r"temperature -7\.000 degC outside plausible range \[-5\.0, 45\.0\]"),
])
def test_sst_checks_give_each_value_its_outcome_and_message(bad, message):
    g = small_grid()
    values = np.full((3, g.n_lat, g.n_lon), 20.0, dtype=np.float32)
    missing = np.zeros(values.shape, dtype=bool)
    values[2, 1, 3] = bad
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SstCube(g, (1950, 1), values, missing)
    missing[2, 1, 3] = True  # a flagged cell may hold anything
    SstCube(g, (1950, 1), values, missing)


@pytest.mark.parametrize("non_finite", [np.nan, np.inf])
def test_non_finite_value_is_reported_before_an_out_of_range_one(non_finite):
    g = small_grid()
    values = np.full((3, g.n_lat, g.n_lon), 20.0, dtype=np.float32)
    values[0, 0, 0] = 60.0  # first in memory order
    values[1, 2, 2] = non_finite
    with pytest.raises(ValidationError, match="^non-finite value without missing flag$"):
        SstCube(g, (1950, 1), values, np.zeros(values.shape, dtype=bool))


@pytest.mark.parametrize("non_finite", [np.nan, np.inf, -np.inf])
def test_anomaly_cube_rejects_a_non_finite_live_cell_and_keeps_a_missing_one(non_finite):
    g = small_grid()
    values = np.random.default_rng(12).standard_normal((3, g.n_lat, g.n_lon)).astype(np.float32)
    missing = np.zeros(values.shape, dtype=bool)
    values[1, 2, 0] = non_finite
    with pytest.raises(ValidationError, match="^non-finite value without missing flag$"):
        AnomalyCube(g, (1950, 1), values, missing)
    missing[1, 2, 0] = True
    AnomalyCube(g, (1950, 1), values, missing)


def test_month_bookkeeping():
    cube = random_sst(np.random.default_rng(0), n_time=14, start=(1999, 11))
    assert cube.month_of(0) == (1999, 11)
    assert cube.month_of(2) == (2000, 1)
    assert cube.end == (2000, 12)
    assert cube.period_label() == "1999-11..2000-12"


def test_round_trip_is_bitwise_over_random_cubes(tmp_path):
    rng = np.random.default_rng(42)
    for i in range(100):
        n_lat = int(rng.integers(1, 5))
        n_lon = int(rng.integers(1, 6))
        n_time = int(rng.integers(1, 40))
        grid = small_grid(n_lat=n_lat, n_lon=n_lon)
        cube = random_sst(rng, grid=grid, n_time=n_time,
                          start=(int(rng.integers(1800, 2000)), int(rng.integers(1, 13))),
                          missing_frac=float(rng.random() * 0.3))
        path = save_cube(cube, tmp_path / f"c{i}.json")
        back = load_cube(path)
        assert back.grid == cube.grid
        assert back.start == cube.start
        np.testing.assert_array_equal(back.missing, cube.missing)
        live = ~cube.missing
        assert np.array_equal(
            back.values.view(np.uint32)[live], cube.values.view(np.uint32)[live]
        )


def test_header_is_single_compact_json_line(tmp_path):
    cube = random_sst(np.random.default_rng(1))
    path = save_cube(cube, tmp_path / "c.json")
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    header = json.loads(text)
    assert list(header) == sorted(header)
    assert header["units"] == "degC"
    assert header["format_version"] == 1


def test_save_refuses_sentinel_collision(tmp_path):
    g = GridSpec((0.0,), (100.0,))
    values = np.array([[[20.0]], [[25.0]]], dtype=np.float32)
    missing = np.zeros(values.shape, dtype=bool)
    cube = SstCube(g, (1950, 1), values, missing)
    with pytest.raises(ValidationError):
        save_cube(cube, tmp_path / "c.json", missing_value=25.0)
    # a sentinel no live cell hits is fine
    save_cube(cube, tmp_path / "c.json", missing_value=-999.0)


def test_load_rejects_truncated_payload(tmp_path):
    cube = random_sst(np.random.default_rng(2), n_time=10)
    path = save_cube(cube, tmp_path / "c.json")
    payload = path.with_suffix(".f32")
    payload.write_bytes(payload.read_bytes()[:-8])
    with pytest.raises(ValidationError, match="bytes"):
        load_cube(path)


def test_load_rejects_header_problems(tmp_path):
    cube = random_sst(np.random.default_rng(3), n_time=4)
    path = save_cube(cube, tmp_path / "c.json")
    header = json.loads(path.read_text())

    bad = dict(header)
    del bad["n_time"]
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="n_time"):
        load_cube(path)

    bad = dict(header, format_version=99)
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="format_version"):
        load_cube(path)

    bad = dict(header, units="K")
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="units"):
        load_cube(path)

    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_cube(path)

    path.write_text("5")
    with pytest.raises(ValidationError, match="JSON object"):
        load_cube(path)


@pytest.mark.parametrize("field, value", [
    ("n_time", "12x"),
    ("n_time", None),
    ("n_time", 1.5),
    ("lats", 5.0),
])
def test_load_rejects_mistyped_header_field(tmp_path, field, value):
    cube = random_sst(np.random.default_rng(4), n_time=4)
    path = save_cube(cube, tmp_path / "c.json")
    header = json.loads(path.read_text())
    header[field] = value
    path.write_text(json.dumps(header))
    with pytest.raises(ValidationError, match=field):
        load_cube(path)


def test_climatology_matches_brute_force():
    rng = np.random.default_rng(7)
    cube = random_sst(rng, n_time=10 * 12, start=(1950, 1), missing_frac=0.15)
    clim = climatology(cube, (1952, 1959))
    assert clim.values.dtype == np.float64

    vals = cube.values.astype(np.float64)
    for m in range(12):
        for i in range(cube.grid.n_lat):
            for j in range(cube.grid.n_lon):
                acc, count = 0.0, 0
                for t in range(cube.n_time):
                    y, mo = cube.month_of(t)
                    if 1952 <= y <= 1959 and mo == m + 1 and not cube.missing[t, i, j]:
                        acc += vals[t, i, j]
                        count += 1
                if count == 0:
                    assert clim.missing[m, i, j]
                else:
                    assert not clim.missing[m, i, j]
                    assert abs(clim.values[m, i, j] - acc / count) < 1e-12


def test_climatology_requires_every_month_in_base():
    cube = random_sst(np.random.default_rng(8), n_time=18, start=(1950, 1))
    # 1950-01..1951-06: July..December 1951 missing from the second year but
    # present in the first, so a (1950, 1950) base works
    climatology(cube, (1950, 1950))
    with pytest.raises(ValidationError):
        climatology(cube, (1951, 1951))
    with pytest.raises(ValidationError):
        climatology(cube, (1940, 1945))


def test_anomalies_of_constant_cube_are_exact_zero():
    g = small_grid()
    values = np.full((24, g.n_lat, g.n_lon), 21.5, dtype=np.float32)
    cube = SstCube(g, (1950, 1), values, np.zeros(values.shape, dtype=bool))
    clim = climatology(cube, (1950, 1951))
    anoms = anomalies(cube, clim)
    assert isinstance(anoms, AnomalyCube)
    assert anoms.values.dtype == np.float32
    assert np.all(anoms.values == 0.0)


def test_anomalies_zero_mean_per_calendar_month():
    rng = np.random.default_rng(9)
    cube = random_sst(rng, n_time=8 * 12, start=(1950, 1))
    anoms = anomalies(cube, climatology(cube, (1950, 1957)))
    for m in range(12):
        month_mean = anoms.values[m::12].mean(axis=0)
        np.testing.assert_allclose(month_mean, 0.0, atol=1e-5)


def test_anomalies_propagate_missing():
    rng = np.random.default_rng(10)
    cube = random_sst(rng, n_time=36, start=(1950, 1), missing_frac=0.1)
    anoms = anomalies(cube, climatology(cube, (1950, 1952)))
    assert np.all(anoms.missing[cube.missing])


def test_anomalies_grid_mismatch_rejected():
    rng = np.random.default_rng(11)
    cube = random_sst(rng, n_time=24)
    other = random_sst(rng, grid=small_grid(n_lat=4), n_time=24)
    with pytest.raises(ValidationError):
        anomalies(cube, climatology(other, (1950, 1951)))


def test_split_by_years_counts():
    rng = np.random.default_rng(12)
    n = (2020 - 1871 + 1) * 12
    cube = random_sst(rng, n_time=n, start=(1871, 1))
    first = split_by_years(cube, (1871, 1973))
    assert first.n_time == 1236
    assert first.start == (1871, 1)
    assert first.end == (1973, 12)
    second = split_by_years(cube, (1984, 2020))
    assert second.n_time == 444
    assert second.start == (1984, 1)
    assert type(second) is type(cube)


def test_split_by_years_preserves_type_and_rejects_uncovered():
    rng = np.random.default_rng(13)
    cube = random_sst(rng, n_time=36, start=(1950, 1))
    anoms = anomalies(cube, climatology(cube, (1950, 1952)))
    part = split_by_years(anoms, (1951, 1951))
    assert isinstance(part, AnomalyCube)
    np.testing.assert_array_equal(part.values, anoms.values[12:24])
    with pytest.raises(ValidationError):
        split_by_years(cube, (1949, 1950))
    with pytest.raises(ValidationError):
        split_by_years(cube, (1952, 1953))


# ------------------------------------------ byte identity with whole-cube formulas
# load_cube reads the payload straight into its array; climatology sums whole
# years in one float64 reduction and redoes the masked sum only on cells missing
# in some base years; anomalies subtract the climatology rolled to the cube's
# start month, whole years at once. The whole-cube formulas below are the
# reference they must match bit for bit.

def _whole_cube_load(meta_path):
    header = json.loads(meta_path.read_text())
    flat = np.frombuffer(meta_path.with_suffix(".f32").read_bytes(), dtype="<f4")
    missing = flat.view("<u4") == np.float32(header["missing_value"]).view("<u4")
    values = flat.copy().reshape(header["n_time"], len(header["lats"]), len(header["lons"]))
    missing = missing.reshape(values.shape)
    values[missing] = 0.0
    return values, missing


def _whole_cube_climatology(cube, base_years):
    years = (cube.start[0] * 12 + cube.start[1] - 1 + np.arange(cube.n_time)) // 12
    mons = (cube.start[1] - 1 + np.arange(cube.n_time)) % 12 + 1
    in_base = (years >= base_years[0]) & (years <= base_years[1])
    vals = np.zeros((12,) + cube.values.shape[1:], dtype=np.float64)
    miss = np.zeros_like(vals, dtype=bool)
    data = cube.values.astype(np.float64)
    data[cube.missing] = 0.0
    for m in range(1, 13):
        sel = in_base & (mons == m)
        counts = (~cube.missing[sel]).sum(axis=0)
        sums = data[sel].sum(axis=0)
        empty = counts == 0
        vals[m - 1] = sums / np.where(empty, 1, counts)
        miss[m - 1] = empty
    return vals, miss


def _whole_cube_anomalies(cube, clim):
    idx = (cube.start[1] - 1 + np.arange(cube.n_time)) % 12
    out = cube.values.astype(np.float64) - clim.values[idx]
    miss = cube.missing | clim.missing[idx]
    out[miss] = 0.0
    return out.astype(np.float32), miss


def _cube_with_live_values_under_the_mask(rng, n_time, start, missing_frac=0.2):
    """A cube with missing cells that still hold in-range values, so any
    skipped masking step shows up in the sums, and with live negative zeros.

    With missing_frac > 0 one cell is missing throughout (a missing
    climatology cell) and the random mask leaves others missing in some
    months only; cell (1, 1) is a live -0.0 throughout and cell (1, 2) is
    -0.0 in every other month, live or masked.
    """
    g = small_grid(n_lat=4, n_lon=5)
    values = (20.0 + 3.0 * rng.standard_normal((n_time, g.n_lat, g.n_lon))).astype(np.float32)
    missing = rng.random(values.shape) < missing_frac
    if missing_frac:
        missing[:, 0, 0] = True
    missing[:, 1, 1] = False
    values[:, 1, 1] = -0.0
    values[::2, 1, 2] = -0.0
    return SstCube(g, start, values, missing)


def _assert_climatology_matches_whole_cube_formula(cube, base_years):
    clim = climatology(cube, base_years)
    want_vals, want_miss = _whole_cube_climatology(cube, base_years)
    np.testing.assert_array_equal(clim.values.view(np.uint64), want_vals.view(np.uint64))
    np.testing.assert_array_equal(clim.missing, want_miss)
    return clim


def _assert_anomalies_match_whole_cube_formula(cube, clim):
    anoms = anomalies(cube, clim)
    want_vals, want_miss = _whole_cube_anomalies(cube, clim)
    assert anoms.values.dtype == np.float32
    np.testing.assert_array_equal(anoms.values.view(np.uint32), want_vals.view(np.uint32))
    np.testing.assert_array_equal(anoms.missing, want_miss)


@pytest.mark.parametrize("n_time, start", [(7, (1953, 5)), (11, (1950, 1)), (12, (1952, 12)),
                                           (61, (1949, 11)), (150, (1950, 3))])
def test_cube_stages_match_whole_cube_formulas_bitwise(tmp_path, n_time, start):
    rng = np.random.default_rng([n_time, start[1]])
    base = _cube_with_live_values_under_the_mask(rng, 96, (1949, 7))
    clim = _assert_climatology_matches_whole_cube_formula(base, (1950, 1955))
    assert clim.missing[:, 0, 0].all()
    # cells missing in some base years only, where the masked sum is redone
    base_missing = base.missing[6:78].reshape(6, 12, 4, 5).sum(axis=0)
    assert ((base_missing > 0) & (base_missing < 6)).any()
    # the all -0.0 cell sums from +0.0, as a masked sum does
    assert not clim.missing[:, 1, 1].any()
    assert (clim.values[:, 1, 1].view(np.uint64) == 0).all()

    cube = _cube_with_live_values_under_the_mask(rng, n_time, start)
    _assert_anomalies_match_whole_cube_formula(cube, clim)

    path = save_cube(cube, tmp_path / "c.json")
    loaded = load_cube(path)
    want_vals, want_miss = _whole_cube_load(path)
    np.testing.assert_array_equal(loaded.values.view(np.uint32), want_vals.view(np.uint32))
    np.testing.assert_array_equal(loaded.missing, want_miss)
    np.testing.assert_array_equal(loaded.missing, cube.missing)


@pytest.mark.parametrize("base_years", [(1949, 1957), (1949, 1950), (1956, 1957), (1950, 1955), (1952, 1952)])
def test_climatology_over_a_partly_covered_base_matches_whole_cube_formula_bitwise(base_years):
    # the cube runs 1949-07..1957-06, so a base of 1949 or 1957 is a ragged year
    # and the whole-year block starts in July
    rng = np.random.default_rng(list(base_years))
    cube = _cube_with_live_values_under_the_mask(rng, 96, (1949, 7))
    clim = _assert_climatology_matches_whole_cube_formula(cube, base_years)
    assert clim.missing[:, 0, 0].all()


@pytest.mark.parametrize("base_years, month", [((1949, 1949), 1), ((1957, 1957), 7), ((1960, 1961), 1),
                                               ((1940, 1941), 1)])
def test_climatology_names_the_first_calendar_month_without_base_data(base_years, month):
    cube = _cube_with_live_values_under_the_mask(np.random.default_rng(4), 96, (1949, 7))
    with pytest.raises(ValidationError, match=f"contains no data for calendar month {month}$"):
        climatology(cube, base_years)


@pytest.mark.parametrize("clim_has_missing", [True, False])
@pytest.mark.parametrize("start_month", range(1, 13))
def test_anomalies_match_whole_cube_formula_from_every_start_month(start_month, clim_has_missing):
    rng = np.random.default_rng([start_month, clim_has_missing])
    base = _cube_with_live_values_under_the_mask(rng, 96, (1949, 7), missing_frac=0.2 if clim_has_missing else 0.0)
    clim = climatology(base, (1950, 1955))
    assert clim.missing.any() == clim_has_missing
    for n_time in (5, 12, 12 * 3 + 7, 12 * 4):
        cube = _cube_with_live_values_under_the_mask(rng, n_time, (1960, start_month))
        _assert_anomalies_match_whole_cube_formula(cube, clim)


def test_split_by_years_names_the_months_it_covers():
    cube = random_sst(np.random.default_rng(12), n_time=30, start=(1950, 7))  # 1950-07..1952-12
    assert split_by_years(cube, (1951, 1952)).start == (1951, 1)
    for period, covered, wanted in [((1950, 1951), 18, 24), ((1952, 1953), 12, 24), ((1960, 1961), 0, 24),
                                    ((1940, 1941), 0, 24), ((1949, 1953), 30, 60)]:
        with pytest.raises(ValidationError, match=f"^cube 1950-07..1952-12 covers {covered} of the {wanted} months"):
            split_by_years(cube, period)
