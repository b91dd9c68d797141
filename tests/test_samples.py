import numpy as np
import pytest

from ensograph.errors import ValidationError
from ensograph.grid import ONI_BOX, region_nodes
from ensograph.samples import consecutive_runs, make_samples, run_inputs
from helpers import oni_grid, random_anoms, small_grid


def _nodes(grid):
    return [(i, j) for i in range(grid.n_lat) for j in range(grid.n_lon)]


def test_1236_months_window3_horizon1_gives_1233():
    rng = np.random.default_rng(0)
    anoms = random_anoms(rng, grid=oni_grid(), n_time=1236, start=(1871, 1))
    nodes = region_nodes(anoms.grid, ONI_BOX)
    samples = make_samples(anoms, nodes, 3, 1)
    assert len(samples) == 1233
    assert samples.n_dropped == 0


def test_sample_count_small_case():
    rng = np.random.default_rng(1)
    anoms = random_anoms(rng, n_time=10)
    samples = make_samples(anoms, _nodes(anoms.grid), 3, 1)
    assert len(samples) == 7


def test_sample_count_exhaustive():
    rng = np.random.default_rng(2)
    for w in (1, 2, 3, 5):
        for h in (1, 2, 4):
            for T in range(w + h, w + h + 12):
                anoms = random_anoms(rng, n_time=T)
                samples = make_samples(anoms, _nodes(anoms.grid), w, h)
                assert len(samples) == T - w - h + 1, (w, h, T)


def test_too_short_series_raises():
    rng = np.random.default_rng(3)
    anoms = random_anoms(rng, n_time=5)
    with pytest.raises(ValidationError):
        make_samples(anoms, _nodes(anoms.grid), 3, 3)


def test_window_and_target_layout():
    rng = np.random.default_rng(4)
    anoms = random_anoms(rng, n_time=40)
    anoms.missing[20, 0, 0] = True
    nodes = _nodes(anoms.grid)
    ii = np.array([i for i, _ in nodes])
    jj = np.array([j for _, j in nodes])
    series = anoms.values[:, ii, jj]  # [T, N]
    for w, h in ((3, 2), (3, 4), (1, 1), (5, 12)):
        samples = make_samples(anoms, nodes, w, h)
        starts = [s for s in range(40 - w - h + 1) if not s <= 20 < s + w + h]  # the windows clear of month 20
        assert samples.inputs.dtype == samples.node_targets.dtype == np.float32
        assert samples.inputs.shape == (len(starts), w, len(nodes))
        assert samples.node_targets.shape == (len(starts), h, len(nodes))
        assert samples.inputs.flags.c_contiguous and samples.node_targets.flags.c_contiguous
        for k, s in enumerate(starts):
            assert samples.inputs[k].tobytes() == series[s:s + w].tobytes()
            assert samples.node_targets[k].tobytes() == series[s + w:s + w + h].tobytes()
            assert samples.start_months[k] == anoms.month_of(s)


def test_windows_touching_missing_are_dropped():
    rng = np.random.default_rng(5)
    grid = small_grid()
    anoms = random_anoms(rng, grid=grid, n_time=20)
    anoms.missing[10, 0, 0] = True
    nodes = _nodes(grid)
    w, h = 3, 2
    samples = make_samples(anoms, nodes, w, h)
    # every window whose span [s, s+w+h) includes month 10 goes away
    full = 20 - w - h + 1
    overlapping = sum(1 for s in range(full) if s <= 10 < s + w + h)
    assert samples.n_dropped == overlapping
    assert len(samples) == full - overlapping
    for s, start in enumerate(samples.start_months):
        t0 = [m for m in range(20) if anoms.month_of(m) == start][0]
        assert not (t0 <= 10 < t0 + w + h)


def test_missing_outside_node_set_is_ignored():
    rng = np.random.default_rng(6)
    grid = small_grid()
    anoms = random_anoms(rng, grid=grid, n_time=15)
    anoms.missing[7, 2, 3] = True
    nodes = [(0, 0), (1, 1)]
    samples = make_samples(anoms, nodes, 3, 1)
    assert len(samples) == 12
    assert samples.n_dropped == 0


def test_bad_arguments():
    rng = np.random.default_rng(7)
    anoms = random_anoms(rng, n_time=20)
    with pytest.raises(ValueError):
        make_samples(anoms, _nodes(anoms.grid), 0, 1)
    with pytest.raises(ValueError):
        make_samples(anoms, _nodes(anoms.grid), 3, 0)
    with pytest.raises(ValueError):
        make_samples(anoms, [], 3, 1)


def test_runs_stop_at_gaps_and_rebuild_the_months():
    anoms = random_anoms(np.random.default_rng(8), grid=small_grid(), n_time=40)
    anoms.missing[15, 1, 2] = True
    nodes = _nodes(anoms.grid)
    w, h = 3, 2
    samples = make_samples(anoms, nodes, w, h)
    runs = consecutive_runs(samples.start_months, 4)
    # windows 0..10 before the gap, 16..35 after it, each side cut into runs of at most 4
    assert [len(r) for r in runs] == [4, 4, 3, 4, 4, 4, 4, 4]
    assert [i for r in runs for i in r] == list(range(len(samples)))
    series = np.stack([anoms.values[:, i, j] for i, j in nodes], axis=1)
    for r in runs:
        first = [m for m in range(40) if anoms.month_of(m) == samples.start_months[r.start]][0]
        x = run_inputs(samples.inputs, [r.start], len(r))
        assert x.shape == (1, 1, len(nodes), len(r) + w - 1)
        # the run's months are the cube's, so no run reaches over the missing month
        np.testing.assert_array_equal(x[0, 0].T, series[first:first + len(r) + w - 1])
        assert not first <= 15 < first + len(r) + w - 1 + h
    with pytest.raises(ValueError):
        consecutive_runs(samples.start_months, 0)
