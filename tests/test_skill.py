"""Verification metrics, event classification, and forecast alignment."""

import math

import numpy as np
import pytest

from ensograph import graph, skill, train
from ensograph.adiff import Tensor
from ensograph.errors import ValidationError
from ensograph.grid import ONI_BOX, region_nodes
from ensograph.indices import IndexSeries, area_mean
from ensograph.months import add_months
from ensograph.samples import consecutive_runs, make_samples, run_inputs
from ensograph.skill import (
    LeadForecast,
    ZeroVarianceError,
    classify_events,
    export_predictions,
    forecast_index,
    pearson,
    rmse,
    table_from_forecasts,
)
from ensograph.stgnn import ModelConfig, ModelParams, forward, init_params
from helpers import count_graph_builds, oni_grid, random_anoms, small_grid, tiny_config

rng = np.random.default_rng(77)


# ---------------------------------------------------------------- metrics

def test_pearson_perfect_correlation():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    # deviations (-1.5,-.5,.5,1.5) vs (-1.5,.5,-.5,1.5): cov 4, var 5 each
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_affine_invariance():
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    r = pearson(x, y)
    assert pearson(3.0 * x + 7.0, y) == pytest.approx(r, abs=1e-12)
    assert pearson(-2.0 * x, y) == pytest.approx(-r, abs=1e-12)


def test_pearson_rejects_bad_input():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])        # too short
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])   # length mismatch
    with pytest.raises(ValueError):
        pearson(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ZeroVarianceError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert issubclass(ZeroVarianceError, ValueError)


def test_rmse_hand_values():
    assert rmse([1.0, 2.0], [4.0, 6.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert rmse([0.5, -0.5, 2.0], [0.5, -0.5, 2.0]) == 0.0


# ------------------------------------------------------ event classification

def test_classify_events_runs_and_boundaries():
    vals = np.zeros(20)
    vals[3:8] = 1.0     # five warm months
    vals[8] = 0.4       # breaks the run
    vals[9:15] = -0.6   # six cold months
    vals[15:19] = 0.5   # four warm months, one short of an event
    idx = IndexSeries((2000, 1), vals, k=1)
    events = classify_events(idx, threshold=0.5, min_run=5)
    assert events == [
        ("ElNino", (2000, 4), (2000, 8)),
        ("LaNina", (2000, 10), (2001, 3)),
    ]


def test_classify_events_threshold_is_inclusive():
    idx = IndexSeries((2000, 1), np.full(5, 0.5), k=1)
    assert classify_events(idx, threshold=0.5, min_run=5) == [
        ("ElNino", (2000, 1), (2000, 5))
    ]


def test_classify_events_adjacent_opposite_runs():
    vals = np.concatenate([np.full(5, 0.8), np.full(5, -0.8)])
    idx = IndexSeries((2000, 1), vals, k=1)
    kinds = [e[0] for e in classify_events(idx)]
    assert kinds == ["ElNino", "LaNina"]


def test_classify_events_rejects():
    idx = IndexSeries((2000, 1), np.zeros(6), k=1)
    with pytest.raises(ValueError):
        classify_events(idx, threshold=0.0)
    with pytest.raises(ValueError):
        classify_events(idx, min_run=0)


# ------------------------------------------------------- forecast alignment

def _oracle_from(samples):
    """Predictor that returns the true future node anomalies, chunk-aware."""
    state = {"lo": 0}

    def predictor(batch):
        lo = state["lo"]
        state["lo"] = lo + len(batch)
        return samples.node_targets[lo: lo + len(batch)]

    return predictor


def _centered_means(series, k):
    """Loop reference for the k-month centered mean, labeled by position."""
    half = k // 2
    out = np.full(len(series), np.nan)
    for t in range(half, len(series) - half):
        out[t] = np.mean(series[t - half: t + half + 1])
    return out


def test_oracle_predictor_scores_perfectly():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(3), grid, n_time=60)
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=7)
    samples = make_samples(anoms, nodes, config.window, config.horizon)

    forecasts = forecast_index(
        None, config, anoms, leads=(1, 3, 6), k=3,
        predictor=_oracle_from(samples),
    )
    assert sorted(forecasts) == [1, 3, 6]
    for n, fc in forecasts.items():
        assert fc.lead == n
        assert len(fc.target_months) == len(samples)
        # feeding back the true node fields must reproduce the observed index
        np.testing.assert_allclose(fc.predicted, fc.observed, atol=1e-5)
    table = table_from_forecasts(forecasts)
    for row in table.rows:
        assert row.model_r >= 1.0 - 1e-9
        assert row.model_rmse < 1e-5
        assert row.n_samples == len(samples)


def test_alignment_against_loop_reference():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(4), grid, n_time=50)
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=7)
    samples = make_samples(anoms, nodes, config.window, config.horizon)
    forecasts = forecast_index(
        None, config, anoms, leads=(1, 3, 6), k=3,
        predictor=_oracle_from(samples),
    )

    series = area_mean(anoms, nodes, "coslat")
    smoothed = _centered_means(series, 3)
    S = len(samples)
    issued = np.arange(S) + config.window - 1  # month of the last input
    for n, fc in forecasts.items():
        np.testing.assert_allclose(fc.observed, smoothed[issued + n], atol=1e-9)
        np.testing.assert_allclose(fc.persistence, smoothed[issued], atol=1e-9)
        assert fc.target_months == [add_months(anoms.start, int(m) + n) for m in issued]


def test_persistence_column_matches_shifted_series_correlation():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(5), grid, n_time=72)
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=7)
    samples = make_samples(anoms, nodes, config.window, config.horizon)
    table = table_from_forecasts(forecast_index(
        None, config, anoms, leads=(1, 3, 6), k=3,
        predictor=_oracle_from(samples),
    ))

    series = area_mean(anoms, nodes, "coslat")
    smoothed = _centered_means(series, 3)
    issued = np.arange(len(samples)) + config.window - 1
    for row in table.rows:
        direct = pearson(smoothed[issued], smoothed[issued + row.lead])
        assert row.persistence_r == pytest.approx(direct, abs=1e-9)


def test_constant_predictor_yields_nan_correlation():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(6), grid, n_time=40)
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=2)

    def zeros(batch):
        return np.zeros((len(batch), config.horizon, len(nodes)), dtype=np.float32)

    # k=1 keeps no observed tail in the forecast, so the output is constant
    table = table_from_forecasts(forecast_index(None, config, anoms, leads=(1, 2), k=1, predictor=zeros))
    series = area_mean(anoms, nodes, "coslat")
    issued = np.arange(40 - config.window - config.horizon + 1) + config.window - 1
    for row in table.rows:
        assert math.isnan(row.model_r)
        want = math.sqrt(np.mean(series[issued + row.lead] ** 2))
        assert row.model_rmse == pytest.approx(want, abs=1e-9)
    assert "nan" in table.to_csv_text()


def test_forecast_chunking_is_consistent():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(7), grid, n_time=30)
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=2, seed=9)
    params = init_params(config)
    big = forecast_index(params, config, anoms, leads=(1,), k=1, chunk=256)
    small = forecast_index(params, config, anoms, leads=(1,), k=1, chunk=5)
    np.testing.assert_allclose(big[1].predicted, small[1].predicted, atol=1e-6)
    np.testing.assert_array_equal(big[1].observed, small[1].observed)


def _record_forward(monkeypatch, module):
    outputs = []

    def recording(params, config, x):
        out = forward(params, config, x)
        outputs.append(out)
        return out

    monkeypatch.setattr(module, "forward", recording)
    return outputs


def _assert_untouched(params):
    for _, t in params.items():
        assert t.requires_grad
        assert not t.grad.any()


def test_default_inference_batch_gives_the_bytes_of_batch_256(monkeypatch):
    # the default batch changes only how many windows share a GEMM; on the
    # 130-node model the forward must still give every window the same bytes
    grid = oni_grid()
    anoms = random_anoms(np.random.default_rng(21), grid, n_time=300)
    config = ModelConfig(n_nodes=grid.n_cells, horizon=4, seed=5)
    params = init_params(config)
    outputs = _record_forward(monkeypatch, skill)
    default = forecast_index(params, config, anoms, leads=(1, 3))
    n_default = len(outputs)
    wide = forecast_index(params, config, anoms, leads=(1, 3), chunk=256)
    assert (n_default, len(outputs) - n_default) == (5, 2)  # 294 windows in 64s, then in 256s
    preds = [out.data for out in outputs]
    np.testing.assert_array_equal(np.concatenate(preds[:n_default]).view(np.uint32),
                                  np.concatenate(preds[n_default:]).view(np.uint32))
    for n in (1, 3):
        np.testing.assert_array_equal(default[n].predicted.view(np.uint64), wide[n].predicted.view(np.uint64))


def test_forecast_index_builds_no_tape(monkeypatch):
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(11), grid, n_time=30)
    config = tiny_config(n_nodes=12, horizon=4, seed=2)
    params = init_params(config)
    outputs = _record_forward(monkeypatch, skill)
    forecast_index(params, config, anoms, leads=(1, 3), k=3, chunk=8)
    assert len(outputs) == 3  # 22 windows in batches of 8
    assert not any(out.requires_grad for out in outputs)
    _assert_untouched(params)


def test_forecast_index_passes_each_month_once_per_segment(monkeypatch):
    # each forward takes chunk + w - 1 consecutive months, not chunk windows of w
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(16), grid, n_time=60)
    config = tiny_config(n_nodes=12, horizon=4, seed=4)
    params = init_params(config)
    rows = []

    def counting(params, config, x):
        rows.append(x.shape[0] * x.shape[3])  # the start projection's rows per node
        return forward(params, config, x)

    monkeypatch.setattr(skill, "forward", counting)
    S, w, chunk = 60 - config.window - config.horizon + 1, config.window, 10
    forecasts = forecast_index(params, config, anoms, leads=(1, 3), k=3, chunk=chunk)
    assert len(forecasts[1].predicted) == S
    assert sum(rows) == S + (w - 1) * math.ceil(S / chunk)
    assert len(rows) == math.ceil(S / chunk)
    # a predictor gets the windows themselves, one forward of w months each,
    # and the segment forecasts match them byte for byte
    windowed = forecast_index(None, config, anoms, leads=(1, 3), k=3, chunk=chunk, predictor=lambda batch: (
        forward(params, config, Tensor(np.ascontiguousarray(batch.transpose(0, 2, 1)[:, None]))).data))
    assert len(rows) == math.ceil(S / chunk)  # the predictor path never reaches skill.forward
    for n in (1, 3):
        np.testing.assert_array_equal(forecasts[n].predicted.view(np.uint64), windowed[n].predicted.view(np.uint64))


def test_validation_loss_builds_no_tape(monkeypatch):
    config = tiny_config(n_nodes=5, horizon=2, seed=3)
    params = init_params(config)
    data = np.random.default_rng(12)
    anoms = random_anoms(data, small_grid(n_lat=1, n_lon=5), n_time=20)
    anoms.missing[9] = True  # drops the windows that touch month 9
    samples = make_samples(anoms, [(0, j) for j in range(5)], config.window, config.horizon)
    outputs = _record_forward(monkeypatch, train)
    loss = train._eval_loss(params, config, samples.inputs, samples.node_targets, samples.start_months)
    # one forward per run of consecutive windows, on either side of the gap
    assert [out.shape[0] for out in outputs] == [5, 6]
    assert not any(out.requires_grad for out in outputs)
    _assert_untouched(params)
    singles = [train.mae_loss(forward(params, config, Tensor(samples.inputs[s:s + 1].transpose(0, 2, 1)[:, None])),
                              Tensor(samples.node_targets[s:s + 1])).item() for s in range(len(samples))]
    assert loss == pytest.approx(np.mean(singles), rel=1e-6)


def _forward_building_its_own_graph(params, config, x):
    graph._memo = None  # drops the kept graph, so this forward builds one
    return forward(params, config, x)


def test_forecast_index_builds_the_graph_once_with_per_run_bytes(monkeypatch):
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(23), grid, n_time=38)
    config = tiny_config(n_nodes=12, horizon=4, seed=6)
    params = init_params(config)
    builds = count_graph_builds(monkeypatch)
    hoisted = forecast_index(params, config, anoms, leads=(1, 3), k=3, chunk=8)
    assert len(builds) == 1  # 32 windows in 4 forwards, one graph
    monkeypatch.setattr(skill, "forward", _forward_building_its_own_graph)
    per_run = forecast_index(params, config, anoms, leads=(1, 3), k=3, chunk=8)
    assert len(builds) == 1 + 4
    for n in (1, 3):
        np.testing.assert_array_equal(hoisted[n].predicted.view(np.uint64), per_run[n].predicted.view(np.uint64))


def test_validation_loss_builds_the_graph_once_with_per_run_bytes(monkeypatch):
    config = tiny_config(n_nodes=5, horizon=2, seed=3)
    params = init_params(config)
    anoms = random_anoms(np.random.default_rng(12), small_grid(n_lat=1, n_lon=5), n_time=30)
    anoms.missing[9] = True  # two runs of windows, on either side of the gap
    samples = make_samples(anoms, [(0, j) for j in range(5)], config.window, config.horizon)
    args = (params, config, samples.inputs, samples.node_targets, samples.start_months)
    builds = count_graph_builds(monkeypatch)
    hoisted = train._eval_loss(*args)
    assert len(builds) == 1
    monkeypatch.setattr(train, "forward", _forward_building_its_own_graph)
    per_run = train._eval_loss(*args)
    assert len(builds) == 1 + 2
    assert np.float64(hoisted).tobytes() == np.float64(per_run).tobytes()


def test_skill_table_with_untrained_model():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(8), grid, n_time=40)
    config = tiny_config(n_nodes=12, horizon=4, seed=1)
    params = init_params(config)
    table = table_from_forecasts(forecast_index(params, config, anoms, leads=(1, 3), k=3))
    assert [row.lead for row in table.rows] == [1, 3]
    for row in table.rows:
        assert row.n_samples == 40 - config.window - config.horizon + 1
        assert row.model_rmse >= 0.0
        if not math.isnan(row.model_r):
            assert -1.0 <= row.model_r <= 1.0


def test_forecast_index_guards():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(9), grid, n_time=30)
    config = tiny_config(n_nodes=12, horizon=2)
    oracle = lambda batch: np.zeros((len(batch), 2, 12), dtype=np.float32)

    with pytest.raises(ValueError):
        forecast_index(None, config, anoms, leads=(1,))   # no model, no predictor
    with pytest.raises(ValueError):
        forecast_index(None, config, anoms, leads=(0,), predictor=oracle)
    with pytest.raises(ValidationError):
        # lead 2 with k=3 smoothing needs one month past the horizon
        forecast_index(None, config, anoms, leads=(2,), k=3, predictor=oracle)
    with pytest.raises(ValidationError):
        forecast_index(None, config, anoms, leads=(1,), k=7, predictor=oracle)
    with pytest.raises(ValueError):
        forecast_index(None, config, anoms, leads=(1,), k=2, predictor=oracle)

    wrong = tiny_config(n_nodes=8, horizon=2)
    with pytest.raises(ValidationError):
        forecast_index(None, wrong, anoms, leads=(1,), predictor=oracle)

    def bad_shape(batch):
        return np.zeros((len(batch), 2, 13), dtype=np.float32)

    with pytest.raises(ValueError):
        forecast_index(None, config, anoms, leads=(1,), k=1, predictor=bad_shape)


def test_forecast_index_refuses_missing_data():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(10), grid, n_time=30)
    anoms.missing[12, 0, 0] = True
    config = tiny_config(n_nodes=12, horizon=2)
    oracle = lambda batch: np.zeros((len(batch), 2, 12), dtype=np.float32)
    with pytest.raises(ValidationError):
        forecast_index(None, config, anoms, leads=(1,), k=1, predictor=oracle)


# ------------------------------------------ runs cut straight from the node series
# forecast_index slices each run from the [T, N] node series. The helpers below
# are the path it took before: make_samples windows, joined into runs by
# samples.run_inputs over samples.consecutive_runs.

def _forecasts_via_samples(params, config, anoms, chunk, input_scale):
    """Node forecasts [S, H, N] from one run_inputs run of make_samples windows per forward."""
    samples = make_samples(anoms, region_nodes(anoms.grid, ONI_BOX), config.window, config.horizon)
    detached = ModelParams({n: Tensor(t.data) for n, t in params.items()})
    scale = np.float32(input_scale)
    return np.concatenate([
        forward(detached, config, Tensor(run_inputs(samples.inputs, [r.start], len(r)) / scale)).data
        for r in consecutive_runs(samples.start_months, chunk)
    ])


def _windows_via_samples(config, anoms, chunk):
    samples = make_samples(anoms, region_nodes(anoms.grid, ONI_BOX), config.window, config.horizon)
    return [samples.inputs[r.start:r.stop] for r in consecutive_runs(samples.start_months, chunk)]


# 150 months hold 144 windows of 3 + 4 months: chunk 144 is one run of every window
@pytest.mark.parametrize("chunk", [1, 7, 64, 144])
def test_forecast_index_runs_give_the_bytes_of_the_sample_path(monkeypatch, chunk):
    anoms = random_anoms(np.random.default_rng(31), small_grid(), n_time=150)
    config = tiny_config(n_nodes=12, horizon=4, seed=8)
    params = init_params(config)
    want = _forecasts_via_samples(params, config, anoms, chunk, 0.7)
    inputs, outputs = [], []

    def recording(params, config, x):
        out = forward(params, config, x)
        inputs.append(x.data)
        outputs.append(out.data)
        return out

    monkeypatch.setattr(skill, "forward", recording)
    got = forecast_index(params, config, anoms, leads=(1, 3), k=3, input_scale=0.7, chunk=chunk)
    preds = np.concatenate(outputs)
    np.testing.assert_array_equal(preds.view(np.uint32), want.view(np.uint32))
    windows = _windows_via_samples(config, anoms, chunk)
    assert len(inputs) == len(windows)
    for x, batch in zip(inputs, windows):  # contiguous node-major [1, 1, N, n + w - 1]
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert x.shape == (1, 1, 12, len(batch) + config.window - 1)
    # the same node forecasts through a predictor give the same index bytes
    rows = iter(np.split(want, np.cumsum([len(b) for b in windows])[:-1]))
    replayed = forecast_index(None, config, anoms, leads=(1, 3), k=3, chunk=chunk, predictor=lambda batch: next(rows))
    for n in (1, 3):
        np.testing.assert_array_equal(got[n].predicted.view(np.uint64), replayed[n].predicted.view(np.uint64))


@pytest.mark.parametrize("chunk", [1, 7, 64, 144])
def test_forecast_index_hands_the_predictor_the_sample_windows(chunk):
    anoms = random_anoms(np.random.default_rng(32), small_grid(), n_time=150)
    config = tiny_config(n_nodes=12, horizon=4)
    batches = []

    def recording(batch):
        batches.append(batch)
        return np.zeros((len(batch), config.horizon, 12), dtype=np.float32)

    forecast_index(None, config, anoms, leads=(1, 3), k=3, chunk=chunk, predictor=recording)
    windows = _windows_via_samples(config, anoms, chunk)
    assert len(batches) == len(windows)
    for got, want in zip(batches, windows):
        assert got.dtype == np.float32 and got.flags.c_contiguous and got.flags.writeable
        assert got.shape == want.shape == (len(want), config.window, 12)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_forecast_index_errors_match_the_sample_path():
    grid = small_grid()
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=12, horizon=4, seed=2)
    oracle = lambda batch: np.zeros((len(batch), 4, 12), dtype=np.float32)

    short = random_anoms(np.random.default_rng(33), grid, n_time=config.window + config.horizon - 1)
    with pytest.raises(ValidationError) as want:
        make_samples(short, nodes, config.window, config.horizon)
    for params, predictor in ((init_params(config), None), (None, oracle)):
        with pytest.raises(ValidationError) as got:
            forecast_index(params, config, short, leads=(1,), k=1, predictor=predictor)
        assert str(got.value) == str(want.value)

    gappy = random_anoms(np.random.default_rng(34), grid, n_time=40)
    gappy.missing[12, 0, 0] = gappy.missing[13, 2, 3] = gappy.missing[30, 1, 1] = True
    n_dropped = make_samples(gappy, nodes, config.window, config.horizon).n_dropped
    assert n_dropped == 15
    for params, predictor in ((init_params(config), None), (None, oracle)):
        with pytest.raises(ValidationError, match=f"^{n_dropped} evaluation windows touch missing data; "
                                                   "evaluation needs complete series$"):
            forecast_index(params, config, gappy, leads=(1,), k=1, predictor=predictor)

    anoms = random_anoms(np.random.default_rng(35), grid, n_time=40)
    for chunk in (0, -3):
        for params, predictor in ((init_params(config), None), (None, oracle)):
            with pytest.raises(ValueError, match="^chunk must be >= 1"):
                forecast_index(params, config, anoms, leads=(1,), k=1, chunk=chunk, predictor=predictor)


# ----------------------------------------------------------------- exports

def _toy_forecasts():
    return {
        2: LeadForecast(
            lead=2,
            target_months=[(2000, 1), (2000, 2), (2000, 3)],
            predicted=np.array([1.0, 2.0, 3.0]),
            observed=np.array([1.0, 2.0, 3.0]),
            persistence=np.array([3.0, 2.0, 1.0]),
        )
    }


def test_csv_header_and_row_format():
    table = table_from_forecasts(_toy_forecasts())
    text = table.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == "lead,model_r,model_rmse,persistence_r,persistence_rmse,n_samples"
    assert lines[1] == "2,1.000000,0.000000,-1.000000,1.632993,3"
    assert len(lines) == 2
    assert "model_r" in str(table)


def test_write_csv_and_export_predictions(tmp_path):
    table = table_from_forecasts(_toy_forecasts())
    out = tmp_path / "table.csv"
    table.write_csv(out)
    assert out.read_text() == table.to_csv_text()

    pred_path = tmp_path / "preds.csv"
    export_predictions(pred_path, _toy_forecasts())
    lines = pred_path.read_text().splitlines()
    assert lines[0] == "lead,year,month,predicted,observed"
    assert lines[1] == "2,2000,1,1.000000,1.000000"
    assert len(lines) == 4
