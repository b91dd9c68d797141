import types
import warnings

import numpy as np
import pytest

import ensograph
from ensograph import adiff
from ensograph import train as train_module
from ensograph.adiff import Tensor
from ensograph.errors import NumericalError
from ensograph.samples import SampleSet, make_samples, run_inputs
from ensograph.stgnn import forward, init_params, load_checkpoint, save_checkpoint
from ensograph.train import (
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    mae_loss,
    run_windows,
    train,
    write_manifest,
)
from helpers import per_tensor_step, python_output, random_anoms, small_grid, tiny_config


def _sample_set(rng, n_samples, config, target_fn=None):
    # windows slide over one series, as make_samples cuts them
    w, h, n = config.window, config.horizon, config.n_nodes
    series = rng.standard_normal((n_samples + w - 1, n)).astype(np.float32)
    inputs = np.lib.stride_tricks.sliding_window_view(series, w, axis=0).transpose(0, 2, 1).copy()
    if target_fn is None:
        targets = rng.standard_normal((n_samples, h, n)).astype(np.float32)
    else:
        targets = target_fn(inputs).astype(np.float32)
    months = [(1950 + s // 12, s % 12 + 1) for s in range(n_samples)]
    return SampleSet(node_ids=[(0, i) for i in range(n)], window=w, horizon=h,
                     inputs=inputs, node_targets=targets, start_months=months)


# --------------------------------------------------------------------- adam

def test_adam_single_step_hand_value():
    params = {"p": np.array([1.0])}
    grads = {"p": np.array([1.0])}
    cfg = TrainConfig(lr=1e-3)
    state = AdamState.zeros_like(params)
    new_p, _ = adam_step(params, grads, state, 1, cfg)
    # m_hat = v_hat = 1 after bias correction, so the step is lr/(1 + eps)
    assert abs(new_p["p"][0] - 0.99900000001) < 1e-9


def test_adam_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(0)
    cfg = TrainConfig(lr=0.01)
    p = rng.standard_normal(5)
    g1, g2 = rng.standard_normal(5), rng.standard_normal(5)

    params = {"p": p.copy()}
    state = AdamState.zeros_like(params)
    params, state = adam_step(params, {"p": g1}, state, 1, cfg)
    params, state = adam_step(params, {"p": g2}, state, 2, cfg)

    m = v = np.zeros(5)
    ref = p.copy()
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref = ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(params["p"], ref, atol=1e-14)


def test_adam_zero_gradient_leaves_param_unchanged():
    params = {"p": np.array([2.5])}
    state = AdamState.zeros_like(params)
    new_p, _ = adam_step(params, {"p": np.array([0.0])}, state, 1, TrainConfig())
    assert new_p["p"][0] == 2.5


def test_adam_rejects_non_finite_gradient():
    params = {"p": np.array([1.0])}
    state = AdamState.zeros_like(params)
    with pytest.raises(NumericalError):
        adam_step(params, {"p": np.array([np.nan])}, state, 1, TrainConfig())
    with pytest.raises(ValueError):
        adam_step(params, {"p": np.array([0.0])}, state, 0, TrainConfig())


def _adam_formula(p, g, m, v, t, lr):
    """The textbook update, out of place: (p, m, v) after step t."""
    m = 0.9 * m + (1.0 - 0.9) * g
    v = 0.999 * v + (1.0 - 0.999) * (g * g)
    return p - lr * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8), m, v


def test_adam_updates_in_place_with_the_bytes_of_the_formula():
    rng = np.random.default_rng(2)
    cfg = TrainConfig(lr=3e-3)
    shapes = {"w": (130, 16), "b": (16,), "e": (5, 4, 3)}
    params = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
    state = AdamState.zeros_like(params)
    arrays = [dict(d) for d in (params, state.m, state.v)]
    ref = {n: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for n, p in params.items()}
    for t in (1, 2, 3):
        grads = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
        assert adam_step(params, grads, state, t, cfg) == (params, state)
        for name in shapes:
            ref[name] = _adam_formula(*ref[name][:1], grads[name], *ref[name][1:], t, cfg.lr)
            for got, want in zip((params[name], state.m[name], state.v[name]), ref[name]):
                assert got.dtype == np.float32 and got.tobytes() == want.tobytes(), (t, name)
    for before, after in zip(arrays, (params, state.m, state.v)):
        assert all(before[n] is after[n] for n in shapes)


def test_adam_writes_nothing_when_a_gradient_is_not_finite():
    params = {"a": np.array([1.0]), "b": np.array([2.0])}
    state = AdamState.zeros_like(params)
    with pytest.raises(NumericalError, match="'b'"):
        adam_step(params, {"a": np.array([1.0]), "b": np.array([np.inf])}, state, 1, TrainConfig())
    assert params == {"a": [1.0], "b": [2.0]} and not state.m["a"].any() and not state.v["a"].any()


def test_adam_descends_random_quadratics():
    rng = np.random.default_rng(1)
    cfg = TrainConfig(lr=0.05)
    for _ in range(100):
        c = rng.standard_normal()
        p = {"p": np.array([c + rng.uniform(-3.0, 3.0)])}
        state = AdamState.zeros_like(p)
        start = abs(p["p"][0] - c)
        for t in range(1, 201):
            g = {"p": 2.0 * (p["p"] - c)}
            p, state = adam_step(p, g, state, t, cfg)
        assert abs(p["p"][0] - c) < max(0.1 * start, 1e-3)


def test_clip_leaves_small_gradients_alone():
    g = {"a": np.array([0.3, 0.4]), "b": np.array([1.2])}
    out = clip_gradients(g, 5.0)
    np.testing.assert_array_equal(out["a"], g["a"])
    np.testing.assert_array_equal(out["b"], g["b"])


def test_clip_rescales_to_the_global_norm():
    g = {"a": np.full(9, 2.0), "b": np.full(16, 2.0)}  # norm = 2*5 = 10
    out = clip_gradients(g, 5.0)
    total = sum(float(np.sum(v.astype(np.float64) ** 2)) for v in out.values())
    assert abs(np.sqrt(total) - 5.0) < 1e-6
    ratio = out["a"][0] / out["b"][0]
    assert abs(ratio - 1.0) < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_clip_leaves_non_finite_gradients_unscaled(value):
    g = {"a": np.full(4, 3.0, np.float32), "b": np.array([1.0, value, 2.0], np.float32)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = clip_gradients(g, 5.0)
    assert out.keys() == g.keys() and all(out[k] is g[k] for k in g)


def test_clip_rejects_bad_norm():
    with pytest.raises(ValueError):
        clip_gradients({"a": np.ones(2)}, 0.0)


def test_clipping_and_flat_adam_have_the_bytes_of_the_per_tensor_step():
    # train's clipping and flat buffers against clipping and adam_step on separate tensors,
    # over steps that clip and steps that do not, with -0.0 planted in the gradients
    cfg, tcfg = tiny_config(), TrainConfig(lr=3e-3)
    params = init_params(cfg, seed=3)
    ref = {n: t.data.copy() for n, t in params.items()}
    ref_state = AdamState.zeros_like(ref)
    flat = train_module._FlatParams(params)
    state = AdamState.zeros_like({"params": flat.data})
    rng = np.random.default_rng(4)
    for t, size in enumerate((10.0, 0.01, 3.0, 0.001), start=1):
        grads = {n: (rng.standard_normal(p.shape) * size).astype(np.float32) for n, p in ref.items()}
        grads["l0_tcn_w"][0] = -0.0
        grads["end2_b"][:] = -0.0
        for n, tensor in params.items():
            tensor.grad = grads[n].copy()
        clipped = clip_gradients({n: tensor.grad for n, tensor in params.items()}, train_module.CLIP_NORM)
        adam_step({"params": flat.data}, {"params": flat.gradient(clipped, 0, t)}, state, t, tcfg)
        per_tensor_step(ref, grads, ref_state, t, tcfg, train_module.CLIP_NORM)
        for (name, tensor), (lo, hi) in zip(params.items(), flat.bounds):
            assert tensor.data.tobytes() == ref[name].tobytes(), (t, name)
            assert state.m["params"][lo:hi].tobytes() == ref_state.m[name].tobytes(), (t, name)
            assert state.v["params"][lo:hi].tobytes() == ref_state.v[name].tobytes(), (t, name)


# ------------------------------------------------------------------- losses

def test_loss_hand_values():
    pred = Tensor(np.array([1.0, 2.0, 3.0]))
    target = Tensor(np.array([2.0, 2.0, 1.0]))
    assert abs(mae_loss(pred, target).item() - 1.0) < 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mae_loss_has_the_bytes_of_the_sub_abs_mean_chain(dtype):
    # the gate config's step shape: [32 windows, 4 leads, 130 nodes]
    rng = np.random.default_rng(21)
    p, t = (rng.standard_normal((32, 4, 130)).astype(dtype) for _ in "pt")
    t[0, 0, :5] = p[0, 0, :5]  # zero differences take a zero gradient
    pred = Tensor(p, requires_grad=True)
    loss = mae_loss(pred, Tensor(t))
    d = np.subtract(p, t)
    want = np.asarray(np.abs(d).sum(axis=(0, 1, 2)) / d.size)
    assert loss.data.dtype == dtype and loss.data.tobytes() == want.tobytes()
    adiff.backward(loss)
    seed = np.broadcast_to(np.ones((1, 1, 1), dtype), d.shape)
    assert pred.grad.tobytes() == ((seed / d.size) * np.sign(d)).tobytes()


def test_mae_loss_subgradient_at_zero_is_zero_and_the_target_takes_none():
    pred = Tensor(np.array([0.0, -1.5, 2.0]), requires_grad=True)
    target = Tensor(np.zeros(3), requires_grad=True)
    adiff.backward(mae_loss(pred, target))
    np.testing.assert_array_equal(pred.grad, [0.0, -1.0 / 3, 1.0 / 3])
    np.testing.assert_array_equal(target.grad, np.zeros(3))


def test_loss_shape_mismatch():
    with pytest.raises(ValueError):
        mae_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


# ------------------------------------------------------------------- config

def test_train_config_validation():
    for kw in (dict(lr=0.0), dict(lr=float("nan")), dict(lr=float("inf")), dict(epochs=0), dict(batch_size=0),
               dict(val_fraction=1.0), dict(val_fraction=-0.1)):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


# ----------------------------------------------------------------- training

def test_single_epoch_bookkeeping():
    cfg = tiny_config(n_nodes=4)
    rng = np.random.default_rng(2)
    samples = _sample_set(rng, 10, cfg)
    result = train(cfg, TrainConfig(epochs=1, batch_size=16, val_fraction=0.1), samples)
    # 10 samples, one held out: a single batch of 9
    assert len(result.history.train_loss) == 1
    assert len(result.history.val_loss) == 1
    assert np.isfinite(result.history.train_loss[0])
    assert result.input_scale > 0.0


def test_training_reduces_loss_on_learnable_signal():
    cfg = tiny_config(n_nodes=5, horizon=2)
    rng = np.random.default_rng(3)

    def linear_targets(inputs):
        # target = last input month, repeated at both horizons
        last = inputs[:, -1, :]
        return np.stack([last, 0.5 * last], axis=1)

    samples = _sample_set(rng, 64, cfg, target_fn=linear_targets)
    tcfg = TrainConfig(epochs=200, batch_size=32, lr=3e-3, val_fraction=0.0)
    result = train(cfg, tcfg, samples)
    losses = result.history.train_loss
    assert losses[-1] < 0.25 * losses[0]


def test_training_fits_constant_target():
    cfg = tiny_config(n_nodes=4, horizon=2)
    rng = np.random.default_rng(4)
    samples = _sample_set(rng, 20, cfg,
                          target_fn=lambda x: np.full((x.shape[0], 2, 4), 0.7))
    tcfg = TrainConfig(epochs=500, batch_size=20, lr=5e-3, val_fraction=0.0)
    result = train(cfg, tcfg, samples)
    # constant-lr Adam on MAE swings by ~lr without settling: bound the last-tenth mean
    assert np.mean(result.history.train_loss[-50:]) <= 1e-2


def test_training_is_bitwise_deterministic():
    cfg = tiny_config(n_nodes=4)
    rng = np.random.default_rng(5)
    samples = _sample_set(rng, 24, cfg)
    tcfg = TrainConfig(epochs=3, batch_size=8, seed=7)

    r1 = train(cfg, tcfg, samples)
    r2 = train(cfg, tcfg, samples)
    for name, t in r1.params.items():
        assert t.data.tobytes() == r2.params[name].data.tobytes(), name
    assert r1.history.train_loss == r2.history.train_loss
    assert r1.history.val_loss == r2.history.val_loss


def test_seed_changes_the_trajectory():
    cfg = tiny_config(n_nodes=4)
    rng = np.random.default_rng(6)
    samples = _sample_set(rng, 24, cfg)
    r1 = train(cfg, TrainConfig(epochs=2, batch_size=8, seed=0), samples)
    r2 = train(cfg, TrainConfig(epochs=2, batch_size=8, seed=1), samples)
    assert any(t.data.tobytes() != r2.params[n].data.tobytes()
               for n, t in r1.params.items())


def test_non_finite_loss_aborts_with_location():
    cfg = tiny_config(n_nodes=4)
    rng = np.random.default_rng(7)
    samples = _sample_set(rng, 10, cfg)
    # batch 16 trains on blocks of 8 of the 10 windows; every placement holds window 5
    samples.node_targets[5] = np.inf
    with pytest.raises(NumericalError, match="epoch 0 step 0"):
        train(cfg, TrainConfig(epochs=1, batch_size=16, val_fraction=0.0), samples)


def _poison_gradient(monkeypatch, name, at_backward, value):
    """Set element 1 of parameter `name`'s gradient to value right after backward call number at_backward."""
    made, calls = [], []
    monkeypatch.setattr(train_module, "init_params", lambda *a, **k: made.append(init_params(*a, **k)) or made[-1])
    real = adiff.backward

    def poisoning(loss):
        real(loss)
        calls.append(1)
        if len(calls) == at_backward:
            made[-1][name].grad.reshape(-1)[1] = value

    monkeypatch.setattr(adiff, "backward", poisoning)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_gradient_is_reported_under_its_own_tensor(monkeypatch, value):
    # 24 windows in batches of 8 make 3 steps an epoch, so the 5th backward is epoch 1 step 4;
    # clipping leaves a non-finite gradient unscaled, so no tensor is scaled by it and nothing warns
    cfg = tiny_config(n_nodes=4)
    samples = _sample_set(np.random.default_rng(5), 24, cfg)
    _poison_gradient(monkeypatch, "l1_mix_b", at_backward=5, value=value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"non-finite gradient for 'l1_mix_b' at epoch 1 step 4"):
            train(cfg, TrainConfig(epochs=2, batch_size=8, val_fraction=0.0), samples)


def test_each_optimizer_step_calls_adam_step_once_through_the_module(monkeypatch):
    # the train-gate benchmark stamps its operations by wrapping train.adam_step
    cfg = tiny_config(n_nodes=4)
    samples = _sample_set(np.random.default_rng(5), 27, cfg)
    events = []
    real_backward, real_adam = adiff.backward, train_module.adam_step
    monkeypatch.setattr(adiff, "backward", lambda loss: events.append("backward") or real_backward(loss))
    monkeypatch.setattr(train_module, "adam_step", lambda *a: events.append("adam") or real_adam(*a))
    result = train(cfg, TrainConfig(epochs=3, batch_size=8, val_fraction=0.1), samples)
    # the 25 training windows hold 3 blocks of 8, one block a step; the validation loss calls neither
    assert len(result.history.val_loss) == 3
    assert events == ["backward", "adam"] * 9


def test_trained_parameters_are_views_of_one_buffer_per_run(tmp_path):
    cfg = tiny_config(n_nodes=4)
    samples = _sample_set(np.random.default_rng(5), 24, cfg)
    runs = [train(cfg, TrainConfig(epochs=1, batch_size=8), samples) for _ in range(2)]
    buffers = []
    for result in runs:
        tensors = [t.data for _, t in result.params.items()]
        base = tensors[0].base
        assert base is not None and base.ndim == 1 and base.dtype == np.float32
        assert base.size == sum(a.size for a in tensors)
        assert all(a.base is base and a.flags.c_contiguous for a in tensors)
        # laid out in the model's order, each tensor right after the last
        offsets = [(a.__array_interface__["data"][0] - base.__array_interface__["data"][0]) // 4 for a in tensors]
        assert offsets == list(np.cumsum([0] + [a.size for a in tensors[:-1]]))
        buffers.append(base)
    assert not np.shares_memory(*buffers)
    result = runs[0]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.params, cfg, result.input_scale, 0, (1950, 1951), small_grid(n_lat=1),
                    [(0, j) for j in range(4)])
    loaded = load_checkpoint(path)
    for name, t in result.params.items():
        assert loaded.params[name].data.tobytes() == t.data.tobytes(), name


def test_train_rejects_mismatched_samples():
    cfg = tiny_config(n_nodes=4)
    rng = np.random.default_rng(8)
    wrong_nodes = _sample_set(rng, 10, tiny_config(n_nodes=5))
    with pytest.raises(ValueError):
        train(cfg, TrainConfig(epochs=1), wrong_nodes)
    wrong_h = _sample_set(rng, 10, tiny_config(n_nodes=4, horizon=3))
    with pytest.raises(ValueError):
        train(cfg, TrainConfig(epochs=1), wrong_h)


def test_constant_inputs_fall_back_to_unit_scale():
    cfg = tiny_config(n_nodes=4)
    rng = np.random.default_rng(9)
    samples = _sample_set(rng, 10, cfg)
    samples.inputs[:] = 0.0
    result = train(cfg, TrainConfig(epochs=1, batch_size=16, val_fraction=0.0), samples)
    assert result.input_scale == 1.0


# ------------------------------------------------------------- month runs

@pytest.mark.parametrize("batch_size, p", [(1, 1), (17, 1), (31, 1), (32, 8), (45, 5)])
def test_runs_hold_the_largest_divisor_of_the_batch_up_to_run_windows(batch_size, p):
    assert train_module.RUN_WINDOWS == 8
    assert run_windows(batch_size) == p


def _month_coded_samples(cfg, n_time, gap):
    """Windows of a cube whose cells all hold their month's offset, with month `gap` missing."""
    anoms = random_anoms(np.random.default_rng(0), small_grid(n_lat=1, n_lon=cfg.n_nodes), n_time=n_time)
    anoms.values[:] = np.arange(n_time, dtype=np.float32)[:, None, None]
    anoms.missing[gap] = True
    return make_samples(anoms, [(0, j) for j in range(cfg.n_nodes)], cfg.window, cfg.horizon)


@pytest.mark.parametrize("batch_size", [1, 17, 31, 32, 45])
def test_steps_take_runs_of_consecutive_windows_and_use_every_window(monkeypatch, batch_size):
    cfg = tiny_config(n_nodes=3)
    w = cfg.window
    samples = _month_coded_samples(cfg, 60, gap=20)
    segments = [range(0, 16), range(21, 56)]  # the start months of the kept windows
    assert [m[1] - 1 + 12 * (m[0] - 1950) for m in samples.start_months] == [s for seg in segments for s in seg]
    inputs, steps = [], []

    def recording_forward(params, config, x):
        inputs.append(x.data)
        return forward(params, config, x)

    def recording_loss(pred, target):
        # a window's first target month is its start + w
        steps.append((inputs[-1], target.data[:, 0, 0] - w))
        return mae_loss(pred, target)

    monkeypatch.setattr(train_module, "forward", recording_forward)
    monkeypatch.setattr(train_module, "mae_loss", recording_loss)
    epochs = 8
    result = train(cfg, TrainConfig(epochs=epochs, batch_size=batch_size, val_fraction=0.0), samples)

    p = run_windows(batch_size)
    used = []
    for x, starts in steps:
        assert x.shape[0] <= batch_size // p and x.shape[3] == p + w - 1
        months = np.rint(x[:, 0, 0, :] * result.input_scale)  # [runs, p + w - 1]
        assert (np.diff(months, axis=1) == 1).all()  # no run reaches over the gap
        np.testing.assert_array_equal(starts.reshape(-1, p), months[:, :p])
        used += starts.tolist()
    # fewer than p windows of each segment sit out an epoch, and none sits out every epoch
    assert len(used) == epochs * sum(len(seg) // p * p for seg in segments)
    assert set(used) == {s for seg in segments for s in seg}


def test_runs_and_single_windows_train_the_same_objective():
    cfg = tiny_config(n_nodes=6, horizon=2, seed=2)
    data = np.random.default_rng(16)
    series = data.standard_normal((44, 6))
    inputs = np.lib.stride_tricks.sliding_window_view(series, cfg.window, axis=0).transpose(0, 2, 1)
    targets = data.standard_normal((inputs.shape[0], 2, 6))
    firsts = np.array([0, 11, 22, 33])
    idx = (firsts[:, None] + np.arange(8)).ravel()
    results = []
    for x in (run_inputs(inputs, firsts, 8), run_inputs(inputs, idx, 1)):
        params = init_params(cfg, dtype=np.float64)
        loss = mae_loss(forward(params, cfg, Tensor(x)), Tensor(targets[idx]))
        adiff.backward(loss)
        results.append((loss.item(), {n: t.grad for n, t in params.items()}))
    (loss_runs, grads_runs), (loss_single, grads_single) = results
    assert abs(loss_runs - loss_single) <= 1e-10
    for name, g in grads_runs.items():
        np.testing.assert_allclose(g, grads_single[name], rtol=0, atol=1e-10, err_msg=name)


def test_a_batch_needs_one_run_of_its_windows():
    cfg = tiny_config(n_nodes=4)
    samples = _sample_set(np.random.default_rng(10), 7, cfg)
    with pytest.raises(ValueError, match="runs of 8 consecutive windows"):
        train(cfg, TrainConfig(epochs=1, batch_size=32, val_fraction=0.0), samples)


def test_package_exposes_the_train_module():
    # the package re-exports no function under the submodule's name
    assert isinstance(ensograph.train, types.ModuleType)
    assert ensograph.train.train is train


# ----------------------------------------------------------------- manifest

def test_importing_the_package_leaves_hashlib_and_subprocess_out():
    # only write_manifest uses them, and only the CLI calls it
    assert python_output("import sys, ensograph\nprint('hashlib' in sys.modules, 'subprocess' in sys.modules)") \
        == ["False False"]


def test_manifest_contents(tmp_path):
    cfg = tiny_config()
    tcfg = TrainConfig(epochs=2)
    data = tmp_path / "data.bin"
    data.write_bytes(b"\x00" * 64)
    out = tmp_path / "manifest.json"
    write_manifest(out, cfg, tcfg, [data], extra={"note": 1})
    import json

    manifest = json.loads(out.read_text())
    assert manifest["model_config"]["n_nodes"] == cfg.n_nodes
    assert manifest["train_config"] == {"lr": 1e-3, "epochs": 2, "batch_size": 32,
                                        "seed": 0, "val_fraction": 0.1}
    assert manifest["note"] == 1
    assert len(manifest["data_files"]["data.bin"]) == 64  # sha256 hex
    # identical call writes identical bytes
    out2 = tmp_path / "manifest2.json"
    write_manifest(out2, cfg, tcfg, [data], extra={"note": 1})
    assert out.read_bytes() == out2.read_bytes()
