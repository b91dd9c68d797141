"""Release gate: the eight checks a build must pass before it ships.

Each test appends one [PASS]/[FAIL] line to the report printed after the
run, with the measured numbers, so a glance at the output shows where the
build stands. The last check needs an externally converted observation
cube and is skipped when ENSOGRAPH_ERSST is not set.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import conftest
from ensograph import adiff
from ensograph.adiff import Tensor
from ensograph.cli import main
from ensograph.cube import SstCube, save_cube, split_by_years
from ensograph.graph import GraphLearnConfig, _topk_mask, kept_adjacency, propagation_matrices
from ensograph.grid import ONI_BOX, GridSpec, region_nodes
from ensograph.samples import make_samples
from ensograph.skill import forecast_index, table_from_forecasts
from ensograph.stgnn import ModelConfig, forward, head, init_params, mixhop_conv, temporal_block
from ensograph.synth import SynthConfig, generate
from ensograph.train import TrainConfig, mae_loss, train
from helpers import random_anoms, random_sst, small_grid, tiny_config


def _record(ok: bool, text: str):
    conftest.acceptance_lines.append(("[PASS] " if ok else "[FAIL] ") + text)
    assert ok, text


# ------------------------------------------------------ 1: gradient checks

def _signed_away_from_zero(rng, shape, lo=0.2, hi=1.5):
    """Random values with |x| >= lo, so kinked ops see no sign flips."""
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def _op_cases(rng):
    """(name, loss_fn, params) for every differentiable operation.

    Each loss is a fixed linear probe of the op output, so the scalar
    reduction adds no curvature of its own.
    """
    def probe(shape):
        return rng.standard_normal(shape)

    def leaf(arr):
        return Tensor(arr, requires_grad=True)

    cases = []

    def linear(name, build, out_shape, params):
        c = probe(out_shape)
        cases.append((name, lambda: adiff.reduce_sum(adiff.mul(build(), c)), params))

    a = leaf(rng.standard_normal((3, 4)))
    b = leaf(rng.standard_normal((3, 4)))
    linear("mul", lambda: adiff.mul(a, b), (3, 4), {"a": a, "b": b})

    row = leaf(rng.standard_normal((4,)))
    linear("mul_broadcast", lambda: adiff.mul(a, row), (3, 4), {"a": a, "row": row})

    m1 = leaf(rng.standard_normal((3, 4)))
    m2 = leaf(rng.standard_normal((4, 5)))
    linear("matmul", lambda: adiff.matmul(m1, m2), (3, 5), {"m1": m1, "m2": m2})

    b1 = leaf(rng.standard_normal((2, 3, 4)))
    linear("matmul_lead_axes", lambda: adiff.matmul(b1, m2), (2, 3, 5), {"b1": b1, "m2": m2})
    b2 = leaf(rng.standard_normal((4, 2, 5)))
    linear("matmul_trail_axes", lambda: adiff.matmul(m1, b2), (3, 2, 5), {"m1": m1, "b2": b2})
    bias = leaf(rng.standard_normal((5,)))
    linear("matmul_bias", lambda: adiff.matmul(b1, m2, bias), (2, 3, 5), {"b1": b1, "m2": m2, "bias": bias})

    linear("tanh", lambda: adiff.tanh(a), (3, 4), {"a": a})

    # the gated temporal conv: K dilated time slices of node-major [N, B, T, C] in one node
    cx = leaf(rng.standard_normal((2, 2, 6, 3)))
    cb = leaf(rng.standard_normal((4,)))
    for K in (1, 2, 3):
        ck = leaf(rng.standard_normal((3 * K, 4)))
        for d in (1, 2):
            linear(f"temporal_k{K}_d{d}", lambda ck=ck, d=d: temporal_block(cx, ck, cb, d),
                   (2, 2, 6 - d * (K - 1), 2), {"x": cx, "k": ck, "b": cb})

    r = leaf(rng.standard_normal((3, 4, 2)))
    cases.append(("reduce_sum", lambda: adiff.reduce_sum(r), {"x": r}))
    linear("reduce_sum_axis", lambda: adiff.reduce_sum(r, axes=(1,)), (3, 2), {"x": r})

    # the MAE loss, with every |pred - target| off the kink at 0
    target = Tensor(rng.standard_normal((3, 4)))
    pred = leaf(target.data + _signed_away_from_zero(rng, (3, 4)))
    cases.append(("mae_loss", lambda: mae_loss(pred, target), {"pred": pred}))

    # the fused graph kernels, the learned graph's node and the fused mix-hop
    # propagation, projection and residual
    e1 = leaf(rng.standard_normal((5, 3)))
    e2 = leaf(rng.standard_normal((5, 3)))
    # top-3 of 5: relu zeroes about half of each row, so the kept set takes zeros tied with the dropped;
    # at alpha 40 tanh rounds some entries to 1, where the adjacency is capped below 1
    for name, alpha, topk in (("top3", 1.5, 3), ("top5", 1.5, 5), ("saturated", 40.0, 5)):
        graph = GraphLearnConfig(embed_dim=3, alpha=alpha, topk=topk)
        linear(f"propagation_matrices_{name}", lambda graph=graph: propagation_matrices(e1, e2, graph, 0.05),
               (2, 5, 5), {"e1": e1, "e2": e2})
    mh = leaf(rng.standard_normal((3, 2, 2, 2)))
    hops = leaf(rng.uniform(0.0, 1.0, (2, 3, 3)))
    mw = leaf(rng.standard_normal((10, 4)))
    mb = leaf(rng.standard_normal((4,)))
    res = leaf(rng.standard_normal((3, 2, 3, 4)))
    linear("mixhop_conv", lambda: mixhop_conv(mh, hops, 0.05, 2, mw, mb), (3, 2, 2, 4),
           {"h": mh, "hops": hops, "w": mw, "b": mb})
    linear("mixhop_conv_residual", lambda: mixhop_conv(mh, hops, 0.05, 2, mw, mb, res), (3, 2, 2, 4),
           {"h": mh, "hops": hops, "w": mw, "b": mb, "residual": res})

    # the head over one or two layers' outputs [N=3, B=2, T, C=2]; T == P
    # at the last layer for a window per row, T > P for a run of months
    for times, P in (((1,), 1), ((2, 1), 1), ((4,), 2), ((5, 3), 3)):
        hs = [leaf(rng.standard_normal((3, 2, T, 2))) for T in times]
        skips = [(leaf(rng.standard_normal(((T - P + 1) * 2, 3))), leaf(rng.standard_normal(3))) for T in times]
        end1 = (leaf(rng.standard_normal((3, 4))), leaf(rng.standard_normal(4)))
        end2 = (leaf(rng.standard_normal((4, 2))), leaf(rng.standard_normal(2)))
        params = {f"h{l}": h for l, h in enumerate(hs)}
        params.update({f"skip{l}_{i}": t for l, pair in enumerate(skips) for i, t in enumerate(pair)})
        params.update({f"end{j}_{i}": t for j, pair in enumerate((end1, end2)) for i, t in enumerate(pair)})
        linear(f"head_{len(times)}_layers_T{times[-1]}_P{P}",
               lambda hs=hs, skips=skips, end1=end1, end2=end2, P=P: head(hs, skips, end1, end2, P),
               (2 * P, 2, 3), params)

    return cases


def test_every_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    worst, worst_name = 0.0, ""
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for name, f, params in _op_cases(rng):
            for res in adiff.grad_check(f, params, h=1e-5, tol=1e-4):
                if res.max_rel_err > worst:
                    worst, worst_name = res.max_rel_err, f"{name}/{res.name}"
                if not res.passed:
                    failures.append(f"{name}/{res.name} seed {seed}: {res.max_rel_err:.2e}")

        config = tiny_config(n_nodes=5, horizon=2, seed=seed)
        params = init_params(config, dtype=np.float64)
        x = rng.standard_normal((2, 1, 5, config.window))
        c = rng.standard_normal((2, config.horizon, 5))

        def model_loss():
            return adiff.reduce_sum(adiff.mul(forward(params, config, Tensor(x)), c))

        for res in adiff.grad_check(model_loss, dict(params.items()), h=1e-5, tol=1e-4):
            if res.max_rel_err > worst:
                worst, worst_name = res.max_rel_err, f"model/{res.name}"
            if not res.passed:
                failures.append(f"model/{res.name} seed {seed}: {res.max_rel_err:.2e}")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 60.0
    _record(ok, f"gradient checks: every op and the 5-node model over 10 seeds, "
                f"worst rel err {worst:.1e} ({worst_name}), {elapsed:.1f}s"
                + (f"; failures: {failures[:3]}" if failures else ""))


# -------------------------------------------------- 2: adjacency invariants

def test_adjacency_invariants_hold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bad = []
    for trial in range(1000):
        n = int(rng.integers(4, 24))
        d = int(rng.integers(2, 8))
        alpha = float(rng.uniform(0.5, 60.0))
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        e1 = scale * rng.standard_normal((n, d))
        e2 = scale * rng.standard_normal((n, d))
        # top-n keeps every entry, so a is the whole adjacency
        a = kept_adjacency(e1, e2, GraphLearnConfig(embed_dim=d, alpha=alpha, topk=n))
        if not (a >= 0.0).all():
            bad.append(f"trial {trial}: negative entry")
        if not (a < 1.0).all():
            bad.append(f"trial {trial}: entry at or above 1")
        if not (np.diagonal(a) == 0.0).all():
            bad.append(f"trial {trial}: nonzero diagonal")
        if not (a * a.T == 0.0).all():
            bad.append(f"trial {trial}: both directions live")
        k = int(rng.integers(1, n + 1))
        mask = _topk_mask(a, k)
        s = a if mask is None else a * mask
        if not (np.count_nonzero(s, axis=1) <= k).all():
            bad.append(f"trial {trial}: row exceeds top-{k}")
        if bad:
            break
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed <= 10.0
    _record(ok, f"adjacency invariants: 1000 random embeddings, range/diagonal/"
                f"one-direction/top-k all hold, {elapsed:.1f}s"
                + (f"; first failure: {bad[0]}" if bad else ""))


# ------------------------------------------------------ 3: training samples

def test_sample_count_on_1236_month_record(tmp_path, capsys):
    anoms = random_anoms(np.random.default_rng(0), small_grid(),
                         n_time=1236, start=(1871, 1))
    assert anoms.end == (1973, 12)
    nodes = region_nodes(anoms.grid, ONI_BOX)
    got = len(make_samples(anoms, nodes, 3, 1))

    # the training command reports the same pairing count
    cube = random_sst(np.random.default_rng(1), small_grid(),
                      n_time=1236, start=(1871, 1))
    meta = save_cube(cube, tmp_path / "record")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"residual_channels": 4, "conv_channels": 4, "skip_channels": 4,
                  "end_channels": 8, "graph": {"embed_dim": 3, "topk": 3}},
        "train": {"epochs": 1},
    }))
    code = main(["train", "--data", str(meta), "--out", str(tmp_path / "m.ckpt"),
                 "--train-period", "1871:1973", "--leads", "1", "--config", str(cfg)])
    out = capsys.readouterr().out
    cli_ok = code == 0 and "1233 samples at window 3 (lead-1 pairing)" in out

    ok = got == 1233 and cli_ok
    _record(ok, f"sample count: 1236 months (1871-01..1973-12), window 3, "
                f"horizon 1 -> {got} samples (want 1233); training log agrees")


# ----------------------------------------------------------- 4: index oracle

def _brute_force_oni(cube, base_period, k=3):
    """Loop recomputation of the smoothed box index, no shared library code.

    Per-calendar-month means over the base years, anomalies, cos-lat area
    mean over the box cells, then a centered k-month mean.
    """
    y0, y1 = base_period
    lats, lons = cube.grid.lats, cube.grid.lons
    box_cells = [(i, j) for i, lat in enumerate(lats) for j, lon in enumerate(lons)
                 if -5.0 <= lat <= 5.0 and 190.0 <= lon <= 240.0]
    T = cube.n_time

    def month_at(t):
        y, m = cube.start
        total = y * 12 + (m - 1) + t
        return total // 12, total % 12 + 1

    clim = {}
    clim_missing = {}
    for i, j in box_cells:
        for m in range(1, 13):
            total, count = 0.0, 0
            for t in range(T):
                yy, mm = month_at(t)
                if mm == m and y0 <= yy <= y1 and not cube.missing[t, i, j]:
                    total += float(cube.values[t, i, j])
                    count += 1
            clim[(i, j, m)] = total / count if count else 0.0
            clim_missing[(i, j, m)] = count == 0

    raw = []
    for t in range(T):
        _, m = month_at(t)
        num, den = 0.0, 0.0
        for i, j in box_cells:
            if cube.missing[t, i, j] or clim_missing[(i, j, m)]:
                continue
            w = math.cos(math.radians(lats[i]))
            num += w * (float(cube.values[t, i, j]) - clim[(i, j, m)])
            den += w
        raw.append(num / den)

    half = k // 2
    smoothed = [sum(raw[t - half: t + half + 1]) / k for t in range(half, T - half)]
    return smoothed


def test_index_command_matches_brute_force(tmp_path):
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(50):
        n_lat = int(rng.integers(2, 6))
        n_lon = int(rng.integers(3, 7))
        lat0 = float(rng.choice([-6.0, -4.0, -2.0]))
        lon0 = float(rng.choice([185.0, 190.0, 200.0]))
        lats = tuple(lat0 + 2.5 * i for i in range(n_lat))
        lons = tuple(lon0 + 5.0 * j for j in range(n_lon))
        n_time = int(rng.integers(36, 73))
        start = (int(1950 + rng.integers(0, 20)), int(rng.integers(1, 13)))

        values = 20.0 + 2.0 * rng.standard_normal((n_time, n_lat, n_lon))
        missing = rng.random(values.shape) < 0.08
        box_i = [i for i, lat in enumerate(lats) if -5.0 <= lat <= 5.0][0]
        box_j = [j for j, lon in enumerate(lons) if 190.0 <= lon <= 240.0][0]
        missing[:, box_i, box_j] = False  # keep one box cell live every month
        values = np.where(missing, 0.0, values)

        cube = SstCube(GridSpec(lats, lons), start, values.astype(np.float32), missing)
        end_year = cube.end[0]
        meta = save_cube(cube, tmp_path / f"c{trial}")
        out = tmp_path / f"o{trial}.csv"
        code = main(["oni", "--data", str(meta), "--out", str(out),
                     "--base-period", f"{start[0]}:{end_year}"])
        assert code == 0

        got = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
        want = _brute_force_oni(cube, (start[0], end_year))
        assert len(got) == len(want)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))

    ok = worst <= 1e-5
    _record(ok, f"index oracle: 50 randomized cubes, command output vs loop "
                f"recomputation, worst gap {worst:.1e} degC (tol 1e-5)")


# ------------------------------------------------------ 5: alignment oracle

def test_alignment_oracle_scores_one():
    grid = small_grid()
    anoms = random_anoms(np.random.default_rng(12), grid, n_time=84)
    nodes = region_nodes(grid, ONI_BOX)
    config = tiny_config(n_nodes=len(nodes), horizon=7)
    samples = make_samples(anoms, nodes, config.window, config.horizon)
    state = {"lo": 0}

    def oracle(batch):
        lo = state["lo"]
        state["lo"] = lo + len(batch)
        return samples.node_targets[lo: lo + len(batch)]

    table = table_from_forecasts(forecast_index(None, config, anoms, leads=(1, 3, 6), k=3,
                                                predictor=oracle))

    # independent persistence: centered means correlated against themselves
    series_vals = anoms.values[:, [i for i, _ in nodes], [j for _, j in nodes]]
    weights = np.cos(np.radians([grid.lats[i] for i, _ in nodes]))
    series = (series_vals.astype(np.float64) @ weights) / weights.sum()
    smoothed = np.array([series[t - 1: t + 2].mean() for t in range(1, len(series) - 1)])
    issued = np.arange(len(samples)) + config.window - 1 - 1  # smoothed is offset by one

    worst_r = max(abs(row.model_r - 1.0) for row in table.rows)
    worst_p = 0.0
    for row in table.rows:
        x = smoothed[issued]
        y = smoothed[issued + row.lead]
        direct = float(np.corrcoef(x, y)[0, 1])
        worst_p = max(worst_p, abs(row.persistence_r - direct))

    ok = worst_r <= 1e-9 and worst_p <= 1e-9
    _record(ok, f"alignment oracle: injected truth scores r = 1 within {worst_r:.1e} "
                f"at leads 1/3/6; persistence vs direct shift within {worst_p:.1e}")


# --------------------------------------------------- 6: synthetic end to end

def test_synthetic_end_to_end_beats_persistence():
    t0 = time.perf_counter()
    cube, _ = generate(SynthConfig())
    train_anoms = split_by_years(cube, (1900, 1979))
    test_anoms = split_by_years(cube, (1980, 1999))
    nodes = region_nodes(cube.grid, ONI_BOX)
    config = ModelConfig(n_nodes=len(nodes), horizon=4, seed=0)
    samples = make_samples(train_anoms, nodes, config.window, config.horizon)
    result = train(config, TrainConfig(), samples)
    forecasts = forecast_index(result.params, config, test_anoms, leads=(1, 3),
                               k=3, input_scale=result.input_scale)
    table = table_from_forecasts(forecasts)
    elapsed = time.perf_counter() - t0

    by_lead = {row.lead: row for row in table.rows}
    r1 = by_lead[1].model_r
    r3, p3 = by_lead[3].model_r, by_lead[3].persistence_r
    ok = r1 >= 0.80 and r3 >= p3 and elapsed <= 600.0
    _record(ok, f"synthetic end to end: 130 nodes, 1200 months, default model; "
                f"lead-1 r {r1:.4f} (need >= 0.80), lead-3 r {r3:.4f} vs "
                f"persistence {p3:.4f}, {elapsed:.0f}s (budget 600s)")


# ----------------------------------------------------------- 7: determinism

def test_train_eval_runs_are_bitwise_identical(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "cube"), "--months", "120",
                 "--seed", "3"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"train": {"epochs": 3}}))

    runs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.ckpt"
        table = tmp_path / f"{name}.csv"
        assert main(["train", "--data", str(tmp_path / "cube.json"),
                     "--out", str(ckpt), "--train-period", "1900:1907",
                     "--leads", "1,3", "--seed", "5", "--config", str(cfg)]) == 0
        assert main(["eval", "--data", str(tmp_path / "cube.json"),
                     "--checkpoint", str(ckpt), "--test-period", "1908:1909",
                     "--leads", "1,3", "--out", str(table)]) == 0
        runs.append((ckpt.read_bytes(), table.read_bytes()))
    capsys.readouterr()

    same_ckpt = runs[0][0] == runs[1][0]
    same_table = runs[0][1] == runs[1][1]
    ok = same_ckpt and same_table
    _record(ok, f"determinism: repeated train+eval, checkpoint bytes "
                f"{'identical' if same_ckpt else 'DIFFER'}, skill table bytes "
                f"{'identical' if same_table else 'DIFFER'}")


# ------------------------------------------------------------- 8: real data

def test_observed_record_reproduction(tmp_path, capsys):
    data = os.environ.get("ENSOGRAPH_ERSST")
    if not data:
        conftest.acceptance_lines.append(
            "[SKIP] observed-record reproduction: set ENSOGRAPH_ERSST to a "
            "converted cube header to run (thresholds 0.90/0.75/0.45)")
        pytest.skip("ENSOGRAPH_ERSST not set")

    t0 = time.perf_counter()
    ckpt = tmp_path / "real.ckpt"
    table = tmp_path / "real.csv"
    assert main(["train", "--data", data, "--out", str(ckpt),
                 "--train-period", "1871:1973", "--leads", "1,3,6",
                 "--seed", "0"]) == 0
    assert main(["eval", "--data", data, "--checkpoint", str(ckpt),
                 "--test-period", "1984:2020", "--leads", "1,3,6",
                 "--out", str(table)]) == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - t0

    rows = {}
    for line in table.read_text().splitlines()[1:]:
        parts = line.split(",")
        rows[int(parts[0])] = (float(parts[1]), float(parts[3]))
    r1, r3, r6 = rows[1][0], rows[3][0], rows[6][0]
    p3 = rows[3][1]
    ok = r1 >= 0.90 and r3 >= 0.75 and r6 >= 0.45 and r3 >= p3 and elapsed <= 1800.0
    _record(ok, f"observed record 1984..2020: lead-1 r {r1:.4f} (>= 0.90), "
                f"lead-3 r {r3:.4f} (>= 0.75, persistence {p3:.4f}), "
                f"lead-6 r {r6:.4f} (>= 0.45), {elapsed:.0f}s")
