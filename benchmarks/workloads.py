"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in setup() (run several times,
so set-up time can be taken as a median), makes one closed-loop call per
call(), and in check() compares every result against references
recomputed here. References come from the same inputs on the same
machine, never from stored numbers.

Every workload appends each timed operation to ``ops`` as a (start, end,
net) triple: an optimizer step (train-gate), an eval pass (eval-record)
or a full gradient check (gradcheck-tiny). net is the wall time less the
time spent in reference-kernel samples inside the operation; each
workload takes such samples at points inside its operations, so that the
benchmark can rescale every operation by the machine speed around it. The
per-layer trace is normalised per unit, units_per_call per call.

Every package call goes through the module attribute (``cube.load_cube``,
not a bound name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import math
import time

import numpy as np

from reference import Mix

adiff, cube, graph, grid, indices, samples, skill, stgnn, synth, train = (
    importlib.import_module(f"ensograph.{name}")
    for name in ("adiff", "cube", "graph", "grid", "indices", "samples",
                 "skill", "stgnn", "synth", "train")
)


# Reference-kernel mixes (see reference.py), each close to the kind of work
# its workloads do; chosen by how well the normalised times agreed from one
# process to the next (README.md).
BLAS_MIX = Mix(python=0, numpy=600, gemm=24, stream=2)
OVERHEAD_MIX = Mix(python=10000, numpy=2000, gemm=8, stream=3)


def absolute_cube(config, seed: int, land_fraction: float):
    """Synthetic anomalies plus a mean state, with land cells outside the ONI box masked.

    Returns (SST cube, anomaly cube). The mean state is 28 degC at the
    equator cooling poleward, plus a seasonal cycle of opposite phase in
    each hemisphere.
    """
    anoms, _ = synth.generate(config)
    g = anoms.grid
    lat = np.asarray(g.lats)[None, :, None]
    month = (np.arange(config.months) % 12)[:, None, None]
    mean = 28.0 - 0.1 * np.abs(lat) + 0.05 * lat * np.cos(2 * np.pi * month / 12)
    values = anoms.values + mean
    box = set(grid.region_nodes(g, grid.ONI_BOX))
    outside = [(i, j) for i in range(g.n_lat) for j in range(g.n_lon) if (i, j) not in box]
    rng = np.random.default_rng([seed, 3])
    land = rng.choice(len(outside), size=round(land_fraction * g.n_cells), replace=False)
    missing = np.zeros(values.shape, dtype=bool)
    for c in land:
        missing[:, outside[c][0], outside[c][1]] = True
    values[missing] = 0.0
    return cube.SstCube(g, config.start, values.astype(np.float32), missing), anoms


@contextlib.contextmanager
def sampled_after(module, name: str, ref, stamps=None):
    """While active, module.name takes a reference sample after each return.

    It wraps whatever module.name is on entry (the tracer's wrapper, in a
    traced call) and appends (returned, resumed) times to stamps if given.
    If the module no longer binds name, nothing is sampled.
    """
    inner = getattr(module, name, None)
    if inner is None:
        yield
        return

    def clocked(*args, **kwargs):
        out = inner(*args, **kwargs)
        returned = time.perf_counter()
        ref.sample()
        if stamps is not None:
            stamps.append((returned, time.perf_counter()))
        return out

    setattr(module, name, clocked)
    try:
        yield
    finally:
        setattr(module, name, inner)


def _is_finite_history(history) -> bool:
    return all(math.isfinite(v) for v in history.train_loss + history.val_loss)


class TrainGate:
    """train.train on the release-gate config: 130 ONI-box nodes, window 3,
    horizon 4, batch 32, synthetic oscillator years 1900:1979, one epoch per
    call (about 10 s here, so a run fits two or three calls).

    During a call train.adam_step takes a reference sample after each
    return and stamps the time. An operation is the interval from the end
    of one full-batch step's sample to the return of the next step, so it
    holds one whole forward, backward, clip and Adam update. If train()
    gives no such stamps (it no longer calls train.adam_step once per
    batch), the operation is the whole call divided by its step count.
    """

    op = unit = "optimizer step"
    group_boundary = "train.adam_step"
    ref_mix = BLAS_MIX
    warmup_windows = 64

    def __init__(self, seed: int, workdir, ref):
        self.seed = seed
        self.ref = ref
        self.ops: list[tuple[float, float, float]] = []

    def setup(self):
        data, _ = synth.generate(synth.SynthConfig(seed=self.seed))
        train_anoms = cube.split_by_years(data, (1900, 1979))
        nodes = grid.region_nodes(data.grid, grid.ONI_BOX)
        self.config = stgnn.ModelConfig(n_nodes=len(nodes), horizon=4)
        self.samples = samples.make_samples(train_anoms, nodes, self.config.window, self.config.horizon)
        self.tconfig = train.TrainConfig(epochs=1)
        n = len(self.samples)
        self.n_train = n - int(n * self.tconfig.val_fraction)
        self.units_per_call = math.ceil(self.n_train / self.tconfig.batch_size)
        self.full_steps = self.n_train // self.tconfig.batch_size
        w = self.warmup_windows
        warm = dataclasses.replace(self.samples, inputs=self.samples.inputs[:w],
                                   node_targets=self.samples.node_targets[:w],
                                   start_months=self.samples.start_months[:w])
        train.train(self.config, train.TrainConfig(epochs=1), warm)

    def call(self):
        step_ends = []  # (step returned, clock resumed)
        t0, paused = time.perf_counter(), self.ref.paused
        with sampled_after(train, "adam_step", self.ref, step_ends):
            history = train.train(self.config, self.tconfig, self.samples).history
        t1 = time.perf_counter()
        # the first step also pays train()'s own set-up; the last may be short
        steps = step_ends[:self.full_steps]
        if len(steps) >= 2:
            self.ops += [(resumed, end, end - resumed) for (_, resumed), (end, _) in zip(steps, steps[1:])]
        else:
            self.ops.append((t0, t1, (t1 - t0 - (self.ref.paused - paused)) / self.units_per_call))
        return history

    def _initial_val_loss(self) -> float:
        """MAE of the untrained model on the held-out windows, scaled as train() scales them."""
        inputs = self.samples.inputs
        scale = float(np.std(inputs[:self.n_train].astype(np.float64)))
        x = (inputs[self.n_train:] / np.float32(scale)).astype(np.float32)
        xb = adiff.Tensor(np.ascontiguousarray(x.transpose(0, 2, 1)[:, None]))
        yb = adiff.Tensor(self.samples.node_targets[self.n_train:].astype(np.float32))
        params = stgnn.init_params(self.config)
        return train.mae_loss(stgnn.forward(params, self.config, xb), yb).item()

    def check(self, results):
        initial = self._initial_val_loss()
        completed = [h for h in results if not isinstance(h, Exception)]
        first = (completed[0].train_loss, completed[0].val_loss) if completed else None
        notes = []
        for i, h in enumerate(results):
            if isinstance(h, Exception):
                notes.append(f"call {i} raised {h!r}")
            elif not _is_finite_history(h):
                notes.append(f"call {i}: non-finite loss {h.train_loss} {h.val_loss}")
            elif not h.val_loss[-1] < initial:
                notes.append(f"call {i}: val loss {h.val_loss[-1]} not below untrained {initial}")
            elif (h.train_loss, h.val_loss) != first:
                notes.append(f"call {i}: loss history differs from the first call")
        return len(results), len(notes), notes

    def named_metrics(self, call_durations):
        return {
            "train_samples_per_s (wall)": f"{self.n_train * len(call_durations) / sum(call_durations):.4f} 1/s "
                                          f"over {len(call_durations)} calls of train()",
            "epoch_s (wall)": f"{np.median(call_durations):.4f} s median",
        }


# Shaped like the ERSSTv5 conversion in docs/ersstv5.md.
EVAL_LATS = tuple(float(v) for v in range(-20, 21, 2))
EVAL_LONS = tuple(float(v) for v in range(150, 281, 2))
EVAL_START, EVAL_MONTHS = (1871, 1), 1800
BASE_YEARS, TEST_YEARS = (1871, 1973), (1984, 2020)
LEADS, K = (1, 3, 6), 3
LAND_FRACTION = 0.03
CHUNK = 256  # forecast_index's batch size; the reference uses the same batches


class EvalRecord:
    """Full eval passes over an absolute-SST cube on disk with an untrained
    horizon-7 checkpoint: 435 test windows, forward at batch 256, no backward.
    One operation is one pass; the model forward takes a reference sample
    after each batch."""

    op = unit = "eval pass"
    group_boundary = None
    ref_mix = BLAS_MIX
    units_per_call = 1

    def __init__(self, seed: int, workdir, ref):
        self.seed = seed
        self.ref = ref
        self.ops: list[tuple[float, float, float]] = []
        self.meta_path = workdir / "sst.json"
        self.ckpt_path = workdir / "model.ckpt"
        self.csv_path = workdir / "skill.csv"

    def setup(self):
        config = synth.SynthConfig(lats=EVAL_LATS, lons=EVAL_LONS, months=EVAL_MONTHS,
                                   start=EVAL_START, seed=self.seed)
        sst, anoms = absolute_cube(config, self.seed, LAND_FRACTION)
        cube.save_cube(sst, self.meta_path)

        g = anoms.grid
        nodes = grid.region_nodes(g, grid.ONI_BOX)
        model = stgnn.ModelConfig(n_nodes=len(nodes), horizon=7, seed=self.seed)
        ii, jj = np.array(nodes).T
        base_months = 12 * (BASE_YEARS[1] - BASE_YEARS[0] + 1)
        input_scale = float(np.std(anoms.values[:base_months, ii, jj].astype(np.float64)))
        stgnn.save_checkpoint(self.ckpt_path, stgnn.init_params(model), model, input_scale,
                              self.seed, base_period=BASE_YEARS, grid=g, nodes=nodes)
        self.call()
        self.ops.clear()

    def _test_anomalies(self, ckpt):
        sst = cube.load_cube(self.meta_path)
        anoms = cube.anomalies(sst, cube.climatology(sst, ckpt.base_period))
        return cube.split_by_years(anoms, TEST_YEARS)

    def call(self):
        t0, paused = time.perf_counter(), self.ref.paused
        ckpt = stgnn.load_checkpoint(self.ckpt_path)
        test = self._test_anomalies(ckpt)
        with sampled_after(skill, "forward", self.ref):
            forecasts = skill.forecast_index(ckpt.params, ckpt.config, test, leads=LEADS, k=K,
                                             input_scale=ckpt.input_scale)
        skill.table_from_forecasts(forecasts).write_csv(self.csv_path)
        t1 = time.perf_counter()
        self.ops.append((t0, t1, t1 - t0 - (self.ref.paused - paused)))
        return forecasts, self.csv_path.read_bytes()

    def _reference(self):
        """Per-lead (model, persistence, observed) columns recomputed directly."""
        ckpt = stgnn.load_checkpoint(self.ckpt_path)
        config = ckpt.config
        test = self._test_anomalies(ckpt)
        nodes = grid.region_nodes(test.grid, grid.ONI_BOX)
        ii, jj = np.array(nodes).T
        series = test.values[:, ii, jj]  # [T, N]; the box has no land cells
        w, h = config.window, config.horizon
        n_windows = series.shape[0] - w - h + 1
        windows = np.stack([series[s:s + w] for s in range(n_windows)])
        scaled = (windows / np.float32(ckpt.input_scale)).astype(np.float32)
        preds = np.concatenate([
            stgnn.forward(ckpt.params, config, adiff.Tensor(
                np.ascontiguousarray(scaled[lo:lo + CHUNK].transpose(0, 2, 1)[:, None]))).data
            for lo in range(0, n_windows, CHUNK)
        ])
        weights = np.cos(np.radians([test.grid.lats[i] for i in ii]))
        pred_mean = preds.astype(np.float64) @ weights / weights.sum()  # [S, H], lead l at l-1
        obs_mean = series.astype(np.float64) @ weights / weights.sum()  # [T]
        oni = indices.oni(test, k=K).values  # month t is labelled at t - 1
        ref = {}
        for n in LEADS:
            model, persist, observed = [], [], []
            for s in range(n_windows):
                m = s + w - 1  # last input month
                window = [pred_mean[s, lead - 1] if lead >= 1 else obs_mean[m]
                          for lead in range(n - 1, n + 2)]
                model.append(sum(window) / K)
                persist.append(oni[m - 1])
                observed.append(oni[m + n - 1])
            ref[n] = (np.array(model), np.array(persist), np.array(observed))
        return ref

    def check(self, results):
        ref = self._reference()
        notes, csv0 = [], None
        for i, result in enumerate(results):
            if isinstance(result, Exception):
                notes.append(f"pass {i} raised {result!r}")
                continue
            forecasts, csv = result
            csv0 = csv0 or csv
            bad = []
            for n, (model, persist, observed) in ref.items():
                fc = forecasts[n]
                if not np.allclose(fc.predicted, model, rtol=0.0, atol=1e-6):
                    bad.append(f"lead {n} model off by {np.max(np.abs(fc.predicted - model)):.2e}")
                if not np.allclose(fc.persistence, persist, rtol=0.0, atol=1e-9):
                    bad.append(f"lead {n} persistence is not the shifted ONI")
                if not np.allclose(fc.observed, observed, rtol=0.0, atol=1e-9):
                    bad.append(f"lead {n} observed is not the shifted ONI")
            if csv != csv0:
                bad.append("skill CSV bytes differ from pass 0")
            if bad:
                notes.append(f"pass {i}: " + "; ".join(bad))
        return len(results), len(notes), notes

    def named_metrics(self, call_durations):
        ordered = sorted(call_durations)
        n = len(ordered)
        rank = math.ceil(0.9 * n)  # nearest-rank p90
        p90 = (f"{ordered[rank - 1]:.4f} s" if n - rank >= 10
               else f"n/a ({n} passes; p90 needs 100 so that ten lie beyond it)")
        return {"eval_s (wall)": f"{np.median(ordered):.4f} s median over {n} passes",
                "eval_s_p90 (wall)": p90}


class GradcheckTiny:
    """float64 adiff.grad_check of the 5-node model of release-gate check 1
    against a fixed random linear probe. One operation is one full check,
    about 1000 loss evaluations; the loss function samples the reference
    kernel every REF_EVERY evaluations, so a check spans several samples.
    """

    op = unit = "gradient check"
    group_boundary = None
    ref_mix = OVERHEAD_MIX
    units_per_call = 1
    REF_EVERY = 100

    def __init__(self, seed: int, workdir, ref):
        self.seed = seed
        self.ref = ref
        self.ops: list[tuple[float, float, float]] = []
        self.evaluations = 0

    def setup(self):
        self.config = stgnn.ModelConfig(
            n_nodes=5, horizon=2, window=3, residual_channels=4, conv_channels=4,
            skip_channels=4, end_channels=8,
            graph=graph.GraphLearnConfig(embed_dim=3, alpha=3.0, topk=3), seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.params = stgnn.init_params(self.config, dtype=np.float64)
        self.x = rng.standard_normal((2, 1, 5, self.config.window))
        self.probe = rng.standard_normal((2, self.config.horizon, 5))
        adiff.backward(self._loss())

    def _loss(self):
        self.evaluations += 1
        if self.evaluations % self.REF_EVERY == 0:
            self.ref.sample()
        pred = stgnn.forward(self.params, self.config, adiff.Tensor(self.x))
        return adiff.reduce_sum(adiff.mul(pred, self.probe))

    def call(self):
        t0, paused = time.perf_counter(), self.ref.paused
        result = adiff.grad_check(self._loss, dict(self.params.items()), h=1e-5, tol=1e-4)
        t1 = time.perf_counter()
        self.ops.append((t0, t1, t1 - t0 - (self.ref.paused - paused)))
        return result

    def check(self, results):
        n_tensors = len(self.params.names())
        attempted, notes = 0, []
        for i, result in enumerate(results):
            attempted += n_tensors
            if isinstance(result, Exception):
                notes += [f"check {i} raised {result!r}"] * n_tensors
                continue
            notes += [f"check {i}: {r.name} rel err {r.max_rel_err:.2e}" for r in result if not r.passed]
        return attempted, len(notes), notes

    def named_metrics(self, call_durations):
        return {"gradcheck_s (wall)": f"{np.median(call_durations):.4f} s median "
                                      f"over {len(call_durations)} checks"}


WORKLOADS = {"train-gate": TrainGate, "eval-record": EvalRecord, "gradcheck-tiny": GradcheckTiny}
