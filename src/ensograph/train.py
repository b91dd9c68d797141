"""Deterministic minibatch training: MAE objective, Adam, gradient clipping.

MAE is the only objective. Adam runs with BETA1, BETA2 and EPS, updating
the parameters in place, and the global gradient norm is clipped to
CLIP_NORM; TrainConfig holds only what a caller varies. train keeps every
parameter as a view of one contiguous float32 buffer. Each step copies the
clipped gradients into a second buffer, checks it once and runs one
adam_step over the whole buffers, with the bytes of the per-tensor update.
A NaN or an infinity in a gradient stops training with the tensor's name,
the epoch and the step. The parameters a run returns stay views of its
buffer. Everything runs in float32 on the calling thread, whose GEMMs take
OPENBLAS_NUM_THREADS threads, and a (config, seed, data) triple reproduces
the same parameters bit for bit, under one BLAS thread and under two. Inputs
are scaled by one global standard deviation measured on the training inputs;
that scale travels with the checkpoint.

Training, validation and evaluation share one forward path: the model reads
runs of consecutive months (samples.run_inputs) and returns the forecast of
every window a run holds. An optimizer step covers batch_size windows as
batch_size / p runs of p windows, p + w - 1 months each, where p is the
largest divisor of batch_size that is at most RUN_WINDOWS. Each epoch the
seeded PCG64 generator draws where the p-window blocks start inside each
segment of consecutive training windows (make_samples drops windows that
touch missing data, so a block never crosses a gap) and then shuffles the
blocks; the fewer than p windows a segment's blocks leave over sit out that
epoch, and which they are changes from epoch to epoch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import adiff
from .adiff import Tensor
from .errors import NumericalError, _check_types
from .samples import SampleSet, consecutive_runs, run_inputs
from .stgnn import ModelConfig, ModelParams, forward, init_params

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 5.0
# Most windows one run of a step holds. A gate-config forward and backward over
# 32 windows took 20.7-21.1 ms as 32 single windows, 14.6-14.7 ms as 4 runs of 8
# and 13.8-14.1 ms as 1 run of 32 (one BLAS thread, unpinned, 2-vCPU Xeon); 8 keeps
# most of that saving while a step still mixes four independently shuffled blocks.
RUN_WINDOWS = 8


@dataclass(frozen=True)
class TrainConfig:
    """What a caller varies. batch_size counts the windows one optimizer step
    covers; the step holds them as runs of consecutive months (run_windows)."""

    lr: float = 1e-3
    epochs: int = 40
    batch_size: int = 32
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        _check_types([("epochs", self.epochs), ("batch_size", self.batch_size), ("seed", self.seed)],
                     [("lr", self.lr), ("val_fraction", self.val_fraction)])
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")


@dataclass
class TrainHistory:
    """Per-epoch losses of one `train` run.

    `train_loss[i]` is the size-weighted mean of the minibatch losses of epoch
    i, each taken before that step's update. Under constant-lr Adam with the
    MAE objective the gradient does not shrink near the optimum, so late in a
    run this value swings by about lr instead of settling; read the settled
    level as a mean over the last epochs, not from the final entry alone.
    `val_loss[i]` is the held-out loss after epoch i (empty without a split).
    """

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    seconds: float = 0.0


@dataclass
class TrainResult:
    params: ModelParams
    history: TrainHistory
    input_scale: float


def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over every element, as one tape node.

    pred takes the gradient sign(pred - target) / count; the target is data
    and takes none.
    """
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = np.subtract(pred.data, target.data)
    count = diff.size
    loss = np.asarray(np.abs(diff).sum() / count)
    return adiff._from_op(loss, (pred,), lambda g: adiff._accum(pred, np.sign(diff) * (g / count)))


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @staticmethod
    def zeros_like(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, t: int, config: TrainConfig):
    """One bias-corrected Adam update, written in place; returns (params, state).

    The arrays of params, state.m and state.v are updated in place, by the
    operations of m = BETA1*m + (1-BETA1)*g, v = BETA2*v + (1-BETA2)*(g*g)
    and p - lr*(m/bc1)/(sqrt(v/bc2) + EPS) in that order, through two
    scratch arrays per tensor, so the bytes are the formula's. Nothing is
    written unless every gradient is finite.
    """
    if t < 1:
        raise ValueError("step count t starts at 1")
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            raise NumericalError(f"non-finite gradient for {name!r}")
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        update = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += update
        denom = np.multiply(g, g)
        denom *= 1.0 - BETA2
        v *= BETA2
        v += denom
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, bc1, out=update)
        update *= config.lr
        update /= denom
        p -= update
    return params, state


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients together so their global L2 norm is <= max_norm.

    A NaN or an infinity makes the norm non-finite; the gradients are then
    returned unscaled, so no other tensor is scaled by it and the caller
    can name the tensor that holds it.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for g in grads.values():
        total += float(np.square(g, dtype=np.float64).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm or not math.isfinite(norm):
        return dict(grads)
    scale = np.float32(max_norm / norm)
    return {k: g * scale for k, g in grads.items()}


class _FlatParams:
    """A model's parameters as views of one contiguous float32 buffer, and one buffer for their gradients.

    Making it copies each tensor into the buffer, in the model's order, and
    points its data at its view there, so one adam_step over the buffers
    updates every tensor; every Adam operation is elementwise, so the bytes
    are those of the update on the separate tensors.
    """

    def __init__(self, params: ModelParams):
        self.names = params.names()
        tensors = [t for _, t in params.items()]
        self.data = np.empty(sum(t.data.size for t in tensors), np.float32)
        self.grad = np.empty_like(self.data)
        self.bounds = []
        lo = 0
        for t in tensors:
            self.bounds.append((lo, lo + t.data.size))
            view = self.data[lo:lo + t.data.size].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            lo += view.size

    def gradient(self, grads: dict[str, np.ndarray], epoch: int, step: int) -> np.ndarray:
        """The gradient buffer, filled from grads (one per tensor, in the model's order).

        Raises NumericalError naming the first tensor whose gradient holds a
        NaN or an infinity, with the epoch and step.
        """
        np.concatenate([g.reshape(-1) for g in grads.values()], out=self.grad)
        if not np.isfinite(self.grad).all():
            bad = next(i for i, (lo, hi) in enumerate(self.bounds) if not np.isfinite(self.grad[lo:hi]).all())
            raise NumericalError(f"non-finite gradient for {self.names[bad]!r} at epoch {epoch} step {step}")
        return self.grad


def run_windows(batch_size: int) -> int:
    """Windows per run of a step: the largest divisor of batch_size that is at most RUN_WINDOWS."""
    return max(p for p in range(1, RUN_WINDOWS + 1) if batch_size % p == 0)


def _eval_loss(params, config, inputs, targets, start_months) -> float:
    # detached copies share the buffers, so the validation forward builds no tape;
    # one forward per run of up to 256 windows; the first builds the learned graph, the rest reuse it
    detached = ModelParams({n: Tensor(t.data) for n, t in params.items()})
    total = 0.0
    for r in consecutive_runs(start_months, 256):
        xb = Tensor(run_inputs(inputs, [r.start], len(r)))
        total += mae_loss(forward(detached, config, xb), Tensor(targets[r.start:r.stop])).item() * len(r)
    return total / inputs.shape[0]


def train(config: ModelConfig, tconfig: TrainConfig, samples: SampleSet,
          log=None) -> TrainResult:
    """Fit the model on the sample set; deterministic for fixed seeds.

    The newest val_fraction of samples is held out for loss reporting only.
    Steps take the training windows in blocks of run_windows(batch_size)
    consecutive windows (see the module docstring), so a segment shorter
    than a block never trains, and a ValueError is raised when no segment
    holds one. Each epoch appends to history.train_loss the mean of its
    minibatch losses, each taken before that step's update; with the MAE
    objective and a constant lr this keeps swinging by about lr rather than
    settling (see TrainHistory). Raises NumericalError as soon as a loss or
    gradient goes non-finite.
    """
    if samples.window != config.window:
        raise ValueError(f"sample window {samples.window} != config window {config.window}")
    if samples.horizon != config.horizon:
        raise ValueError(f"sample horizon {samples.horizon} != config horizon {config.horizon}")
    if samples.inputs.shape[2] != config.n_nodes:
        raise ValueError(f"samples carry {samples.inputs.shape[2]} nodes, config expects {config.n_nodes}")
    n_total = len(samples)
    if n_total < 1:
        raise ValueError("no samples to train on")

    n_val = int(n_total * tconfig.val_fraction)
    n_train = n_total - n_val
    if n_train < 1:
        raise ValueError("validation split leaves no training samples")

    scale = float(np.std(samples.inputs[:n_train].astype(np.float64)))
    if not np.isfinite(scale) or scale == 0.0:
        scale = 1.0
    inputs = (samples.inputs / np.float32(scale)).astype(np.float32)
    targets = samples.node_targets.astype(np.float32)

    p = run_windows(tconfig.batch_size)
    runs_per_step = tconfig.batch_size // p
    segments = consecutive_runs(samples.start_months[:n_train], n_train)
    longest = max(len(seg) for seg in segments)
    if longest < p:
        raise ValueError(f"batch size {tconfig.batch_size} trains on runs of {p} consecutive windows, "
                         f"but the longest run of training windows has {longest}")

    params = init_params(config, seed=config.seed)
    flat = _FlatParams(params)
    state = AdamState.zeros_like({"params": flat.data})
    rng = np.random.default_rng(tconfig.seed)
    history = TrainHistory()
    started = time.perf_counter()
    step = 0

    for epoch in range(tconfig.epochs):
        # one draw places the blocks in every segment: a segment of L windows
        # starts them at one of its L mod p + 1 possible offsets
        shift = rng.random()
        firsts = np.concatenate([
            np.arange(seg.start + int(shift * (len(seg) % p + 1)), seg.stop - p + 1, p) for seg in segments
        ])
        firsts = firsts[rng.permutation(firsts.size)]
        epoch_sum, epoch_count = 0.0, 0
        for lo in range(0, firsts.size, runs_per_step):
            first = firsts[lo: lo + runs_per_step]
            idx = (first[:, None] + np.arange(p)).ravel()
            xb, yb = Tensor(run_inputs(inputs, first, p)), Tensor(targets[idx])
            params.zero_grad()
            loss = mae_loss(forward(params, config, xb), yb)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericalError(f"non-finite loss at epoch {epoch} step {step}")
            adiff.backward(loss)
            # a non-finite gradient leaves clipping unscaled, so the check names its tensor
            clipped = clip_gradients({n: t.grad for n, t in params.items()}, CLIP_NORM)
            grads = flat.gradient(clipped, epoch, step)
            step += 1
            # one update over the whole buffer writes every t.data in place
            adam_step({"params": flat.data}, {"params": grads}, state, step, tconfig)
            epoch_sum += value * idx.size
            epoch_count += idx.size
        history.train_loss.append(epoch_sum / epoch_count)
        if n_val:
            history.val_loss.append(
                _eval_loss(params, config, inputs[n_train:], targets[n_train:],
                           samples.start_months[n_train:])
            )
        if log is not None:
            val = f" val={history.val_loss[-1]:.5f}" if n_val else ""
            log(f"epoch {epoch + 1}/{tconfig.epochs} loss={history.train_loss[-1]:.5f}{val}")

    history.seconds = time.perf_counter() - started
    return TrainResult(params=params, history=history, input_scale=scale)


# ----------------------------------------------------------------- manifest

def _sha256(path: Path) -> str:
    import hashlib  # here, not at the top: only the CLI's manifest needs it

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _build_describe() -> str:
    import subprocess  # here, not at the top: only the CLI's manifest needs it

    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=here, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    from . import __version__
    return f"v{__version__}"


def write_manifest(path, config: ModelConfig, tconfig: TrainConfig, data_paths,
                   extra: dict | None = None):
    """Record everything needed to reproduce a run next to its checkpoint."""
    manifest = {
        "model_config": config.to_dict(),
        "train_config": asdict(tconfig),
        "data_files": {Path(p).name: _sha256(Path(p)) for p in data_paths},
        "build": _build_describe(),
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
