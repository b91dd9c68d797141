"""Forecast verification: correlation skill tables and baselines.

Alignment convention: a lead-n forecast issued from an input window ending
at month m is scored against the observed index labeled at month m+n, and
the persistence baseline for that same target is the observed index at m.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adiff import Tensor
from .cube import AnomalyCube
from .errors import ValidationError
from .grid import ONI_BOX, node_weights, region_nodes
from .indices import IndexSeries, area_mean, running_mean
from .months import Month, add_months, month_range
from .samples import node_series
from .stgnn import ModelConfig, ModelParams, forward, predicted_index


class ZeroVarianceError(ValueError):
    """Correlation is undefined when either series is constant."""


def pearson(a, b) -> float:
    """Pearson correlation of two equal-length series (length >= 3)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"series shapes differ: {a.shape} vs {b.shape}")
    if a.size < 3:
        raise ValueError(f"need at least 3 points, got {a.size}")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise ZeroVarianceError("correlation undefined: a series has zero variance")
    return float((da * db).sum() / denom)


def rmse(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"series shapes differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def classify_events(index: IndexSeries, threshold: float = 0.5, min_run: int = 5):
    """Warm/cold events: runs of months at or beyond +-threshold.

    Returns (kind, start_month, end_month) tuples with kind 'ElNino' or
    'LaNina'; runs shorter than min_run are ignored.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if min_run < 1:
        raise ValueError("min_run must be >= 1")
    state = np.zeros(len(index), dtype=int)
    state[index.values >= threshold] = 1
    state[index.values <= -threshold] = -1
    events = []
    i = 0
    while i < len(index):
        if state[i] == 0:
            i += 1
            continue
        j = i
        while j < len(index) and state[j] == state[i]:
            j += 1
        if j - i >= min_run:
            kind = "ElNino" if state[i] > 0 else "LaNina"
            events.append((kind, index.month_of(i), index.month_of(j - 1)))
        i = j
    return events


@dataclass
class SkillRow:
    lead: int
    model_r: float
    model_rmse: float
    persistence_r: float
    persistence_rmse: float
    n_samples: int


@dataclass
class LeadForecast:
    """Aligned (target month, model forecast, observation, persistence) series."""

    lead: int
    target_months: list[Month]
    predicted: np.ndarray
    observed: np.ndarray
    persistence: np.ndarray


@dataclass
class SkillTable:
    rows: list[SkillRow]

    def to_csv_text(self) -> str:
        lines = ["lead,model_r,model_rmse,persistence_r,persistence_rmse,n_samples"]
        for r in self.rows:
            lines.append(
                f"{r.lead},{r.model_r:.6f},{r.model_rmse:.6f},"
                f"{r.persistence_r:.6f},{r.persistence_rmse:.6f},{r.n_samples}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        Path(path).write_text(self.to_csv_text())

    def __str__(self) -> str:
        head = f"{'lead':>4} {'model_r':>9} {'model_rmse':>11} {'persist_r':>10} {'persist_rmse':>13} {'n':>5}"
        body = [
            f"{r.lead:>4} {r.model_r:>9.4f} {r.model_rmse:>11.4f} "
            f"{r.persistence_r:>10.4f} {r.persistence_rmse:>13.4f} {r.n_samples:>5}"
            for r in self.rows
        ]
        return "\n".join([head] + body)


def _safe_pearson(a, b) -> float:
    try:
        return pearson(a, b)
    except ZeroVarianceError:
        return float("nan")


def forecast_index(
    params: ModelParams | None,
    config: ModelConfig,
    anoms: AnomalyCube,
    *,
    leads=(1, 3, 6),
    k: int = 3,
    weighting: str = "coslat",
    input_scale: float = 1.0,
    predictor=None,
    chunk: int = 64,
) -> dict[int, LeadForecast]:
    """Run the model over every test window and align forecasts by lead.

    The model runs on detached copies of `params` that share their buffers,
    so the forward builds no tape and the caller's tensors are untouched.
    Every forward shares one learned graph, built at most once per call
    (graph.propagation_matrices keeps the last one it built).
    Windows may not touch missing data, so each forward takes chunk + w - 1
    consecutive months cut straight from the node series, node-major
    [1, 1, N, chunk + w - 1], and returns the forecasts of the `chunk` windows
    they hold: each month passes the start projection once per run, not once
    per window. At the default 64 the widest activation, the head's 64-channel
    hidden layer, is near 2.1 MB at 130 nodes. `predictor` overrides the model:
    it maps windows [S, w, N] to node predictions [S, H, N] (used for oracle
    and baseline studies), `chunk` windows per call. Smoothing follows the
    observed index: centered k-month means labeled by target month, with
    observed area means filling leads <= 0; one batched `predicted_index`
    call computes every window's leads.
    """
    if predictor is None and params is None:
        raise ValueError("either params or a predictor is required")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    leads = sorted(set(int(n) for n in leads))
    if leads[0] < 1:
        raise ValueError("leads must be >= 1")
    half = k // 2
    if leads[-1] > config.horizon - (k - 1 - half):
        raise ValidationError(
            f"lead {leads[-1]} with k={k} needs horizon > {leads[-1] + (k - 1 - half) - 1}, "
            f"model has {config.horizon}"
        )
    if config.window < half:
        raise ValidationError(f"window {config.window} too short for k={k} smoothing")
    nodes = region_nodes(anoms.grid, ONI_BOX)
    if len(nodes) != config.n_nodes:
        raise ValidationError(
            f"region has {len(nodes)} nodes but the model expects {config.n_nodes}"
        )
    w = config.window
    series_nodes, bad = node_series(anoms, nodes, w, config.horizon)
    if bad.any():
        raise ValidationError(
            f"{int(bad.sum())} evaluation windows touch missing data; evaluation needs complete series"
        )
    S = len(bad)
    weights = node_weights(anoms.grid, nodes, weighting)
    series = area_mean(anoms, nodes, weighting)
    observed = running_mean(series, k, anoms.start)

    if predictor is None:
        detached = ModelParams({n: Tensor(t.data) for n, t in params.items()})
        scaled = series_nodes / np.float32(input_scale)

        def run(lo, hi):
            x = np.ascontiguousarray(scaled[lo:hi + w - 1].T)[None, None]  # [1, 1, N, hi - lo + w - 1]
            return forward(detached, config, Tensor(x)).data
    else:
        def run(lo, hi):  # windows [hi - lo, w, N]
            return np.asarray(predictor(series_nodes[np.arange(lo, hi)[:, None] + np.arange(w)]))

    preds = np.concatenate([run(lo, min(lo + chunk, S)) for lo in range(0, S, chunk)], axis=0)
    if preds.shape != (S, config.horizon, len(nodes)):
        raise ValueError(f"predictor returned {preds.shape}, expected {(S, config.horizon, len(nodes))}")

    # predicted index at every feasible lead for every sample
    m_of = np.arange(S) + w - 1  # offset of the last input month
    tails = series[m_of[:, None] + np.arange(1 - half, 1)]  # [S, half], lead 0 last
    per_lead = predicted_index(preds, tails, weights, k)

    # lead n targets calendar[n - leads[0]:][:S]: one list of months serves every lead
    calendar = month_range(add_months(anoms.start, w - 1 + leads[0]), S + leads[-1] - leads[0])
    out: dict[int, LeadForecast] = {}
    for n in leads:
        target_idx = m_of + n - half  # position of month m+n in the smoothed series
        if target_idx.min() < 0 or target_idx.max() >= len(observed):
            raise ValidationError(f"observed index does not cover every lead-{n} target")
        persist_idx = m_of - half
        if persist_idx.min() < 0:
            raise ValidationError(f"observed index does not cover issuance months for lead {n}")
        out[n] = LeadForecast(
            lead=n,
            target_months=calendar[n - leads[0]: n - leads[0] + S],
            predicted=per_lead[:, n - 1].copy(),
            observed=observed.values[target_idx],
            persistence=observed.values[persist_idx],
        )
    return out


def table_from_forecasts(forecasts: dict[int, LeadForecast]) -> SkillTable:
    rows = []
    for n in sorted(forecasts):
        fc = forecasts[n]
        rows.append(SkillRow(
            lead=n,
            model_r=_safe_pearson(fc.predicted, fc.observed),
            model_rmse=rmse(fc.predicted, fc.observed),
            persistence_r=_safe_pearson(fc.persistence, fc.observed),
            persistence_rmse=rmse(fc.persistence, fc.observed),
            n_samples=len(fc.target_months),
        ))
    return SkillTable(rows)


def export_predictions(path, forecasts: dict[int, LeadForecast]):
    """Predicted-vs-observed pairs as CSV for external plotting."""
    lines = ["lead,year,month,predicted,observed"]
    for n in sorted(forecasts):
        fc = forecasts[n]
        for ym, p, o in zip(fc.target_months, fc.predicted, fc.observed):
            lines.append(f"{n},{ym[0]},{ym[1]},{p:.6f},{o:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
