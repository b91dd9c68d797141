"""Sliding-window training samples over node anomaly series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import AnomalyCube
from .errors import ValidationError
from .grid import NodeId
from .months import Month, add_months, month_range


@dataclass
class SampleSet:
    """Model-ready windows: w input months and H target months per sample.

    inputs[s, :, n] holds months s..s+w-1 of node n and node_targets[s, :, n]
    months s+w..s+w+H-1. start_months labels each sample by the calendar
    month of its first input. Samples whose span touched a missing value
    were dropped; n_dropped counts them.
    """

    node_ids: list[NodeId]
    window: int
    horizon: int
    inputs: np.ndarray        # float32 [S, w, N]
    node_targets: np.ndarray  # float32 [S, H, N]
    start_months: list[Month]
    n_dropped: int = 0

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


def node_series(anoms: AnomalyCube, nodes: list[NodeId], window: int, horizon: int):
    """The nodes' series [T, N] (float32, contiguous) and, for each of its T - window - horizon + 1
    window starts, whether the window and its horizon touch missing data."""
    if window < 1 or horizon < 1:
        raise ValueError("window and horizon must be >= 1")
    if not nodes:
        raise ValueError("empty node list")
    T = anoms.n_time
    span = window + horizon
    if T < span:
        raise ValidationError(f"cube has {T} months but window+horizon={span}; nothing to sample")
    ii, jj = np.array(nodes).T
    series = np.ascontiguousarray(anoms.values[:, ii, jj])
    bad = np.lib.stride_tricks.sliding_window_view(anoms.missing[:, ii, jj].any(axis=1), span).any(axis=1)
    return series, bad


def make_samples(anoms: AnomalyCube, nodes: list[NodeId], window: int, horizon: int) -> SampleSet:
    """Cut every possible (input window, target block) pair from the cube.

    With no missing data the sample count is T - window - horizon + 1.
    """
    series, bad = node_series(anoms, nodes, window, horizon)
    blocks = np.lib.stride_tricks.sliding_window_view(series, window + horizon, axis=0)  # [S, N, span]
    kept = np.ascontiguousarray(blocks.transpose(0, 2, 1)[~bad])  # [S, span, N]
    start_months = [m for m, dropped in zip(month_range(anoms.start, len(bad)), bad) if not dropped]
    return SampleSet(
        node_ids=list(nodes),
        window=window,
        horizon=horizon,
        inputs=kept[:, :window, :].copy(),
        node_targets=kept[:, window:, :].copy(),
        start_months=start_months,
        n_dropped=int(bad.sum()),
    )


def consecutive_runs(start_months: list[Month], limit: int) -> list[range]:
    """Window indices cut into runs of consecutive start months, each at most `limit` long.

    make_samples drops windows that touch missing data, so the kept windows
    fall into segments of consecutive months; a run never crosses such a gap.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    runs, lo = [], 0
    for i in range(1, len(start_months) + 1):
        if i == len(start_months) or start_months[i] != add_months(start_months[i - 1], 1):
            runs += [range(s, min(s + limit, i)) for s in range(lo, i, limit)]
            lo = i
    return runs


def run_inputs(inputs: np.ndarray, firsts, length: int) -> np.ndarray:
    """Model input [R, 1, N, length + w - 1] for R runs of `length` consecutive windows.

    Run r holds windows firsts[r] .. firsts[r] + length - 1 of inputs [S, w, N].
    Consecutive windows overlap in w - 1 months, as make_samples cuts them,
    so a run is its first window's w months followed by the last month of
    each later window; stgnn.forward returns its forecasts in window order.
    """
    w = inputs.shape[1]
    t = np.arange(length + w - 1)
    window = np.asarray(firsts)[:, None] + np.maximum(t - w + 1, 0)  # [R, T]: the window holding month t
    months = inputs[window, np.minimum(t, w - 1)]  # [R, T, N]
    return np.ascontiguousarray(months.transpose(0, 2, 1)[:, None])
