"""Seasonal sea-surface-temperature forecasting with a learned graph network.

The package covers the full loop: gridded SST cubes on disk, anomaly and
index computation, a spatiotemporal graph model trained with a small
hand-rolled reverse-mode autodiff engine, correlation-skill scoring against
a persistence baseline, and a synthetic oscillator for end-to-end checks.
"""

__version__ = "0.1.0"

from .adiff import Tensor, backward, grad_check
from .cube import (
    AnomalyCube,
    Climatology,
    SstCube,
    anomalies,
    climatology,
    load_cube,
    save_cube,
    split_by_years,
)
from .errors import EnsographError, NumericalError, ValidationError
from .graph import GraphLearnConfig, correlation_graph, export_edges, kept_adjacency
from .grid import ONI_BOX, GridSpec, RegionBox, node_weights, region_nodes
from .indices import IndexSeries, area_mean, oni, running_mean
from .samples import SampleSet, make_samples
from .skill import (
    LeadForecast,
    classify_events,
    forecast_index,
    pearson,
    rmse,
    table_from_forecasts,
)
from .stgnn import (
    ModelConfig,
    ModelParams,
    forward,
    hop_matrices,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .synth import SynthConfig, generate
from .train import TrainConfig, TrainResult, adam_step

__all__ = [
    "AnomalyCube",
    "Climatology",
    "EnsographError",
    "GraphLearnConfig",
    "GridSpec",
    "IndexSeries",
    "LeadForecast",
    "ModelConfig",
    "ModelParams",
    "NumericalError",
    "ONI_BOX",
    "RegionBox",
    "SampleSet",
    "SstCube",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "ValidationError",
    "adam_step",
    "anomalies",
    "area_mean",
    "backward",
    "classify_events",
    "climatology",
    "correlation_graph",
    "export_edges",
    "forecast_index",
    "forward",
    "generate",
    "grad_check",
    "hop_matrices",
    "init_params",
    "kept_adjacency",
    "load_checkpoint",
    "load_cube",
    "make_samples",
    "node_weights",
    "oni",
    "pearson",
    "region_nodes",
    "rmse",
    "running_mean",
    "save_checkpoint",
    "save_cube",
    "split_by_years",
    "table_from_forecasts",
]
