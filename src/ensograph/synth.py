"""Synthetic anomaly cubes from a damped stochastic oscillator.

The latent signal is the real part of a complex AR(1) phasor: each month
the phasor is rotated by theta = (2*pi/P) * sqrt(1 - zeta^2), shrunk by
r = exp(-zeta * 2*pi/P), and kicked by Gaussian process noise on both
components. With all noise off this collapses to an exact damped sinusoid
A * r^t * cos(theta * t). Cell values are the latent times a smooth
spatial loading bump, plus independent observation noise per cell, so the
cube carries a single coherent mode that a forecaster can discover.

Process and observation noise use separate seeded streams: changing the
observation noise level leaves the latent series bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cube import AnomalyCube
from .grid import GridSpec
from .months import Month, check_ym, month_range

_DEFAULT_LATS = tuple(float(v) for v in range(-4, 5, 2))
_DEFAULT_LONS = tuple(float(v) for v in range(190, 241, 2))


@dataclass(frozen=True)
class SynthConfig:
    lats: tuple[float, ...] = _DEFAULT_LATS
    lons: tuple[float, ...] = _DEFAULT_LONS
    months: int = 1200
    start: Month = (1900, 1)
    seed: int = 0
    period: float = 48.0        # oscillation period, months
    damping: float = 0.1        # damping ratio zeta
    process_noise: float = 0.1  # per-step kick on the phasor, degC
    obs_noise: float = 0.3      # per-cell white noise, degC
    amplitude: float = 1.0      # initial phasor magnitude, degC
    width_lat: float = 5.0      # loading bump scale, degrees
    width_lon: float = 25.0

    def __post_init__(self):
        object.__setattr__(self, "start", check_ym(self.start))
        for name in ("period", "process_noise", "obs_noise", "amplitude", "width_lat", "width_lon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.months < 24:
            raise ValueError(f"need at least 24 months, got {self.months}")
        if self.period < 4.0:
            raise ValueError("period must be >= 4 months")
        if not 0.0 < self.damping < 1.0:
            raise ValueError("damping ratio must lie in (0, 1)")
        if self.process_noise < 0 or self.obs_noise < 0:
            raise ValueError("noise levels must be >= 0")
        if self.width_lat <= 0 or self.width_lon <= 0:
            raise ValueError("loading widths must be positive")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.lats, self.lons)


def loading_pattern(config: SynthConfig) -> np.ndarray:
    """Smooth Gaussian bump centered in the domain, peak value 1."""
    grid = config.grid
    lat_c = 0.5 * (grid.lats[0] + grid.lats[-1])
    lon_c = 0.5 * (grid.lons[0] + grid.lons[-1])
    dlat = (np.asarray(grid.lats) - lat_c)[:, None]
    dlon = (np.asarray(grid.lons) - lon_c)[None, :]
    return np.exp(-(dlat ** 2 / (2 * config.width_lat ** 2)
                    + dlon ** 2 / (2 * config.width_lon ** 2)))


def latent_series(config: SynthConfig) -> np.ndarray:
    """The damped stochastic oscillator alone, float64 [months]."""
    omega = 2.0 * math.pi / config.period
    r = math.exp(-config.damping * omega)
    theta = omega * math.sqrt(1.0 - config.damping ** 2)
    rng = np.random.default_rng([config.seed, 1])
    kicks = config.process_noise * rng.standard_normal((config.months, 2))
    z = np.empty(config.months)
    x, y = config.amplitude, 0.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    for t in range(config.months):
        z[t] = x
        x, y = (
            r * (cos_t * x - sin_t * y) + kicks[t, 0],
            r * (sin_t * x + cos_t * y) + kicks[t, 1],
        )
    return z


def generate(config: SynthConfig) -> tuple[AnomalyCube, np.ndarray]:
    """Build the cube and return it with the latent series."""
    z = latent_series(config)
    loading = loading_pattern(config)
    field = z[:, None, None] * loading[None, :, :]
    if config.obs_noise > 0:
        rng = np.random.default_rng([config.seed, 2])
        field = field + config.obs_noise * rng.standard_normal(field.shape)
    values = field.astype(np.float32)
    cube = AnomalyCube(config.grid, config.start, values, np.zeros(values.shape, dtype=bool))
    return cube, z


def write_latent_csv(path, latent: np.ndarray, start: Month):
    lines = ["year,month,latent"]
    for ym, v in zip(month_range(start, len(latent)), latent):
        lines.append(f"{ym[0]},{ym[1]},{v:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
