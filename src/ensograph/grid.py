"""Regular latitude/longitude grids and rectangular index regions.

Longitudes are kept in degrees east on [0, 360). Box bounds given as
negative longitudes (degrees west) are canonicalized to degrees east when
the box is constructed, so a Pacific box like 5S-5N, 170W-120W is stored
as lat -5..5, lon 190..240.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NodeId = tuple[int, int]


@dataclass(frozen=True)
class GridSpec:
    """Strictly ascending latitude and longitude axes of a regular grid."""

    lats: tuple[float, ...]
    lons: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lats", tuple(float(v) for v in self.lats))
        object.__setattr__(self, "lons", tuple(_east(v) for v in self.lons))
        if not self.lats or not self.lons:
            raise ValueError("grid axes must be non-empty")
        for lat in self.lats:
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"latitude {lat} outside [-90, 90]")
        for lon in self.lons:
            if not 0.0 <= lon < 360.0:
                raise ValueError(f"longitude {lon} outside [0, 360)")
        if any(b <= a for a, b in zip(self.lats, self.lats[1:])):
            raise ValueError("latitudes must be strictly ascending")
        if any(b <= a for a, b in zip(self.lons, self.lons[1:])):
            raise ValueError("longitudes must be strictly ascending")

    @property
    def n_lat(self) -> int:
        return len(self.lats)

    @property
    def n_lon(self) -> int:
        return len(self.lons)

    @property
    def n_cells(self) -> int:
        return self.n_lat * self.n_lon


def _east(lon: float) -> float:
    """Map a longitude to degrees east on [0, 360); negative means west."""
    lon = float(lon)
    if -360.0 < lon < 0.0:
        lon += 360.0
    return lon


@dataclass(frozen=True)
class RegionBox:
    """Inclusive lat/lon bounds of a rectangular region, degrees east."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        object.__setattr__(self, "lat_min", float(self.lat_min))
        object.__setattr__(self, "lat_max", float(self.lat_max))
        object.__setattr__(self, "lon_min", _east(self.lon_min))
        object.__setattr__(self, "lon_max", _east(self.lon_max))
        if self.lat_min > self.lat_max:
            raise ValueError("lat_min must not exceed lat_max")
        if not (-90.0 <= self.lat_min and self.lat_max <= 90.0):
            raise ValueError("latitude bounds outside [-90, 90]")
        if self.lon_min > self.lon_max:
            raise ValueError("lon_min must not exceed lon_max (dateline-crossing boxes unsupported)")
        if not (0.0 <= self.lon_min and self.lon_max < 360.0):
            raise ValueError("longitude bounds outside [0, 360)")


# Equatorial Pacific index region (5S-5N, 170W-120W). ONI and Nino3.4 both
# average SST anomalies over this box; they differ only in the smoothing
# window applied afterwards (3 vs 5 months).
ONI_BOX = RegionBox(-5.0, 5.0, 190.0, 240.0)


def region_nodes(grid: GridSpec, box: RegionBox) -> list[NodeId]:
    """Grid cells inside the box as (lat_index, lon_index), lat-major.

    Bounds are inclusive. Raises ValueError when no cell falls inside.
    """
    nodes = [
        (i, j)
        for i, lat in enumerate(grid.lats)
        if box.lat_min <= lat <= box.lat_max
        for j, lon in enumerate(grid.lons)
        if box.lon_min <= lon <= box.lon_max
    ]
    if not nodes:
        raise ValueError(f"no grid cells inside box {box}")
    return nodes


def node_coords(grid: GridSpec, nodes: list[NodeId]) -> list[tuple[float, float]]:
    return [(grid.lats[i], grid.lons[j]) for i, j in nodes]


def node_weights(grid: GridSpec, nodes: list[NodeId], weighting: str = "coslat") -> np.ndarray:
    """Per-node area weights: cos(latitude) or uniform ones."""
    if weighting == "coslat":
        w = np.array([math.cos(math.radians(grid.lats[i])) for i, _ in nodes], dtype=np.float64)
    elif weighting == "uniform":
        w = np.ones(len(nodes), dtype=np.float64)
    else:
        raise ValueError(f"unknown weighting {weighting!r} (use 'coslat' or 'uniform')")
    if w.sum() <= 0.0:
        raise ValueError("area weights sum to zero")
    return w
