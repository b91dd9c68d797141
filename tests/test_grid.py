import numpy as np
import pytest

from ensograph.grid import (
    ONI_BOX,
    GridSpec,
    RegionBox,
    node_coords,
    node_weights,
    region_nodes,
)
from helpers import oni_grid


def test_gridspec_counts():
    g = GridSpec((0.0, 2.0, 4.0), (10.0, 20.0))
    assert g.n_lat == 3 and g.n_lon == 2 and g.n_cells == 6


def test_gridspec_rejects_unsorted():
    with pytest.raises(ValueError):
        GridSpec((2.0, 0.0), (10.0, 20.0))
    with pytest.raises(ValueError):
        GridSpec((0.0, 2.0), (20.0, 20.0))


def test_gridspec_rejects_out_of_range():
    with pytest.raises(ValueError):
        GridSpec((0.0, 95.0), (10.0,))
    with pytest.raises(ValueError):
        GridSpec((0.0,), (360.0,))


def test_gridspec_canonicalizes_west_longitudes():
    g = GridSpec((0.0,), (-170.0, -120.0))
    assert g.lons == (190.0, 240.0)


def test_region_box_canonicalizes_west():
    box = RegionBox(-5.0, 5.0, -170.0, -120.0)
    assert box == ONI_BOX


def test_region_box_rejects_inverted():
    with pytest.raises(ValueError):
        RegionBox(5.0, -5.0, 190.0, 240.0)


def test_region_box_rejects_dateline_crossing():
    with pytest.raises(ValueError):
        RegionBox(-5.0, 5.0, 350.0, 10.0)


def test_oni_region_has_130_nodes_on_two_degree_grid():
    grid = oni_grid()
    nodes = region_nodes(grid, ONI_BOX)
    assert len(nodes) == 130
    # lat-major ordering, both endpoints inclusive
    assert nodes[0] == (0, 0)
    assert nodes[25] == (0, 25)
    assert nodes[26] == (1, 0)
    assert nodes[-1] == (4, 25)


def test_region_nodes_inclusive_bounds():
    g = GridSpec((-5.0, 0.0, 5.0, 10.0), (190.0, 240.0, 250.0))
    nodes = region_nodes(g, ONI_BOX)
    assert nodes == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_region_nodes_empty_raises():
    g = GridSpec((50.0, 60.0), (10.0, 20.0))
    with pytest.raises(ValueError):
        region_nodes(g, ONI_BOX)


def test_node_coords():
    g = GridSpec((-2.0, 0.0), (190.0, 192.0))
    assert node_coords(g, [(0, 1), (1, 0)]) == [(-2.0, 192.0), (0.0, 190.0)]


def test_node_weights_coslat():
    g = GridSpec((0.0, 60.0), (100.0,))
    w = node_weights(g, [(0, 0), (1, 0)], "coslat")
    assert w.dtype == np.float64
    np.testing.assert_allclose(w, [1.0, 0.5], atol=1e-12)


def test_node_weights_uniform():
    g = GridSpec((0.0, 60.0), (100.0,))
    w = node_weights(g, [(0, 0), (1, 0)], "uniform")
    np.testing.assert_array_equal(w, [1.0, 1.0])


def test_node_weights_unknown_scheme():
    g = GridSpec((0.0,), (100.0,))
    with pytest.raises(ValueError):
        node_weights(g, [(0, 0)], "area")
