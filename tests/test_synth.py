"""Synthetic oscillator cubes: exact limits, noise streams, statistics."""

import math

import numpy as np
import pytest

from ensograph.cli import main
from ensograph.skill import pearson
from ensograph.synth import SynthConfig, generate, latent_series, loading_pattern, write_latent_csv

QUIET = dict(process_noise=0.0, obs_noise=0.0)


def test_noise_free_latent_is_exact_damped_cosine():
    config = SynthConfig(months=60, period=48.0, damping=0.1, amplitude=1.0, **QUIET)
    z = latent_series(config)
    omega = 2.0 * math.pi / 48.0
    r = math.exp(-0.1 * omega)
    theta = omega * math.sqrt(1.0 - 0.1 ** 2)
    t = np.arange(60)
    np.testing.assert_allclose(z, r ** t * np.cos(theta * t), atol=1e-12)


def test_noise_free_cube_is_latent_times_loading():
    config = SynthConfig(months=36, **QUIET)
    cube, z = generate(config)
    want = (z[:, None, None] * loading_pattern(config)[None, :, :]).astype(np.float32)
    np.testing.assert_array_equal(cube.values, want)
    assert not cube.missing.any()
    assert cube.start == config.start
    assert cube.values.shape == (36, 5, 26)


def test_default_grid_has_130_cells():
    grid = SynthConfig().grid
    assert (grid.n_lat, grid.n_lon) == (5, 26)
    assert grid.lats[0] == -4.0 and grid.lats[-1] == 4.0
    assert grid.lons[0] == 190.0 and grid.lons[-1] == 240.0


def test_loading_peaks_at_one_on_centered_grid():
    config = SynthConfig(lats=(-2.0, 0.0, 2.0), lons=(210.0, 215.0, 220.0))
    loading = loading_pattern(config)
    assert loading[1, 1] == 1.0
    assert loading.max() == 1.0
    assert (loading > 0.0).all()
    # symmetric about the center in both directions
    np.testing.assert_allclose(loading, loading[::-1, :], atol=1e-15)
    np.testing.assert_allclose(loading, loading[:, ::-1], atol=1e-15)


def test_observation_noise_leaves_latent_untouched():
    a = latent_series(SynthConfig(obs_noise=0.0))
    b = latent_series(SynthConfig(obs_noise=0.9))
    np.testing.assert_array_equal(a, b)
    cube_a, za = generate(SynthConfig(obs_noise=0.1))
    cube_b, zb = generate(SynthConfig(obs_noise=0.5))
    np.testing.assert_array_equal(za, zb)
    assert not np.array_equal(cube_a.values, cube_b.values)


def test_process_noise_changes_latent():
    a = latent_series(SynthConfig(process_noise=0.1, obs_noise=0.0))
    b = latent_series(SynthConfig(process_noise=0.2, obs_noise=0.0))
    assert not np.array_equal(a, b)


def test_generate_is_deterministic():
    cube_a, za = generate(SynthConfig())
    cube_b, zb = generate(SynthConfig())
    np.testing.assert_array_equal(cube_a.values, cube_b.values)
    np.testing.assert_array_equal(za, zb)
    cube_c, _ = generate(SynthConfig(seed=1))
    assert not np.array_equal(cube_a.values, cube_c.values)


def test_center_cell_tracks_latent_better_than_corner():
    cube, z = generate(SynthConfig())
    loading = loading_pattern(SynthConfig())
    ci, cj = np.unravel_index(np.argmax(loading), loading.shape)
    r_center = pearson(cube.values[:, ci, cj], z)
    r_corner = pearson(cube.values[:, 0, 0], z)
    assert r_center > 0.8
    assert r_center > r_corner


def test_cell_means_stay_near_zero():
    cube, _ = generate(SynthConfig())
    assert np.abs(cube.values.mean(axis=0)).max() < 0.15


def test_latent_autocorrelation_shape():
    z = latent_series(SynthConfig())
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    lag24 = np.corrcoef(z[:-24], z[24:])[0, 1]  # half the default period
    assert lag1 > 0.9
    assert lag24 < -0.3


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(months=23)
    with pytest.raises(ValueError):
        SynthConfig(period=3.9)
    with pytest.raises(ValueError):
        SynthConfig(damping=0.0)
    with pytest.raises(ValueError):
        SynthConfig(damping=1.0)
    with pytest.raises(ValueError):
        SynthConfig(process_noise=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(obs_noise=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(width_lat=0.0)
    with pytest.raises(ValueError):
        SynthConfig(start=(1900, 13))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["period", "process_noise", "obs_noise", "amplitude", "width_lat", "width_lon"])
def test_non_finite_parameters_are_rejected(name, value, tmp_path):
    # NaN slips past every ordered comparison, and an infinite period or
    # noise level gives a cube that does not oscillate or is not finite
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SynthConfig(**{name: value})
    if name in ("period", "process_noise", "obs_noise"):
        flag = "--" + name.replace("_", "-")
        assert main(["synth", "--out", str(tmp_path / "x"), f"{flag}={value}"]) == 1
        assert not list(tmp_path.iterdir())


def test_write_latent_csv(tmp_path):
    config = SynthConfig(months=24, **QUIET)
    z = latent_series(config)
    path = tmp_path / "latent.csv"
    write_latent_csv(path, z, config.start)
    lines = path.read_text().splitlines()
    assert lines[0] == "year,month,latent"
    assert lines[1] == f"1900,1,{z[0]:.6f}"
    assert lines[-1] == f"1901,12,{z[-1]:.6f}"
    assert len(lines) == 25
