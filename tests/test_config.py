"""Validation of scenario configurations by ``ScenarioConfig.from_dict``."""

import numpy as np
import pytest

from otfspectrum.errors import ConfigurationError
from otfspectrum.presets import ScenarioConfig


def _raw(**sections):
    raw = {
        "seed": 1,
        "grid": {"num_delay": 4, "num_doppler": 8, "sample_interval": 1.0},
        "profile": {"uniform": 1.0},
    }
    for name, body in sections.items():
        raw[name] = {**raw.get(name, {}), **body}
    return raw


def _problems(raw) -> str:
    with pytest.raises(ConfigurationError) as err:
        ScenarioConfig.from_dict(raw)
    return str(err.value)


def test_sigma2_matching_the_grid_is_accepted():
    sigma2 = np.arange(32.0).reshape(4, 8).tolist()
    config = ScenarioConfig.from_dict(_raw() | {"profile": {"sigma2": sigma2}})
    assert config.profile().sigma2.shape == (4, 8)


def test_sigma2_shape_must_match_the_grid():
    message = _problems(_raw() | {"profile": {"sigma2": [[1.0, 1.0], [1.0, 1.0]]}})
    assert "profile.sigma2 has shape (2, 2), but the grid is 4x8" in message


def test_sigma2_must_be_a_numeric_array():
    message = _problems(_raw() | {"profile": {"sigma2": [[1.0, 1.0], [1.0]]}})
    assert "profile.sigma2 must be a 2-D array of numbers" in message


@pytest.mark.parametrize("band", [[True, 2], [0, False]])
def test_band_rejects_bools(band):
    assert "psd.band must be [lo, hi] of finite numbers" in _problems(_raw(psd={"band": band}))


@pytest.mark.parametrize("edge", [float("-inf"), float("inf"), float("nan")])
def test_band_rejects_non_finite_edges(edge):
    band = [edge, 2.0] if edge < 0 else [-2.0, edge]
    assert "psd.band must be [lo, hi] of finite numbers" in _problems(_raw(psd={"band": band}))


@pytest.mark.parametrize("key", ["num_delay", "num_doppler"])
def test_grid_size_rejects_bools(key):
    message = _problems(_raw(grid={key: True}))
    assert f"grid.{key} must be an integer >= 1, got True" in message


def test_sample_interval_rejects_bools_and_infinity():
    grid = {"num_delay": 4, "num_doppler": 8}
    for value in (True, float("inf")):
        message = _problems(_raw() | {"grid": {**grid, "sample_interval": value}})
        assert "grid.sample_interval must be a finite positive number" in message


@pytest.mark.parametrize("mask", [5, "null", [1, 2], True])
def test_mask_must_be_a_table(mask):
    assert "section 'mask' must be a table" in _problems(_raw() | {"mask": mask})


@pytest.mark.parametrize("value", [True, "1.0", None, float("inf"), -1.0, [1.0]])
def test_uniform_power_must_be_a_non_negative_number(value):
    assert "profile.uniform must be a finite number >= 0" in _problems(
        _raw() | {"profile": {"uniform": value}}
    )


@pytest.mark.parametrize("budget", [True, 1201.0, "1201", None])
def test_pattern_budget_must_be_an_integer(budget):
    raw = _raw() | {"profile": {"pattern": "head_tail_columns", "budget": budget}}
    assert "profile.budget must be an integer" in _problems(raw)


def test_null_band_and_frame_counts_mean_unset():
    config = ScenarioConfig.from_dict(_raw(psd={"band": None}, stream={"frame_counts": None}))
    assert config.band is None and config.frame_counts is None


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"sample_interval": 5e-324}, "grid.sample_interval = 5e-324 makes the derived sample rate infinite"),
        ({"sample_rate": 5e-324}, "grid.sample_rate = 5e-324 makes the derived sample interval infinite"),
    ],
)
def test_overflowing_derived_rate_names_the_key(grid, message):
    assert message in _problems(_raw() | {"grid": {"num_delay": 4, "num_doppler": 8, **grid}})


@pytest.mark.parametrize(
    "band, message",
    [
        ([-1e308, 1.7e308], "psd.band must span a finite width"),
        ([-1e300, 1e308], "psd.band edge 1e+308 Hz times the frame length 32.0 s overflows"),
        ([1e300, 1.0000000000000002e300], "psd.num_points = 4096 cuts the band"),
        ([0.0, 1e-320], "psd.num_points = 4096 cuts the band"),
    ],
)
def test_overflowing_psd_grid_names_the_key(band, message):
    assert message in _problems(_raw(psd={"band": band}))


@pytest.mark.parametrize(
    "profile, grid, message",
    [
        ({"uniform": 1e308}, {}, "profile.uniform = 1e+308 puts the PSD level"),
        ({"sigma2": [[1.0] * 8] * 3 + [[0.0] * 7 + [1e300]]}, {}, "profile.sigma2 = 1e+300 puts"),
        ({"uniform": 1.0}, {"sample_interval": None, "sample_rate": 1e308}, "grid.sample_rate = 1e+308 puts"),
        ({"uniform": 1.0}, {"sample_interval": 1e-300}, "grid.sample_interval = 1e-300 puts the PSD level"),
        ({"pattern": "head_tail_columns", "budget": 8}, {"sample_interval": 1e-300},
         "largest variance 1.0 times sample rate 9.999999999999999e+299 Hz, within 2**64 of float64 overflow"),
    ],
)
def test_overflowing_psd_level_names_the_key(profile, grid, message):
    raw = _raw(grid=grid) | {"profile": profile}
    assert message in _problems(raw)


def test_psd_level_just_inside_float64_is_accepted():
    config = ScenarioConfig.from_dict(_raw(profile={"uniform": 1e280}, grid={"sample_interval": 1e-8}))
    assert config.sample_rate == 1e8


def test_psd_grid_just_inside_float64_is_accepted():
    config = ScenarioConfig.from_dict(_raw(psd={"band": [-1e306, 1e306], "num_points": 16}))
    freqs = config.freq_grid()
    assert np.all(np.diff(freqs) > 0) and np.isfinite(freqs * 32.0).all()
