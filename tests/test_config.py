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
