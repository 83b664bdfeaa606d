import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from otfspectrum import psd
from otfspectrum.dac import InterpolationFilter
from otfspectrum.errors import ConfigurationError
from otfspectrum.patterns import column_support_profile
from otfspectrum.presets import preset_config
from otfspectrum.psd import PsdCurve, cep_ofdm_psd, dirichlet_sq, ofdm_psd, otfs_psd
from otfspectrum.waveform import VarianceProfile


# ---------------------------------------------------------------------------
# squared Dirichlet kernel
# ---------------------------------------------------------------------------


def test_dirichlet_hand_value():
    # D2_2(1/2) = sin(pi/2)^2 / (2 sin(pi/4))^2 = 1/2
    assert dirichlet_sq(2, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_dirichlet_peak_and_zeros():
    x = np.arange(-8, 9)
    vals = dirichlet_sq(8, x)
    # peak 1 at multiples of N, exact 0 at the other integers
    assert_array_equal(vals[x % 8 == 0], np.ones(3))
    assert_allclose(vals[x % 8 != 0], np.zeros(14), atol=1e-25)


def test_dirichlet_periodicity():
    x = np.linspace(-3.7, 3.7, 301)
    assert_allclose(dirichlet_sq(5, x), dirichlet_sq(5, x + 5), atol=1e-12)


def test_dirichlet_bounds():
    x = np.linspace(-20, 20, 40001)
    vals = dirichlet_sq(7, x)
    assert vals.min() >= 0.0
    assert vals.max() <= 1.0 + 1e-12


def test_dirichlet_removable_singularity():
    assert dirichlet_sq(6, 1e-10) == 1.0
    assert dirichlet_sq(6, 6 - 1e-10) == 1.0
    assert dirichlet_sq(6, np.array([0.0]))[0] == 1.0


def test_dirichlet_partition_of_unity():
    """sum_k D2_N(u - k) over one period is identically 1."""
    u = np.linspace(0, 1, 97)
    for n in (1, 2, 5, 8):
        total = sum(dirichlet_sq(n, u - k) for k in range(n))
        assert_allclose(total, np.ones_like(u), atol=1e-12)


def test_dirichlet_size_one_is_flat():
    assert_allclose(dirichlet_sq(1, np.linspace(-2, 2, 11)), np.ones(11), atol=1e-12)


# ---------------------------------------------------------------------------
# analytic PSDs
# ---------------------------------------------------------------------------


def _dirac(t=1.0):
    return InterpolationFilter.dirac(t)


def test_uniform_profile_gives_flat_otfs_psd():
    prof = VarianceProfile.uniform(4, 8)
    f = np.linspace(-0.5, 0.5, 1001)
    curve = otfs_psd(prof, 1.0, _dirac(), f)
    assert_allclose(curve.values, np.ones_like(f), atol=1e-12)


def test_single_column_otfs_psd_hand_formula():
    sigma2 = np.zeros((2, 4))
    sigma2[:, 1] = 1.0
    prof = VarianceProfile(sigma2)
    t = 0.5
    f = np.array([0.1, 0.2, 0.4])  # kernel argument stays away from its peak
    curve = otfs_psd(prof, t, _dirac(t), f)
    arg = 1 - f * 2 * 4 * t
    expected = (1.0 / t) * np.sin(np.pi * arg) ** 2 / (4 * np.sin(np.pi * arg / 4)) ** 2
    assert_allclose(curve.values, expected, rtol=1e-12)


def test_otfs_psd_peaks_at_subcarrier_centers():
    sigma2 = np.zeros((2, 8))
    sigma2[:, 3] = 2.0
    prof = VarianceProfile(sigma2)
    f = np.array([3 / 16])  # k/(M*N*T) for k=3
    curve = otfs_psd(prof, 1.0, _dirac(), f)
    assert curve.values[0] == pytest.approx(2.0, rel=1e-12)


def test_otfs_discrete_psd_periodicity():
    prof = VarianceProfile(np.random.default_rng(0).uniform(0, 2, size=(4, 8)))
    f = np.linspace(-0.4, 0.4, 257)
    period = 1.0 / (4 * 1.0)  # 1/(M*T)
    a = otfs_psd(prof, 1.0, _dirac(), f).values
    b = otfs_psd(prof, 1.0, _dirac(), f + period).values
    assert_allclose(a, b, atol=1e-10)


def test_ofdm_psd_narrower_argument():
    # same profile: the OFDM comb is M times wider in f than the OTFS comb
    prof = VarianceProfile.uniform(4, 8)
    f = np.linspace(-0.5, 0.5, 641)
    otfs = otfs_psd(prof, 1.0, _dirac(), f)
    ofdm = ofdm_psd(prof, 1.0, _dirac(), f / 4)
    assert_allclose(otfs.values, ofdm.values, atol=1e-12)


def test_ofdm_equals_otfs_for_single_delay_row():
    prof = VarianceProfile(np.random.default_rng(1).uniform(0, 1, size=(1, 16)))
    f = np.linspace(-0.5, 0.5, 321)
    assert_allclose(
        ofdm_psd(prof, 1.0, _dirac(), f).values,
        otfs_psd(prof, 1.0, _dirac(), f).values,
        atol=1e-14,
    )


def test_cep_components_sum_to_otfs_psd():
    prof = VarianceProfile(np.random.default_rng(2).uniform(0, 3, size=(4, 8)))
    f = np.linspace(-0.5, 0.5, 4096, endpoint=False)
    total = np.zeros_like(f)
    for l in range(4):
        total += cep_ofdm_psd(prof, l, 1.0, _dirac(), f).values
    assert_allclose(total, otfs_psd(prof, 1.0, _dirac(), f).values, atol=1e-10)


def test_cep_component_uses_own_row_weights():
    sigma2 = np.zeros((2, 4))
    sigma2[0, :] = 1.0  # row 1 silent
    prof = VarianceProfile(sigma2)
    f = np.linspace(-0.4, 0.4, 101)
    silent = cep_ofdm_psd(prof, 1, 1.0, _dirac(), f)
    assert_array_equal(silent.values, np.zeros_like(f))


def test_cep_delay_index_range():
    prof = VarianceProfile.uniform(2, 2)
    with pytest.raises(IndexError):
        cep_ofdm_psd(prof, 2, 1.0, _dirac(), np.array([0.0]))


def test_rect_psd_is_dirac_times_hold_response():
    prof = VarianceProfile.uniform(2, 8)
    f = np.linspace(-1.5, 1.5, 301)
    base = otfs_psd(prof, 1.0, _dirac(), f).values
    shaped = otfs_psd(prof, 1.0, InterpolationFilter.rect(1.0), f).values
    assert_allclose(shaped, base * np.sinc(f) ** 2, atol=1e-14)


def test_sinc_psd_cuts_off_outside_nyquist():
    prof = VarianceProfile.uniform(2, 8)
    filt = InterpolationFilter.truncated_sinc(1.0, 50)
    f = np.linspace(0.6, 1.4, 33)
    assert_array_equal(otfs_psd(prof, 1.0, filt, f).values, np.zeros(33))


def test_psd_filter_interval_mismatch():
    prof = VarianceProfile.uniform(2, 2)
    with pytest.raises(ConfigurationError):
        otfs_psd(prof, 1.0, _dirac(2.0), np.array([0.0]))


# ---------------------------------------------------------------------------
# PsdCurve container
# ---------------------------------------------------------------------------


def test_curve_requires_increasing_grid():
    with pytest.raises(ValueError):
        PsdCurve(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PsdCurve(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


def test_curve_rejects_non_finite_values():
    with pytest.raises(ValueError):
        PsdCurve(np.array([0.0, 1.0]), np.array([1.0, np.inf]))


def test_peak_one_scales_max_to_one():
    curve = PsdCurve(np.array([0.0, 1.0, 2.0]), np.array([1.0, 4.0, 2.0]))
    peaked = curve.peak_one()
    assert peaked.values.max() == 1.0
    assert peaked.normalization == "peak_one"
    assert_allclose(peaked.values, [0.25, 1.0, 0.5])


def test_restrict_is_half_open():
    curve = PsdCurve(np.arange(5.0), np.ones(5))
    cut = curve.restrict(1.0, 3.0)
    assert_array_equal(cut.freqs, [1.0, 2.0])
    with pytest.raises(ValueError):
        curve.restrict(10.0, 11.0)


def test_resample_stays_inside_span():
    curve = PsdCurve(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    mid = curve.resampled_onto(np.array([0.25, 0.75]))
    assert_allclose(mid.values, [0.5, 1.5])
    with pytest.raises(ValueError):
        curve.resampled_onto(np.array([-0.1]))


# ---------------------------------------------------------------------------
# chirp-z comb against the dense Dirichlet matrix
# ---------------------------------------------------------------------------


def _dense_values(weights, kernel_size, scaled):
    return np.maximum(psd._dense_comb(weights, kernel_size, scaled), 0.0)


def _dense_gap(curve, weights, scaled):
    dense = _dense_values(weights, curve.meta["num_doppler"], scaled)
    return np.max(np.abs(curve.values - dense))


def test_chirp_z_matches_dense_on_lte_ofdm_grid():
    config = preset_config("lte-ofdm")  # N = 2048, F = 4096
    profile, freqs, t = config.profile(), config.freq_grid(), config.sample_interval
    curve = ofdm_psd(profile, t, InterpolationFilter.dirac(t), freqs)
    weights = profile.per_subcarrier_power() / t
    assert _dense_gap(curve, weights, freqs * (profile.num_doppler * t)) <= 1e-12 * curve.values.max()


def test_chirp_z_matches_dense_on_gate_grids():
    prof = column_support_profile([0, 1, 2, 6, 7], 4, 8)
    scale = 4 * 8 * 1.0
    gate2 = np.linspace(-0.5, 0.5, 4096, endpoint=False)
    cell = np.linspace(-0.5, -0.25, 1024, endpoint=False)
    for freqs in [gate2] + [cell + j * 0.25 for j in range(4)]:
        whole = otfs_psd(prof, 1.0, _dirac(), freqs)
        peak = whole.values.max()
        assert _dense_gap(whole, prof.per_subcarrier_power(), freqs * scale) <= 1e-12 * peak
        for l in range(4):
            part = cep_ofdm_psd(prof, l, 1.0, _dirac(), freqs)
            assert _dense_gap(part, prof.sigma2[l] / 4, freqs * scale) <= 1e-12 * peak


def test_dense_fallback_runs_only_for_non_uniform_grids(monkeypatch):
    calls = []
    dense = psd._dense_comb

    def recording_dense(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(psd, "_dense_comb", recording_dense)
    prof = VarianceProfile(np.random.default_rng(3).uniform(0, 1, size=(3, 16)))
    uniform_grids = [
        np.array([0.1]),
        np.array([-0.2, 0.3]),
        np.linspace(-1.5, 1.5, 301),
        np.arange(-64, 64) * (1 / 48) + 0.01,  # centered periodogram-style grid
    ]
    for freqs in uniform_grids:
        otfs_psd(prof, 1.0, _dirac(), freqs)
        ofdm_psd(prof, 1.0, _dirac(), freqs)
        cep_ofdm_psd(prof, 2, 1.0, _dirac(), freqs)
    assert calls == []
    ragged = np.array([0.1, 0.2, 0.4])
    curve = otfs_psd(prof, 1.0, _dirac(), ragged)
    assert len(calls) == 1
    assert_array_equal(curve.values, _dense_values(prof.per_subcarrier_power(), 16, ragged * 48))
