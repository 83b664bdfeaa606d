"""Property tests of the analytic PSD comb over generated profiles and grids.

Every property runs derandomized, so the suite draws the same cases on each
run.  Grids for the oracle and periodicity properties are built from dyadic
rationals (integers times a power of two) with a power-of-two sample
interval, so ``freqs * scale`` is exact in float64 and the comparison
measures the evaluation alone, not the rounding of the grid.
"""

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from otfspectrum import psd
from otfspectrum.dac import FILTER_KINDS, InterpolationFilter, filter_response_sq
from otfspectrum.psd import cep_ofdm_psd, ofdm_psd, otfs_psd
from otfspectrum.waveform import VarianceProfile


@st.composite
def profiles(draw, max_doppler=2048, delays=None):
    """M x N variance profiles with M*N <= 2**15 and some all-zero columns.

    ``delays`` draws M; it defaults to any M the bound allows.
    """
    n = draw(st.integers(1, max_doppler))
    m = draw(delays if delays is not None else st.integers(1, 2**15 // n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma2 = rng.uniform(0.0, 2.0, size=(m, n))
    sigma2[:, rng.uniform(size=n) < draw(st.floats(0.0, 0.9))] = 0.0
    return VarianceProfile(sigma2)


@st.composite
def dyadic_grids(draw, max_exponent=40):
    """Increasing grids ``(p + i*q) * 2**-e``, i < F <= 4096, exact in float64."""
    count = draw(st.integers(1, 4096))
    q = draw(st.integers(1, 2**20))
    p = draw(st.integers(-(2**32), 2**32))
    e = draw(st.integers(0, max_exponent))
    return np.ldexp(p + q * np.arange(count, dtype=np.float64), -e)


@st.composite
def any_grids(draw):
    """Increasing ``linspace`` grids with arbitrary offset and span, 1 <= F <= 4096."""
    count = draw(st.integers(1, 4096))
    lo = draw(st.floats(-1e4, 1e4))
    span = draw(st.floats(1e-3, 1e4))
    freqs = np.linspace(lo, lo + span, count, endpoint=False)
    assume(np.all(np.diff(freqs) > 0))
    return freqs


def _comb_oracle(weights, n, x):
    """sum_k w_k D2_n(k - x) for a float x, in 40-digit arithmetic.

    For integer k, sin(pi*(k - x))^2 = sin(pi*x)^2, so only the denominators
    sin(pi*(k - x)/n) vary with k; they are the imaginary parts of a phasor
    rotated by exp(1j*pi/n) per step.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        if x == mpmath.floor(x):  # every kernel vanishes except D2_n(0) = 1
            return float(weights[int(x) % n])
        step = mpmath.expjpi(mpmath.mpf(1) / n)
        phasor = mpmath.expjpi(-x / n)
        total = mpmath.mpf(0)
        for w in weights:
            if w:
                total += mpmath.mpf(float(w)) / phasor.imag**2
            phasor *= step
        return float(mpmath.sin(mpmath.pi * x) ** 2 / n**2 * total)


@given(
    profile=profiles(),
    freqs=dyadic_grids(),
    exponent=st.integers(-4, 4),
    waveform=st.sampled_from(["otfs", "ofdm"]),
    picks=st.lists(st.integers(0, 4095), min_size=3, max_size=3),
)
def test_chirp_z_comb_matches_mpmath_oracle(profile, freqs, exponent, waveform, picks):
    t = 2.0**exponent
    weights = profile.per_subcarrier_power() / t
    assume(weights.max() > 0)
    rows = profile.num_delay if waveform == "otfs" else 1
    curve = (otfs_psd if waveform == "otfs" else ofdm_psd)(profile, t, InterpolationFilter.dirac(t), freqs)
    scaled = freqs * (rows * profile.num_doppler * t)
    n = profile.num_doppler
    # the comb's peak is at least max_k w_k, its value at x = k
    for i in {pick % freqs.size for pick in picks}:
        assert abs(curve.values[i] - _comb_oracle(weights, n, scaled[i])) <= 1e-11 * weights.max()


@given(profile=profiles(delays=st.integers(1, 16)), freqs=any_grids())
def test_cep_components_sum_to_otfs_curve(profile, freqs):
    filt = InterpolationFilter.dirac(1.0)
    whole = otfs_psd(profile, 1.0, filt, freqs).values
    parts = sum(cep_ofdm_psd(profile, l, 1.0, filt, freqs).values for l in range(profile.num_delay))
    assert np.max(np.abs(parts - whole)) <= 1e-12 * max(profile.per_subcarrier_power().max(), 1e-300)


@given(
    # a power-of-two M keeps the shift 1/(M*T) and the shifted grid exact in float64
    profile=profiles(max_doppler=1024, delays=st.sampled_from([1, 2, 4, 8, 16])),
    freqs=dyadic_grids(max_exponent=16),
    exponent=st.integers(-3, 3),
)
def test_dirac_otfs_curve_repeats_every_one_over_mt(profile, freqs, exponent):
    t = 2.0**exponent
    filt = InterpolationFilter.dirac(t)
    base = otfs_psd(profile, t, filt, freqs).values
    shifted = otfs_psd(profile, t, filt, freqs + 1.0 / (profile.num_delay * t)).values
    peak = profile.per_subcarrier_power().max() / t
    assert np.max(np.abs(shifted - base)) <= 1e-12 * max(peak, 1e-300)


@settings(max_examples=150)
@given(
    profile=profiles(delays=st.integers(1, 4)),
    # coarse dyadic grids land on the comb's exact zeros, where rounding has either sign
    freqs=st.one_of(any_grids(), dyadic_grids(max_exponent=2)),
    kind=st.sampled_from(FILTER_KINDS),
    silent=st.booleans(),
)
def test_curve_is_non_negative_and_zero_for_a_silent_profile(profile, freqs, kind, silent):
    if silent:
        profile = VarianceProfile(np.zeros_like(profile.sigma2))
    filt = InterpolationFilter(kind, 1.0, 50)
    for curve in (
        otfs_psd(profile, 1.0, filt, freqs),
        ofdm_psd(profile, 1.0, filt, freqs),
        cep_ofdm_psd(profile, profile.num_delay - 1, 1.0, filt, freqs),
    ):
        assert np.all(curve.values >= 0.0)
        if silent:
            assert np.all(curve.values == 0.0)


@given(
    profile=profiles(max_doppler=256),
    count=st.integers(3, 1024),
    lo=st.floats(-100.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_uniform_grid_takes_the_dense_path_bit_for_bit(profile, count, lo, seed):
    freqs = lo + np.cumsum(np.random.default_rng(seed).uniform(0.5, 1.5, count)) / count
    scaled = freqs * (profile.num_delay * profile.num_doppler)
    assume(psd._affine_fit(scaled) is None)
    filt = InterpolationFilter.rect(1.0)
    dense = psd._dense_comb(profile.per_subcarrier_power(), profile.num_doppler, scaled)
    expected = np.maximum(dense, 0.0) * filter_response_sq(filt, freqs)
    assert_array_equal(otfs_psd(profile, 1.0, filt, freqs).values, expected)
