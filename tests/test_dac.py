import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import upfirdn

from otfspectrum.dac import (
    InterpolationFilter,
    filter_response_sq,
    reconstruct,
    sinc_kernel,
)
from otfspectrum.errors import ConfigurationError
from otfspectrum.waveform import (
    DelayDopplerGrid,
    FrameStream,
    VarianceProfile,
    generate_random_stream,
    otfs_modulate,
)


def test_filter_kind_validation():
    with pytest.raises(ConfigurationError):
        InterpolationFilter("gaussian", 1.0)
    with pytest.raises(ConfigurationError):
        InterpolationFilter("rect", -1.0)
    with pytest.raises(ConfigurationError):
        InterpolationFilter("truncated_sinc", 1.0, order=0)


def test_describe_labels():
    assert InterpolationFilter.dirac(1.0).describe() == "dirac_delta"
    assert InterpolationFilter.truncated_sinc(1.0, 7).describe() == "truncated_sinc:7"
    assert InterpolationFilter.rect(1.0).describe() == "rect"


# ---------------------------------------------------------------------------
# model frequency responses
# ---------------------------------------------------------------------------


def test_dirac_response_is_unity():
    filt = InterpolationFilter.dirac(0.25)
    f = np.linspace(-10, 10, 101)
    assert_array_equal(filter_response_sq(filt, f), np.ones(101))


def test_brick_wall_response_boundary():
    filt = InterpolationFilter.truncated_sinc(2.0, 50)  # cutoff at |f| = 0.25
    f = np.array([-0.3, -0.25, 0.0, 0.2, 0.25, 0.3])
    assert_array_equal(filter_response_sq(filt, f), [0.0, 0.25, 1.0, 1.0, 0.25, 0.0])


def test_rect_response_values():
    filt = InterpolationFilter.rect(1.0)
    resp = filter_response_sq(filt, np.array([0.0, 0.5, 1.0]))
    assert resp[0] == 1.0
    # zero-order hold droop at half the sample rate: (2/pi)^2 = -3.92 dB
    assert 10 * np.log10(resp[1]) == pytest.approx(-3.922, abs=5e-3)
    assert resp[2] == pytest.approx(0.0, abs=1e-30)


# ---------------------------------------------------------------------------
# time-domain reconstruction
# ---------------------------------------------------------------------------


def test_dirac_reconstruction_is_identity():
    x = np.array([1.0, 2.0j, -3.0])
    out = reconstruct(x, InterpolationFilter.dirac(1.0), 1)
    assert_array_equal(out.samples, x)
    assert out.sample_rate == 1.0
    assert out.origin_time == 0.0


def test_dirac_rejects_oversampling():
    with pytest.raises(ConfigurationError):
        reconstruct(np.ones(4), InterpolationFilter.dirac(1.0), 2)


def test_rect_hold_oracle():
    out = reconstruct(np.array([1.0, 1.0j]), InterpolationFilter.rect(1.0), 4)
    assert_array_equal(out.samples, np.array([1, 1, 1, 1, 1j, 1j, 1j, 1j]))
    assert out.sample_rate == 4.0


def test_rect_energy_scales_by_oversampling():
    rng = np.random.default_rng(0)
    x = rng.normal(size=32) + 1j * rng.normal(size=32)
    out = reconstruct(x, InterpolationFilter.rect(1.0), 8)
    assert np.sum(np.abs(out.samples) ** 2) == pytest.approx(8 * np.sum(np.abs(x) ** 2))


def test_sinc_kernel_shape_and_center():
    kern = sinc_kernel(4, 3)
    assert kern.size == 2 * 3 * 4 + 1
    assert kern[12] == 1.0
    # integer input positions hit the kernel's zero crossings exactly
    assert_array_equal(kern[::4], np.concatenate([np.zeros(3), [1.0], np.zeros(3)]))


@given(oversampling=st.integers(1, 16), order=st.integers(1, 200))
def test_sinc_kernel_phase_zero_is_the_unit_impulse(oversampling, order):
    """Every nonzero multiple of L is an exact zero crossing, so phase 0 is a copy."""
    kern = sinc_kernel(oversampling, order)
    impulse = np.zeros(2 * order + 1)
    impulse[order] = 1.0
    assert_array_equal(kern[::oversampling], impulse)
    # the other taps are np.sinc's, untouched
    off_grid = np.arange(kern.size) % oversampling != 0
    i = np.arange(-order * oversampling, order * oversampling + 1)
    assert_array_equal(kern[off_grid], np.sinc(i / oversampling)[off_grid])


def test_sinc_impulse_reproduces_kernel():
    filt = InterpolationFilter.truncated_sinc(1.0, 3)
    out = reconstruct(np.array([1.0 + 0j]), filt, 4)
    kernel = sinc_kernel(4, 3)  # 2*3*4 + 1 = 25 taps
    assert out.samples.size == 1 * 4 + 2 * 3 * 4  # fixed length, zero-padded tail
    assert_array_equal(out.samples[: kernel.size], kernel)
    assert_array_equal(out.samples[kernel.size :], 0.0)
    assert out.origin_time == -3.0


def test_sinc_interpolation_passes_through_input_samples():
    rng = np.random.default_rng(1)
    x = rng.normal(size=16) + 1j * rng.normal(size=16)
    order, L = 5, 3
    out = reconstruct(x, InterpolationFilter.truncated_sinc(1.0, order), L)
    # dense index of input sample i: order*L + i*L
    taps = out.samples[order * L : order * L + 16 * L : L]
    assert_array_equal(taps, x)


@given(
    length=st.integers(0, 400),
    oversampling=st.integers(1, 8),
    order=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_sinc_reconstruction_is_linear_over_real_and_imaginary_parts(length, oversampling, order, seed):
    """``reconstruct(a + 1j*b) == reconstruct(a) + 1j*reconstruct(b)`` bit for bit.

    The sub-filters are real, so the two parts are reconstructed apart and
    a real input stays real: its imaginary part is all zeros.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, length)) * 10.0 ** rng.uniform(-3, 3, (2, length))
    filt = InterpolationFilter.truncated_sinc(1.0, order)
    whole = reconstruct(a + 1j * b, filt, oversampling).samples
    real, imag = (reconstruct(part, filt, oversampling).samples for part in (a, b))
    assert_array_equal(real.imag, 0.0)
    assert_array_equal(imag.imag, 0.0)
    assert_array_equal(whole, real + 1j * imag)


@given(
    length=st.integers(1, 3000),
    oversampling=st.integers(1, 12),
    order=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=1, oversampling=7, order=60, seed=0)
@example(length=20, oversampling=2, order=50, seed=1)
def test_polyphase_sinc_matches_zero_stuffed_oracle(length, oversampling, order, seed):
    """The polyphase convolution equals upfirdn's zero-stuffed direct convolution.

    upfirdn ends at the last tap that touches an input sample; the L - 1
    dense positions after it are exactly zero in the reconstruction.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=length) + 1j * rng.normal(size=length)
    out = reconstruct(x, InterpolationFilter.truncated_sinc(1.0, order), oversampling)
    oracle = upfirdn(sinc_kernel(oversampling, order), x, up=oversampling)
    assert out.samples.size == (length + 2 * order) * oversampling
    assert oracle.size == out.samples.size - (oversampling - 1)
    assert_array_equal(out.samples[oracle.size :], 0.0)
    error = np.abs(out.samples[: oracle.size] - oracle).max() / np.abs(oracle).max()
    assert error <= 1e-12


@pytest.mark.parametrize(
    "stream",
    [FrameStream(np.zeros((0, 4)), 2, 2, 1.0), np.zeros(0, complex)],
    ids=["zero-frame stream", "empty array"],
)
def test_sinc_of_empty_input_is_the_kernel_tail_of_zeros(stream):
    out = reconstruct(stream, InterpolationFilter.truncated_sinc(1.0, 3), 2)
    assert_array_equal(out.samples, np.zeros(2 * 3 * 2))
    assert out.origin_time == -3.0


def test_sinc_output_length_and_frame_scaling():
    prof = VarianceProfile.uniform(2, 4)
    stream = generate_random_stream(prof, 6, seed=1)
    out = reconstruct(stream, InterpolationFilter.truncated_sinc(1.0, 10), 5)
    assert out.samples.size == 6 * 8 * 5 + 2 * 10 * 5
    assert out.samples_per_frame == 8 * 5
    assert out.origin_time == -10.0


def test_reconstruct_rejects_interval_mismatch():
    frame = otfs_modulate(DelayDopplerGrid(np.ones((2, 2))), sample_interval=1.0)
    with pytest.raises(ConfigurationError):
        reconstruct(frame, InterpolationFilter.rect(2.0), 2)


def test_reconstruct_rejects_fractional_oversampling():
    with pytest.raises(ConfigurationError):
        reconstruct(np.ones(4), InterpolationFilter.rect(1.0), 1.5)


def test_rect_preserves_frame_bookkeeping():
    prof = VarianceProfile.uniform(2, 2)
    stream = generate_random_stream(prof, 3, seed=4, sample_interval=0.5)
    out = reconstruct(stream, InterpolationFilter.rect(0.5), 4)
    assert out.samples_per_frame == 16
    assert out.sample_rate == pytest.approx(8.0)
