from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfspectrum import estimate
from otfspectrum.dac import InterpolationFilter, reconstruct
from otfspectrum.estimate import (
    NMSE_FLOOR_DB,
    PeriodogramAverager,
    compare_curves,
    cosine_similarity,
    cyclo_autocorr,
    empirical_mean,
    nmse_db,
    periodogram,
)
from otfspectrum.psd import PsdCurve, otfs_psd
from otfspectrum.waveform import VarianceProfile, generate_random_stream


# ---------------------------------------------------------------------------
# periodogram
# ---------------------------------------------------------------------------


def test_periodogram_matches_brute_force_dft():
    rng = np.random.default_rng(0)
    x = rng.normal(size=12) + 1j * rng.normal(size=12)
    seg, rate = 4, 2.0
    curve = periodogram(x, segment_len=seg, sample_rate=rate)

    acc = np.zeros(seg)
    for s in range(3):
        block = x[s * seg : (s + 1) * seg]
        for m in range(seg):
            val = sum(block[n] * np.exp(-2j * np.pi * m * n / seg) for n in range(seg))
            acc[m] += abs(val) ** 2
    expected = np.fft.fftshift(acc / 3 / (seg * rate))
    assert_allclose(curve.values, expected, atol=1e-12)
    assert_allclose(curve.freqs, (np.arange(4) - 2) * (rate / seg))


def test_periodogram_pure_tone_lands_in_one_bin():
    n = np.arange(32)
    x = np.exp(2j * np.pi * 3 * n / 8)
    curve = periodogram(x, segment_len=8, sample_rate=1.0)
    hot = np.argmax(curve.values)
    assert curve.freqs[hot] == pytest.approx(3 / 8)
    assert curve.values[hot] == pytest.approx(8.0)
    others = np.delete(curve.values, hot)
    assert_allclose(others, np.zeros(7), atol=1e-12)


def test_periodogram_discards_trailing_partial_segment():
    x = np.ones(10, dtype=complex)
    curve = periodogram(x, segment_len=4, sample_rate=1.0)
    assert curve.meta["num_segments"] == 2


def test_periodogram_needs_full_segment():
    with pytest.raises(ValueError):
        periodogram(np.ones(3, dtype=complex), segment_len=4, sample_rate=1.0)


def test_periodogram_defaults_to_frame_segments():
    stream = generate_random_stream(VarianceProfile.uniform(2, 4), 5, seed=1)
    curve = periodogram(stream)
    assert curve.meta["segment_len"] == 8
    assert curve.meta["num_segments"] == 5
    dense = reconstruct(stream, InterpolationFilter.rect(1.0), 3)
    assert periodogram(dense).meta["segment_len"] == 24


def test_periodogram_raw_array_needs_rate_and_segment():
    with pytest.raises(ValueError):
        periodogram(np.ones(8, dtype=complex), segment_len=4)
    with pytest.raises(ValueError):
        periodogram(np.ones(8, dtype=complex), sample_rate=1.0)


def test_periodogram_skips_reconstruction_pre_ring():
    """Segments align to the signal's time origin, not to the raw sample array.

    A sinc reconstruction starts order*L samples before time zero; cutting
    segments from the array head would straddle frame boundaries and smear
    each frame's tones across bins.
    """
    stream = generate_random_stream(VarianceProfile.uniform(2, 4), 2, seed=5)
    dense = reconstruct(stream, InterpolationFilter.truncated_sinc(1.0, 3), 2)
    assert dense.origin_time == -3.0
    curve = periodogram(dense)  # default segment: one frame = 16 samples
    assert curve.meta["num_segments"] == 2  # the post-ring of order*L = 6 is dropped
    aligned = dense.samples[6 : 6 + 32]  # skip order*L = 6, keep 2 frames
    manual = periodogram(aligned, segment_len=16, sample_rate=2.0)
    assert_array_equal(curve.values, manual.values)


def test_averager_equals_one_shot_for_any_chunking():
    rng = np.random.default_rng(3)
    x = rng.normal(size=64) + 1j * rng.normal(size=64)
    whole = periodogram(x, segment_len=8, sample_rate=4.0)
    avg = PeriodogramAverager(segment_len=8, sample_rate=4.0)
    for cut in np.array_split(x, [3, 10, 11, 40]):  # deliberately ragged
        avg.add(cut)
    chunked = avg.result()
    assert_array_equal(chunked.values, whole.values)
    assert chunked.meta["num_segments"] == 8


@pytest.mark.parametrize("segment_len", [1, 2, 8])
def test_batched_averager_adds_segments_in_stream_order(monkeypatch, segment_len):
    """Batches of sixteen segments fold in exactly like a row-by-row loop."""
    monkeypatch.setattr(estimate, "_BATCH_SAMPLES", 16 * segment_len)
    count = 256
    rng = np.random.default_rng(segment_len)
    x = rng.normal(size=count * segment_len) + 1j * rng.normal(size=count * segment_len)
    x *= 10.0 ** rng.uniform(-3, 3, x.size)  # a wide range makes the addition order visible
    looped = np.zeros(segment_len)
    for row in np.fft.fft(x.reshape(count, segment_len), axis=1):
        looped += row.real**2 + row.imag**2
    avg = PeriodogramAverager(segment_len, sample_rate=1.0)
    for cut in np.array_split(x, [5, 6, 7 * segment_len + 1, 151 * segment_len]):
        avg.add(cut)
    assert avg.num_segments == count
    assert_array_equal(avg.result().values, np.fft.fftshift(looped / (count * segment_len)))


@given(
    segment_len=st.integers(1, 64),
    segments=st.integers(1, 40),
    partial=st.integers(0, 63),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=8),
    batch_segments=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
# cut at 2, 3 and 4: the second chunk (one sample) is shorter than the six the carry lacks
@example(segment_len=8, segments=3, partial=0, cuts=[0.1, 0.15, 0.2], batch_segments=1, seed=0)
def test_averager_is_bit_identical_under_any_chunking(
    segment_len, segments, partial, cuts, batch_segments, seed
):
    """Random cut points (empty and sub-segment chunks too) and batch sizes: the same bits."""
    rng = np.random.default_rng(seed)
    size = segments * segment_len + partial % segment_len
    x = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-3, 3, size)
    whole = periodogram(x, segment_len=segment_len, sample_rate=2.0)
    avg = PeriodogramAverager(segment_len, sample_rate=2.0)
    with mock.patch.object(estimate, "_BATCH_SAMPLES", batch_segments * segment_len):
        for piece in np.split(x, sorted(int(c * size) for c in cuts)):
            avg.add(piece)
    chunked = avg.result()
    assert avg.num_segments == chunked.meta["num_segments"] == whole.meta["num_segments"] == segments
    assert_array_equal(chunked.values, whole.values)


@given(
    hold=st.integers(1, 8),
    short_len=st.integers(1, 24),
    segments=st.integers(1, 20),
    partial=st.integers(0, 23),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    batch_segments=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_held_averager_is_the_periodogram_of_the_held_stream(
    hold, short_len, segments, partial, cuts, batch_segments, seed
):
    """``hold=L`` on the samples is the plain averager on ``np.repeat(samples, L)``.

    Within 1e-12 of the peak (the dense DFTs are never taken), bit for bit
    under any chunking and batch size, and exactly the plain averager at
    ``hold=1``.
    """
    segment_len = short_len * hold
    rng = np.random.default_rng(seed)
    size = segments * short_len + partial % short_len
    x = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-3, 3, size)
    dense = PeriodogramAverager(segment_len, sample_rate=2.0)
    dense.add(np.repeat(x, hold))
    expected = dense.result()
    held = PeriodogramAverager(segment_len, sample_rate=2.0, hold=hold)
    held.add(x)
    one_shot = held.result()
    assert one_shot.meta == expected.meta
    assert one_shot.meta["num_segments"] == segments
    assert_array_equal(one_shot.freqs, expected.freqs)
    assert np.abs(one_shot.values - expected.values).max() <= 1e-12 * expected.values.max()
    if hold == 1:
        assert_array_equal(one_shot.values, expected.values)

    chunked = PeriodogramAverager(segment_len, sample_rate=2.0, hold=hold)
    with mock.patch.object(estimate, "_BATCH_SAMPLES", batch_segments * short_len):
        for piece in np.split(x, sorted(int(c * size) for c in cuts)):
            chunked.add(piece)
    assert_array_equal(chunked.result().values, one_shot.values)


@pytest.mark.parametrize("segment_len, hold", [(8, 3), (8, 0), (8, 1.5)])
def test_hold_must_divide_the_segment(segment_len, hold):
    with pytest.raises(ValueError, match="hold"):
        PeriodogramAverager(segment_len, 1.0, hold=hold)


def test_pending_carry_does_not_copy_the_added_block(monkeypatch, traced_peak):
    """With a partial segment pending, ``add`` segments the new block in place.

    The carry is completed from the block's head and folded on its own, so
    no block-sized concatenation is made; the batched spectra stay small.
    """
    monkeypatch.setattr(estimate, "_BATCH_SAMPLES", 2**10)
    block = np.ones(2**18, dtype=np.complex128)
    avg = PeriodogramAverager(256, sample_rate=1.0)
    avg.add(block[:100])
    peak = traced_peak(lambda: avg.add(block))  # each add leaves the same 100-input carry
    assert avg.num_segments == (100 + 2 * block.size) // 256
    assert peak < block.nbytes / 4


@given(
    short_len=st.integers(1, 12),
    hold=st.integers(1, 6),
    order=st.integers(1, 30),
    segments=st.integers(1, 12),
    partial=st.integers(0, 11),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    batch_segments=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_sinc_averager_is_the_periodogram_of_the_reconstruction(
    short_len, hold, order, segments, partial, cuts, batch_segments, seed
):
    """``order >= 1`` on the samples is the plain averager on ``reconstruct(samples)``, from time zero on.

    Within 1e-12 of the peak (the dense DFTs are never taken), segments
    shorter than the ``order`` inputs each side of them too, and bit for bit
    under any chunking (empty and sub-segment chunks too) and batch size.
    The trailing partial segment is not a segment, but it is read by the
    last segment's edge correction.
    """
    segment_len = short_len * hold
    rng = np.random.default_rng(seed)
    size = segments * short_len + partial % short_len
    x = rng.normal(size=size) + 1j * rng.normal(size=size)
    expected = periodogram(reconstruct(x, InterpolationFilter.truncated_sinc(1.0, order), hold), segment_len)
    whole = PeriodogramAverager(segment_len, sample_rate=float(hold), hold=hold, order=order)
    whole.add(x)
    one_shot = whole.result()
    assert one_shot.meta == expected.meta
    assert one_shot.meta["num_segments"] == segments
    assert np.abs(one_shot.values - expected.values).max() <= 1e-12 * expected.values.max()

    chunked = PeriodogramAverager(segment_len, sample_rate=float(hold), hold=hold, order=order)
    with mock.patch.object(estimate, "_BATCH_SAMPLES", batch_segments * segment_len):
        for piece in np.split(x, sorted(int(c * size) for c in cuts)):
            chunked.add(piece)
        assert chunked.result().values.tobytes() == one_shot.values.tobytes()
    assert chunked.result().values.tobytes() == one_shot.values.tobytes()  # result() ends nothing


@pytest.mark.parametrize("batch", [2**14, 2**16])
def test_sinc_averager_keeps_its_batch_buffers(batch, traced_peak):
    """A steady-state ``add`` of the 16x128 sinc at L=2 allocates under a twentieth of its batch buffers.

    The buffers (64 bytes a bin, 4 MB at 2**16 bins) are sized by the first
    ``add`` and reused; later ones allocate only the carry, the window that
    completes it, and the gather indices, whatever the batch size.
    """
    avg = PeriodogramAverager(4096, sample_rate=1.0, hold=2, order=50)
    block = np.random.default_rng(0).normal(size=2**16) + 0j
    with mock.patch.object(estimate, "_BATCH_SAMPLES", batch):
        avg.add(block)  # sizes the buffers, before any allocation is traced
        peak = traced_peak(lambda: avg.add(block))
    assert avg.num_segments == 3 * 2**16 // 2048 - 1  # the last waits for the inputs after it
    assert peak < 64 * 2**16 / 20


@pytest.mark.parametrize("order", [0.5, -1])
def test_order_must_be_a_whole_number(order):
    with pytest.raises(ValueError, match="order"):
        PeriodogramAverager(8, 1.0, hold=2, order=order)


def test_averager_requires_a_segment():
    avg = PeriodogramAverager(4, 1.0)
    avg.add(np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        avg.result()


def test_flat_psd_estimate_converges():
    prof = VarianceProfile.uniform(2, 8)
    stream = generate_random_stream(prof, 4000, seed=11)
    est = periodogram(stream)
    ref = otfs_psd(prof, 1.0, InterpolationFilter.dirac(1.0), est.freqs)
    result = compare_curves(est, ref)
    assert result["nmse_db"] < -30
    assert result["cosine_similarity"] > 0.999


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _curve(values, freqs=None):
    values = np.asarray(values, dtype=float)
    freqs = np.arange(values.size, dtype=float) if freqs is None else freqs
    return PsdCurve(freqs, values)


def test_nmse_identical_curves_hit_floor():
    a = _curve([1.0, 2.0, 3.0])
    assert nmse_db(a, a) == NMSE_FLOOR_DB


def test_nmse_scaling_invariance_after_peak_one():
    a = _curve([1.0, 2.0, 3.0])
    b = _curve([2.0, 4.0, 6.0])
    result = compare_curves(b, a)
    assert result["nmse_db"] == NMSE_FLOOR_DB
    assert result["cosine_similarity"] == pytest.approx(1.0, abs=1e-15)


def test_nmse_hand_value():
    a = _curve([1.0, 1.0])
    b = _curve([1.0, 0.0])
    # ||a-b||^2 / ||b||^2 = 1 -> 0 dB
    assert nmse_db(a, b) == pytest.approx(0.0, abs=1e-12)


def test_nmse_zero_reference_rejected():
    with pytest.raises(ValueError):
        nmse_db(_curve([1.0, 1.0]), _curve([0.0, 0.0]))


def test_cosine_orthogonal_curves():
    assert cosine_similarity(_curve([1.0, 0.0]), _curve([0.0, 1.0])) == 0.0


def test_compare_resamples_reference():
    ref = PsdCurve(np.array([0.0, 2.0]), np.array([0.0, 2.0]))
    est = PsdCurve(np.array([0.5, 1.0, 1.5]), np.array([0.5, 1.0, 1.5]))
    result = compare_curves(est, ref)
    assert result["nmse_db"] == NMSE_FLOOR_DB


def test_compare_disjoint_spans_rejected():
    a = PsdCurve(np.array([0.0, 1.0]), np.ones(2))
    b = PsdCurve(np.array([5.0, 6.0]), np.ones(2))
    with pytest.raises(ValueError):
        compare_curves(a, b)


def test_compare_band_restriction_changes_grid():
    a = _curve(np.ones(10))
    b = _curve(np.linspace(1, 2, 10))
    full = compare_curves(a, b)
    cut = compare_curves(a, b, band=(0.0, 3.0))
    assert full["nmse_db"] != cut["nmse_db"]


# ---------------------------------------------------------------------------
# cyclostationarity probes
# ---------------------------------------------------------------------------


def test_cyclo_autocorr_shapes_and_defaults():
    stream = generate_random_stream(VarianceProfile.uniform(2, 4), 400, seed=5)
    probes = [(0, 0), (1, 3), (2, 7)]
    result = cyclo_autocorr(stream, probes)
    assert result.shift == 8
    assert result.base.shape == (3,)
    assert result.num_blocks == 200  # 2 frames per block: max index 7 + shift 8
    assert np.all(result.diff_se >= 0)


def test_cyclo_autocorr_frame_period_invariance():
    stream = generate_random_stream(VarianceProfile.uniform(2, 4), 2000, seed=6)
    probes = [(a, b) for a in range(2) for b in range(4)]
    result = cyclo_autocorr(stream, probes)
    assert result.max_deviation_in_se() < 5.0


def test_cyclo_autocorr_unit_power_diagonal():
    stream = generate_random_stream(VarianceProfile.uniform(2, 2), 3000, seed=7)
    result = cyclo_autocorr(stream, [(0, 0)])
    # E|s[0]|^2 == mean symbol power == 1 for the unit QPSK profile
    assert result.base[0].real == pytest.approx(1.0, abs=5 * result.base_se[0] + 0.02)
    assert abs(result.base[0].imag) < 1e-12


def test_cyclo_autocorr_needs_two_blocks():
    stream = generate_random_stream(VarianceProfile.uniform(2, 2), 2, seed=8)
    with pytest.raises(ValueError):
        cyclo_autocorr(stream, [(0, 7)])  # needs 2 frames per block -> 1 block


def test_cyclo_autocorr_validates_probes():
    stream = generate_random_stream(VarianceProfile.uniform(2, 2), 10, seed=9)
    with pytest.raises(ValueError):
        cyclo_autocorr(stream, [])
    with pytest.raises(ValueError):
        cyclo_autocorr(stream, [(-1, 0)])


def test_empirical_mean_is_statistically_zero():
    stream = generate_random_stream(VarianceProfile.uniform(2, 4), 3000, seed=10)
    means, ses = empirical_mean(stream, range(8))
    assert np.all(np.abs(means) < 5 * ses)


def test_empirical_mean_position_bounds():
    stream = generate_random_stream(VarianceProfile.uniform(2, 2), 4, seed=11)
    with pytest.raises(ValueError):
        empirical_mean(stream, [4])
