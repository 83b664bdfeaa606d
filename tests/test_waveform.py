import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfspectrum import waveform
from otfspectrum.errors import ConfigurationError
from otfspectrum.precoding import build_precoders, decompose_mask
from otfspectrum.presets import precoded_stream
from otfspectrum.waveform import (
    CONSTELLATIONS,
    BasebandFrame,
    DelayDopplerGrid,
    FrameStream,
    VarianceProfile,
    _CHUNK_FRAMES,
    _QPSK,
    _chunk_rng,
    _chunked_frames,
    cep_component_stream,
    cep_ofdm_component,
    constellation_points,
    dft_matrix,
    generate_random_stream,
    ofdm_modulate,
    otfs_modulate,
    stream_chunks,
)

RTWO = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# DFT matrix
# ---------------------------------------------------------------------------


def test_dft_matrix_frozen_entry():
    # hand value: entry (1, 1) of the unitary 4-point DFT is exp(-j*pi/2)/2
    assert dft_matrix(4)[1, 1] == pytest.approx(-0.5j, abs=1e-15)


def test_dft_matrix_unitary():
    f = dft_matrix(8)
    assert_allclose(f.conj().T @ f, np.eye(8), atol=1e-12)


def test_dft_matrix_size_one():
    assert_array_equal(dft_matrix(1), np.array([[1.0 + 0j]]))


def test_dft_matrix_rejects_bad_size():
    with pytest.raises(ValueError):
        dft_matrix(0)


# ---------------------------------------------------------------------------
# modulators: frozen oracles
# ---------------------------------------------------------------------------


def test_otfs_single_symbol_oracle():
    # one symbol in row 0, column 0 of a 2x2 grid spreads as (1/sqrt 2)[1,0,1,0]
    grid = DelayDopplerGrid([[1.0, 0.0], [0.0, 0.0]])
    frame = otfs_modulate(grid)
    assert_allclose(frame.samples, np.array([1, 0, 1, 0]) / RTWO, atol=1e-15)


def test_ofdm_two_symbol_oracle():
    grid = DelayDopplerGrid([[1.0, 0.0], [0.0, 1.0]])
    frame = ofdm_modulate(grid)
    assert_allclose(frame.samples, np.array([1, 1, 1, -1]) / RTWO, atol=1e-15)


def test_otfs_matches_double_sum():
    rng = np.random.default_rng(42)
    for m, n in [(1, 4), (3, 5), (4, 8)]:
        x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        frame = otfs_modulate(DelayDopplerGrid(x))
        expected = np.empty(m * n, dtype=np.complex128)
        for l in range(m):
            for t in range(n):
                acc = 0.0 + 0j
                for k in range(n):
                    acc += x[l, k] * np.exp(2j * np.pi * k * t / n)
                expected[t * m + l] = acc / np.sqrt(n)
        assert_allclose(frame.samples, expected, atol=1e-12)


def test_otfs_equals_kronecker_construction():
    rng = np.random.default_rng(7)
    m, n = 3, 4
    x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    grid = DelayDopplerGrid(x)
    # s = kron(conj(F_N), I_M) @ vec(X): vec of X @ F^H, column-major
    op = np.kron(dft_matrix(n).conj(), np.eye(m))
    assert_allclose(otfs_modulate(grid).samples, op @ grid.vec(), atol=1e-12)


def test_otfs_stride_slices_are_row_idfts():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    samples = otfs_modulate(DelayDopplerGrid(x)).samples
    for l in range(4):
        assert_allclose(samples[l::4], np.fft.ifft(x[l], norm="ortho"), atol=1e-13)


def test_otfs_and_ofdm_are_interleavings_of_each_other():
    rng = np.random.default_rng(11)
    m, n = 4, 6
    x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    grid = DelayDopplerGrid(x)
    otfs = otfs_modulate(grid).samples.reshape(n, m)
    ofdm = ofdm_modulate(grid).samples.reshape(m, n)
    assert_array_equal(otfs.T, ofdm)


def test_no_cyclic_prefix_frame_length():
    frame = otfs_modulate(DelayDopplerGrid(np.ones((3, 5))))
    assert frame.num_samples == 15


def test_modulate_rejects_bad_interval():
    with pytest.raises(ValueError):
        otfs_modulate(DelayDopplerGrid(np.ones((2, 2))), sample_interval=0.0)


# ---------------------------------------------------------------------------
# CEP-OFDM components
# ---------------------------------------------------------------------------


def test_cep_component_oracle():
    grid = DelayDopplerGrid([[1.0, 0.0], [1.0, 0.0]])
    comp = cep_ofdm_component(grid, 1)
    assert_allclose(comp.samples, np.array([0, 1, 0, 1]) / RTWO, atol=1e-15)


def test_cep_components_sum_to_otfs_exactly():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    grid = DelayDopplerGrid(x)
    total = sum(cep_ofdm_component(grid, l).samples for l in range(4))
    # exact: each sample position has exactly one non-zero contributor
    assert_array_equal(total, otfs_modulate(grid).samples)


def test_cep_component_zero_off_comb():
    grid = DelayDopplerGrid(np.ones((3, 4)))
    comp = cep_ofdm_component(grid, 2).samples
    mask = np.ones(12, dtype=bool)
    mask[2::3] = False
    assert_array_equal(comp[mask], np.zeros(8))


def test_cep_component_stream_matches_per_frame():
    prof = VarianceProfile.uniform(3, 4)
    stream = generate_random_stream(prof, 5, seed=9)
    comp = cep_component_stream(stream, 1)
    for i in range(5):
        expected = np.zeros(12, dtype=np.complex128)
        expected[1::3] = stream.frames[i, 1::3]
        assert_array_equal(comp.frames[i], expected)


def test_cep_rejects_out_of_range_delay():
    grid = DelayDopplerGrid(np.ones((2, 2)))
    with pytest.raises(IndexError):
        cep_ofdm_component(grid, 2)
    stream = generate_random_stream(VarianceProfile.uniform(2, 2), 2, seed=0)
    with pytest.raises(IndexError):
        cep_component_stream(stream, -1)


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------


def test_qpsk_points_unit_modulus():
    pts = constellation_points("qpsk")
    assert pts.size == 4
    assert_allclose(np.abs(pts), np.ones(4), atol=1e-15)
    assert pts.mean() == 0


def test_qam16_unit_average_power():
    pts = constellation_points("qam16")
    assert pts.size == 16
    # (4*2 + 8*10 + 4*18) / (16*10) == 1 exactly
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-15)
    assert pts.mean() == 0


def test_unknown_constellation():
    with pytest.raises(ConfigurationError):
        constellation_points("psk8")


# ---------------------------------------------------------------------------
# random stream generation
# ---------------------------------------------------------------------------


def test_stream_deterministic_and_seed_sensitive():
    prof = VarianceProfile.uniform(2, 4)
    a = generate_random_stream(prof, 6, seed=123)
    b = generate_random_stream(prof, 6, seed=123)
    c = generate_random_stream(prof, 6, seed=124)
    assert_array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)


def test_stream_prefix_stability():
    """Growing num_frames must not disturb already-generated frames."""
    prof = VarianceProfile.uniform(2, 4)
    short = generate_random_stream(prof, 10, seed=77)
    long = generate_random_stream(prof, 200, seed=77)
    assert_array_equal(short.frames, long.frames[:10])


def _assert_block_layout(sizes, num_frames, block_frames):
    """Blocks tile the frames; none crosses a chunk boundary; all but a chunk's last are full."""
    ends = np.cumsum(sizes)
    assert ends[-1] == num_frames
    for size, end in zip(sizes, ends):
        assert (end - size) // _CHUNK_FRAMES == (end - 1) // _CHUNK_FRAMES
        chunk_end = min(num_frames, ((end - 1) // _CHUNK_FRAMES + 1) * _CHUNK_FRAMES)
        assert size == block_frames if end < chunk_end else 1 <= size <= block_frames


def _whole_chunk_symbols(rng, count, sigma, points=_QPSK):
    """``count`` frames of symbols in one draw: a uniform double per bin, in C order, picks a point."""
    return points[(rng.random((count, *sigma.shape)) * points.size).astype(np.intp)] * sigma


def _whole_chunk_frames(profile, num_frames, seed):
    """The stream drawn and modulated one whole 4096-frame chunk at a time (the blocks' reference)."""
    chunks = []
    for lo in range(0, num_frames, _CHUNK_FRAMES):
        count = min(_CHUNK_FRAMES, num_frames - lo)
        rng = _chunk_rng(seed, lo // _CHUNK_FRAMES)
        symbols = _whole_chunk_symbols(rng, count, np.sqrt(profile.sigma2))
        rows = np.fft.ifft(symbols, axis=-1, norm="ortho")
        chunks.append(rows.transpose(0, 2, 1).reshape(count, -1))
    return np.concatenate(chunks)


def test_stream_chunks_concatenate_to_one_shot():
    prof = VarianceProfile.uniform(2, 2)
    whole = generate_random_stream(prof, 9000, seed=5)  # spans three chunks
    assert_array_equal(whole.frames, _whole_chunk_frames(prof, 9000, seed=5))
    # default blocks (a whole chunk here) and 83-frame blocks at oversampling 3
    for block_samples, oversampling in ((waveform._BLOCK_SAMPLES, 1), (1000, 3)):
        with mock.patch.object(waveform, "_BLOCK_SAMPLES", block_samples):
            blocks = list(stream_chunks(prof, 9000, seed=5, oversampling=oversampling))
        assert_array_equal(whole.frames, np.concatenate([b.frames for b in blocks]))
        block_frames = max(1, block_samples // (4 * oversampling))
        _assert_block_layout([b.num_frames for b in blocks], 9000, block_frames)


@example(
    delays=2, dopplers=3, frames=_CHUNK_FRAMES + 5, shorter_by=3, block_samples=70, oversampling=2, seed=0
)
@given(
    delays=st.integers(1, 3),
    dopplers=st.integers(1, 3),
    frames=st.one_of(st.integers(1, 64), st.integers(_CHUNK_FRAMES - 8, 2 * _CHUNK_FRAMES + 8)),
    shorter_by=st.integers(0, _CHUNK_FRAMES + 64),
    block_samples=st.integers(8, 4096),
    oversampling=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_streams_are_prefix_stable_across_chunk_boundaries(
    delays, dopplers, frames, shorter_by, block_samples, oversampling, seed
):
    """Small blocks: every prefix of a longer stream is the shorter stream, plain and precoded."""
    prof = VarianceProfile(np.arange(1.0, delays * dopplers + 1).reshape(delays, dopplers))
    prefix = max(1, frames - shorter_by)
    precoders = build_precoders(decompose_mask([0] if delays * dopplers > 1 else [], delays, dopplers))
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block_samples):
        blocks = list(stream_chunks(prof, frames, seed, oversampling=oversampling))
        short = generate_random_stream(prof, prefix, seed)
        precoded, norms = precoded_stream(precoders, frames, seed)
        short_precoded, short_norms = precoded_stream(precoders, prefix, seed)
    block_frames = max(1, block_samples // (delays * dopplers * oversampling))
    _assert_block_layout([b.num_frames for b in blocks], frames, block_frames)
    stream = np.concatenate([b.frames for b in blocks])
    assert_array_equal(stream, _whole_chunk_frames(prof, frames, seed))
    assert_array_equal(stream[:prefix], short.frames)
    assert_array_equal(precoded.frames[:prefix], short_precoded.frames)
    assert_array_equal(norms[:prefix], short_norms)


def test_a_stream_block_stays_far_below_a_chunk():
    """16x128 grid: one 4096-frame chunk array is 134 MB, one 2**17-sample block 2 MB."""
    prof = VarianceProfile.uniform(16, 128)
    tracemalloc.start()
    try:
        block = next(stream_chunks(prof, _CHUNK_FRAMES, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.num_frames == waveform._BLOCK_SAMPLES // (16 * 128)
    assert peak < 32 * 2**20


def test_zero_variance_bins_are_exactly_zero():
    sigma2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    stream = generate_random_stream(VarianceProfile(sigma2), 50, seed=3)
    # invert the unitary row IDFT to recover the drawn symbols
    rows = stream.frames.reshape(50, 2, 2).transpose(0, 2, 1)
    symbols = np.fft.fft(rows, axis=2, norm="ortho")
    assert_array_equal(symbols[:, 0, 1], np.zeros(50))
    assert_array_equal(symbols[:, 1, 0], np.zeros(50))
    assert_allclose(np.abs(symbols[:, 0, 0]), np.ones(50), atol=1e-12)


def test_recovered_symbols_lie_on_constellation():
    prof = VarianceProfile.uniform(4, 8)
    stream = generate_random_stream(prof, 20, seed=21)
    rows = stream.frames.reshape(20, 8, 4).transpose(0, 2, 1)
    symbols = np.fft.fft(rows, axis=2, norm="ortho").ravel()
    pts = constellation_points("qpsk")
    dist = np.abs(symbols[:, None] - pts[None, :]).min(axis=1)
    assert dist.max() < 1e-12


def test_qam16_stream_power_close_to_profile():
    prof = VarianceProfile.uniform(1, 16)
    stream = generate_random_stream(prof, 4000, seed=2, constellation="qam16")
    power = np.mean(np.abs(stream.frames) ** 2)
    assert power == pytest.approx(1.0, rel=0.02)


def test_chunk_rng_is_stable():
    # the Philox keying is part of the on-disk reproducibility story:
    # freeze the first draw of (seed=0, chunk=0)
    first = _chunk_rng(0, 0).random()
    again = _chunk_rng(0, 0).random()
    assert first == again
    assert _chunk_rng(0, 1).random() != first


def test_stream_requires_seed_and_frames():
    prof = VarianceProfile.uniform(2, 2)
    with pytest.raises(ConfigurationError):
        generate_random_stream(prof, 0, seed=1)
    with pytest.raises(ConfigurationError):
        list(stream_chunks(prof, 4, seed=None))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def test_grid_vec_is_column_major():
    grid = DelayDopplerGrid([[1, 2], [3, 4]])
    assert_array_equal(grid.vec(), np.array([1, 3, 2, 4], dtype=np.complex128))


def test_variance_profile_validation():
    with pytest.raises(ValueError):
        VarianceProfile(np.array([[-1.0]]))
    with pytest.raises(ValueError):
        VarianceProfile(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        VarianceProfile(np.ones(4))  # 1-D


def test_frame_stream_accessors():
    frames = np.arange(12, dtype=np.complex128).reshape(2, 6)
    stream = FrameStream(frames=frames, num_delay=2, num_doppler=3, sample_interval=0.5)
    assert len(stream) == 2
    assert stream.samples_per_frame == 6
    assert isinstance(stream.frame(1), BasebandFrame)
    assert_array_equal(stream.concatenated(), np.arange(12, dtype=np.complex128))


def test_frame_stream_shape_mismatch():
    with pytest.raises(ValueError):
        FrameStream(frames=np.ones((2, 5)), num_delay=2, num_doppler=3, sample_interval=1.0)


def test_frame_stream_refuses_an_empty_dimension():
    with pytest.raises(ValueError, match="dimensions"):
        FrameStream(frames=np.ones((2, 0)), num_delay=0, num_doppler=3, sample_interval=1.0)


def test_a_baseband_frame_is_one_row():
    with pytest.raises(ValueError, match="one row"):
        BasebandFrame(frames=np.ones((2, 6)), num_delay=2, num_doppler=3, sample_interval=1.0)
    frame = BasebandFrame(frames=np.arange(6.0)[None], num_delay=2, num_doppler=3, sample_interval=1.0)
    assert frame.num_samples == 6 and np.shares_memory(frame.samples, frame.frames)


def test_a_modulated_frame_is_a_one_row_stream():
    frame = otfs_modulate(DelayDopplerGrid(np.ones((2, 3))), sample_interval=0.5)
    assert isinstance(frame, FrameStream) and frame.frames.shape == (1, 6)
    assert frame.num_frames == 1 and frame.sample_interval == 0.5 and frame.seed is None
    assert isinstance(cep_component_stream(frame, 1), BasebandFrame)  # the component keeps the type


@pytest.mark.parametrize("index", [0, 2, -1, -3])
def test_stream_frame_is_a_view_of_its_row(index):
    stream = generate_random_stream(VarianceProfile.uniform(2, 3), 3, seed=4, sample_interval=0.25)
    frame = stream.frame(index)
    assert np.shares_memory(frame.frames, stream.frames)
    assert_array_equal(frame.samples, stream.frames[index])
    assert (frame.num_delay, frame.num_doppler, frame.sample_interval, frame.seed) == (2, 3, 0.25, 4)


@given(
    delays=st.integers(1, 8),
    dopplers=st.integers(1, 8),
    sample_interval=st.floats(1e-9, 1e3),
    block_frames=st.integers(1, 6),
    extra_frames=st.integers(1, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_stream_frames_are_the_otfs_frames_of_their_grids(
    delays, dopplers, sample_interval, block_frames, extra_frames, seed
):
    """One layout: each frame of a multi-block draw is ``otfs_modulate`` of its grid, bit for bit.

    Every block's symbols are kept to the end: no later block overwrites them.
    """
    sigma = np.sqrt(np.arange(1.0, delays * dopplers + 1).reshape(delays, dopplers))
    num_frames = block_frames + extra_frames  # at least two blocks
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block_frames * delays * dopplers):
        blocks = list(_chunked_frames(num_frames, seed, _QPSK, sigma.shape, delays * dopplers, sigma))
    assert len(blocks) >= 2 and sum(len(frames) for _, frames in blocks) == num_frames
    drawn = np.concatenate([symbols for symbols, _ in blocks])
    assert_array_equal(drawn, _whole_chunk_symbols(_chunk_rng(seed, 0), num_frames, sigma))
    for symbols, frames in blocks:
        stream = FrameStream(frames, delays, dopplers, sample_interval, seed)
        components = [cep_component_stream(stream, l) for l in range(delays)]
        for i, grid in enumerate(map(DelayDopplerGrid, symbols)):
            assert_array_equal(otfs_modulate(grid, sample_interval).samples, frames[i])
            for l, component in enumerate(components):
                assert_array_equal(cep_ofdm_component(grid, l, sample_interval).samples, component.frames[i])


def test_partial_chunk_draw_is_the_prefix_of_a_full_chunk_draw():
    """Philox fills in C order: drawing k frames equals the first k of 4096."""
    sigma = np.sqrt(np.arange(15.0).reshape(3, 5))

    def symbols(frames):
        return np.concatenate([s for s, _ in _chunked_frames(frames, 9, _QPSK, sigma.shape, sigma.size, sigma)])

    assert_array_equal(symbols(7), symbols(_CHUNK_FRAMES)[:7])


@pytest.mark.parametrize("constellation", CONSTELLATIONS)
def test_block_draws_are_the_whole_chunk_draws_bit_for_bit(constellation):
    """Seven-frame blocks of raw draws give the bytes of one draw of uniform doubles per chunk.

    Zero-variance bins included: a point scaled by 0 keeps the sign of its
    zeros, as ``points[i] * sigma`` gives them.
    """
    points = constellation_points(constellation)
    sigma = np.sqrt(np.arange(15.0).reshape(3, 5) % 4)
    frames = _CHUNK_FRAMES + 9
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 7 * sigma.size):
        drawn = np.concatenate([s for s, _ in _chunked_frames(frames, 9, points, sigma.shape, sigma.size, sigma)])
    whole = np.concatenate(
        [_whole_chunk_symbols(_chunk_rng(9, c), n, sigma, points) for c, n in ((0, _CHUNK_FRAMES), (1, 9))]
    )
    assert drawn.tobytes() == whole.tobytes()
    assert np.signbit(drawn.real[:, sigma == 0]).any() and np.signbit(drawn.imag[:, sigma == 0]).any()


@settings(max_examples=40, deadline=None)
@given(
    constellation=st.sampled_from(CONSTELLATIONS),
    block_frames=st.integers(1, 9),
    frames=st.one_of(st.integers(1, 40), st.integers(_CHUNK_FRAMES - 8, _CHUNK_FRAMES + 40)),
    seed=st.integers(0, 2**63 - 1),
)
@example(constellation="qam16", block_frames=7, frames=_CHUNK_FRAMES + 3, seed=1)
def test_raw_bit_indices_are_those_of_the_uniform_doubles(constellation, block_frames, frames, seed):
    """A symbol's index, the top bits of its raw draw, is ``int(u * size)`` of the draw's uniform double.

    Frame counts past a block boundary, and up to and past a 4096-frame chunk boundary.
    """
    points, shape = constellation_points(constellation), (2, 3)
    frames += block_frames  # at least two blocks
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block_frames * 6):
        drawn = np.concatenate([symbols for symbols, _ in _chunked_frames(frames, seed, points, shape, 6)])
    counts = [min(_CHUNK_FRAMES, frames - lo) for lo in range(0, frames, _CHUNK_FRAMES)]
    uniforms = np.concatenate([_chunk_rng(seed, c).random((n, *shape)) for c, n in enumerate(counts)])
    assert drawn.tobytes() == points[(uniforms * points.size).astype(np.intp)].tobytes()


@pytest.mark.parametrize("size", [3, 6, 12])
def test_a_constellation_not_sized_a_power_of_two_is_refused(size):
    with pytest.raises(ValueError, match="power-of-two"):
        waveform._power_of_two_sized(np.ones(size, dtype=complex))


@example(delays=3, dopplers=2, frames=_CHUNK_FRAMES + 4, seed=0)
@given(
    delays=st.integers(1, 5),
    dopplers=st.integers(1, 5),
    frames=st.one_of(st.integers(1, 64), st.integers(_CHUNK_FRAMES + 1, 2 * _CHUNK_FRAMES + 64)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cep_components_sum_to_the_stream_bit_for_bit(delays, dopplers, frames, seed):
    """Each sample lies on exactly one comb, so the sum adds only exact zeros."""
    stream = generate_random_stream(VarianceProfile.uniform(delays, dopplers), frames, seed)
    total = np.zeros_like(stream.frames)
    for l in range(delays):
        total += cep_component_stream(stream, l).frames
    assert_array_equal(total, stream.frames)
