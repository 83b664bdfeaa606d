"""The streamed estimates against the one-shot reconstruct-and-periodogram.

``estimated_psd`` and the CEP split push each frame block of the stream
(and of its CEP component views) through one ``presets._BlockDac`` per
view, which overlap-adds the truncated sinc's ring across block and chunk
boundaries.  Each estimate must be that of the whole view reconstructed
at once: bit for bit for the memoryless filters, to rounding for the
sinc.  Memory must stay flat in the frame count, and the CEP split must
hold one reconstruction per view, no more.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from otfspectrum import presets, waveform
from otfspectrum.dac import InterpolationFilter, reconstruct
from otfspectrum.errors import ConfigurationError
from otfspectrum.estimate import periodogram
from otfspectrum.patterns import column_support_profile
from otfspectrum.presets import cep_sum_match, estimated_psd
from otfspectrum.waveform import (
    VarianceProfile,
    cep_component_stream,
    generate_random_stream,
    stream_chunks,
)

SEED = 11

FILTERS = {
    "dirac_delta": (InterpolationFilter.dirac(1.0), 1),
    "rect": (InterpolationFilter.rect(1.0), 3),
    "truncated_sinc": (InterpolationFilter.truncated_sinc(1.0, 6), 2),
}

# name -> (profile, frames, segment_frames)
CASES = {
    # 4100 frames: two generation chunks, the second holding 4 frames.
    "multi_chunk": (VarianceProfile.uniform(2, 2), 4100, 1),
    # 4096-sample frames: a block holds 2**18 // (4096 * L) frames, so 70
    # frames cross a block boundary inside the first chunk; three-frame
    # segments straddle it.
    "block_boundary": (VarianceProfile.uniform(64, 64), 70, 3),
}


def _one_shot(profile, frames, filt, oversampling, segment_frames, view=lambda s: s):
    stream = view(generate_random_stream(profile, frames, SEED, 1.0))
    segment_len = stream.samples_per_frame * oversampling * segment_frames
    return periodogram(reconstruct(stream, filt, oversampling), segment_len)


def _assert_matches_one_shot(streamed, one_shot, exact):
    assert streamed.meta["num_segments"] == one_shot.meta["num_segments"]
    assert_array_equal(streamed.freqs, one_shot.freqs)
    if exact:
        assert_array_equal(streamed.values, one_shot.values)
    else:
        error = np.abs(streamed.values - one_shot.values).max() / one_shot.values.max()
        assert error <= 1e-12


@pytest.mark.parametrize("kind", FILTERS)
@pytest.mark.parametrize("case", CASES)
def test_streamed_estimate_equals_one_shot(case, kind):
    profile, frames, segment_frames = CASES[case]
    filt, oversampling = FILTERS[kind]
    if case == "block_boundary":
        per_frame = profile.num_delay * profile.num_doppler * oversampling
        assert frames > waveform._BLOCK_SAMPLES // per_frame
    streamed = estimated_psd(profile, frames, SEED, 1.0, filt, oversampling, segment_frames)
    one_shot = _one_shot(profile, frames, filt, oversampling, segment_frames)
    _assert_matches_one_shot(streamed, one_shot, exact=kind != "truncated_sinc")


def test_streamed_sinc_keeps_the_post_ring_segment():
    """Gate 4's sinc geometry: order*L = 5000 dense samples >= a 3200-sample frame.

    The post-ring after the last frame is long enough to form a segment of
    its own, so 1000 frames give 1001 segments, as in the one-shot estimate.
    """
    profile = column_support_profile([0, 1, 2, 6, 7], 4, 8)
    filt = InterpolationFilter.truncated_sinc(1.0, 50)
    streamed = estimated_psd(profile, 1000, SEED, 1.0, filt, 100)
    one_shot = _one_shot(profile, 1000, filt, 100, 1)
    assert streamed.meta["num_segments"] == 1001
    _assert_matches_one_shot(streamed, one_shot, exact=False)


@given(
    delays=st.integers(1, 3),
    dopplers=st.integers(1, 4),
    frames=st.integers(1, 40),
    oversampling=st.integers(1, 4),
    order=st.integers(1, 12),
    block=st.integers(1, 200),
)
def test_pieces_concatenate_to_the_one_shot_reconstruction(
    delays, dopplers, frames, oversampling, order, block
):
    """Any block size, down to blocks far shorter than the sinc's ring."""
    profile = VarianceProfile.uniform(delays, dopplers)
    filt = InterpolationFilter.truncated_sinc(1.0, order)
    dac = presets._BlockDac(filt, oversampling)
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block):
        blocks = stream_chunks(profile, frames, SEED, 1.0, oversampling=oversampling)
        pieces = np.concatenate([*map(dac.push, blocks), dac.flush()])
    whole = reconstruct(generate_random_stream(profile, frames, SEED, 1.0), filt, oversampling)
    expected = whole.samples[order * oversampling :]
    assert pieces.size == expected.size
    assert np.abs(pieces - expected).max() <= 1e-12 * np.abs(expected).max()


def test_block_dac_tail_is_a_view_of_the_last_reconstruction():
    """The tail pins its reconstruction: a copied tail sextupled a long rect stream's page faults."""
    profile = VarianceProfile.uniform(2, 4)
    dac = presets._BlockDac(InterpolationFilter.truncated_sinc(1.0, 4), 2)
    reconstructions = []

    def recording(*args):
        reconstructions.append(reconstruct(*args))
        return reconstructions[-1]

    with mock.patch.object(presets, "reconstruct", recording), mock.patch.object(
        waveform, "_BLOCK_SAMPLES", 16
    ):
        for block in stream_chunks(profile, 3, SEED, 1.0, oversampling=2):
            dac.push(block)
            assert dac.tail.size == 2 * 4 * 2
            assert np.shares_memory(dac.tail, reconstructions[-1].samples)
    assert len(reconstructions) == 3


def test_streamed_estimate_checks_the_filter_interval():
    with pytest.raises(ConfigurationError):
        estimated_psd(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, InterpolationFilter.rect(2.0), 2)


def _peak_bytes(frames, estimate=estimated_psd):
    profile = VarianceProfile.uniform(2, 4)
    filt = InterpolationFilter.truncated_sinc(1.0, 4)
    tracemalloc.start()
    try:
        estimate(profile, frames, SEED, 1.0, filt, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_estimate_memory_does_not_grow_with_frames():
    """Two and four generation chunks peak alike: nothing holds the whole stream."""
    assert _peak_bytes(16384) <= 1.05 * _peak_bytes(8192)


# A 3x2 grid with unequal variances: every CEP component has its own spectrum.
CEP_PROFILE = VarianceProfile(np.array([[1.0, 0.5], [0.25, 2.0], [0.0, 1.5]]))


@pytest.mark.parametrize("kind", FILTERS)
def test_streamed_cep_split_equals_one_shot(kind):
    """4100 frames in blocks of about 2**10 dense samples: two generation chunks, many blocks.

    Each block feeds the whole stream and all three components.
    """
    filt, oversampling = FILTERS[kind]
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 2**10):
        whole, parts, summed, metrics = presets._cep_split(
            CEP_PROFILE, 4100, SEED, 1.0, filt, oversampling, 1, "qpsk"
        )
        assert metrics == cep_sum_match(CEP_PROFILE, 4100, SEED, 1.0, filt, oversampling)
    exact = kind != "truncated_sinc"
    _assert_matches_one_shot(whole, _one_shot(CEP_PROFILE, 4100, filt, oversampling, 1), exact)
    assert len(parts) == CEP_PROFILE.num_delay
    for l, part in enumerate(parts):
        view = lambda stream, l=l: cep_component_stream(stream, l)
        one_shot = _one_shot(CEP_PROFILE, 4100, filt, oversampling, 1, view)
        _assert_matches_one_shot(part, one_shot, exact)
    assert_array_equal(summed.values, parts[0].values + parts[1].values + parts[2].values)


def test_cep_sum_match_memory_does_not_grow_with_frames():
    """Four and sixteen generation chunks peak alike: blocks are dropped once every view took them."""
    assert _peak_bytes(65536, cep_sum_match) <= 1.05 * _peak_bytes(16384, cep_sum_match)


def test_cep_split_holds_one_reconstruction_per_view():
    """16 delays, rect at L=1: 2**18-sample dense blocks, eight of them.

    Above the one-view estimate, the 17 views may hold at most 17 more
    reconstructions: no view keeps a second block alive beside its DAC's.
    """
    profile = VarianceProfile.uniform(16, 16)
    filt = InterpolationFilter.rect(1.0)
    block_bytes = waveform._BLOCK_SAMPLES * 16

    def peak(estimate):
        tracemalloc.start()
        try:
            estimate(profile, 8192, SEED, 1.0, filt, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = peak(cep_sum_match) - peak(estimated_psd)
    assert extra <= (profile.num_delay + 1) * block_bytes


def test_cep_views_copy_blocks_not_chunks():
    """Eight component views of 16-frame blocks: the views never copy a whole generation chunk.

    A chunk copied per view would alone add eight chunk sizes.
    """
    profile = VarianceProfile.uniform(8, 4)
    chunk_bytes = 4096 * profile.num_delay * profile.num_doppler * 16
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 512):
        tracemalloc.start()
        try:
            cep_sum_match(profile, 4096, SEED, 1.0, InterpolationFilter.rect(1.0), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5 * chunk_bytes


def _nslp_peak_bytes(tmp_path, frames):
    config = presets.preset_config(
        "lte-otfs-nslp", {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": frames}}
    )
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 2**12):  # 16-frame blocks
        tracemalloc.start()
        try:
            presets.run_scenario(config, tmp_path / str(frames))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_nslp_runner_memory_does_not_grow_with_frames(tmp_path):
    """16 and 64 precoded blocks peak alike: the leak and the periodogram are taken block by block."""
    assert _nslp_peak_bytes(tmp_path, 1024) <= 1.05 * _nslp_peak_bytes(tmp_path, 256)
