"""The streamed estimates against the one-shot reconstruct-and-periodogram.

``estimated_psd`` and the CEP split feed each frame block of the stream
(and of its CEP component views) at the symbol rate to one averager per
view, which carries the DAC: ``hold=L`` for rect and the Dirac, and also
the sinc's ``order``, whose segment DFTs it takes from the symbol-rate
DFTs plus an edge correction; no dense sample is built.  Each estimate
must be that of the whole view reconstructed at once (``dac.reconstruct``
is the oracle): bit for bit for the Dirac, within 1e-12 of the peak for
rect and the sinc (whose dense DFTs are never taken), and bit for bit
under any frame blocking and batch size.  A pass read at several frame
counts gives at each the bits of a pass of that many frames.  Memory must
stay flat in the frame count, the CEP split's views must share their
batch buffers and peak within two dense blocks of the one-view estimate,
and rect must not grow with L.
"""

import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from otfspectrum import estimate, presets, waveform
from otfspectrum.dac import InterpolationFilter, reconstruct
from otfspectrum.errors import ConfigurationError
from otfspectrum.estimate import periodogram
from otfspectrum.io import read_metrics, read_psd_curve
from otfspectrum.patterns import column_support_profile
from otfspectrum.precoding import build_precoders, discrete_spectrum
from otfspectrum.presets import estimated_psd
from otfspectrum.waveform import VarianceProfile, cep_component_stream, generate_random_stream, stream_chunks

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


def _estimates(profile, frames, seed, sample_interval, filt, oversampling, segment_frames, constellation, views):
    """``_streamed_estimates`` of the views of a random stream, at its end."""
    blocks = partial(stream_chunks, profile, frames, seed, sample_interval, constellation)
    [curves] = presets._streamed_estimates(
        blocks, profile.num_delay * profile.num_doppler, (frames,), sample_interval, filt, oversampling,
        segment_frames, views,
    )
    return curves


def _split(profile, frames, seed, sample_interval, filt, oversampling):
    """The one-count CEP split, as the ``cep-split`` preset runs it with one-frame segments."""
    return presets._cep_split(profile, (frames,), seed, sample_interval, filt, oversampling, 1, "qpsk")[0]


def _one_shot(profile, frames, filt, oversampling, segment_frames, view=lambda s: s):
    stream = view(generate_random_stream(profile, frames, SEED, 1.0))
    segment_len = stream.samples_per_frame * oversampling * segment_frames
    return periodogram(reconstruct(stream, filt, oversampling), segment_len)


def _assert_matches_one_shot(streamed, one_shot, kind):
    """Bit for bit for the Dirac; rect and the sinc never take the dense DFTs, so they match to rounding."""
    assert streamed.meta["num_segments"] == one_shot.meta["num_segments"]
    assert_array_equal(streamed.freqs, one_shot.freqs)
    if kind == "dirac_delta":
        assert streamed.values.tobytes() == one_shot.values.tobytes()
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
    _assert_matches_one_shot(streamed, one_shot, kind)


@settings(max_examples=20)
@given(
    delays=st.integers(1, 3),
    dopplers=st.integers(1, 4),
    frames=st.integers(1, 40),
    oversampling=st.integers(1, 8),
    order=st.integers(1, 40),
    segment_frames=st.integers(1, 3),
    block=st.integers(1, 300),
)
def test_memoryless_estimate_is_bit_identical_for_any_block_size(
    delays, dopplers, frames, oversampling, order, segment_frames, block
):
    """Each filter at any L, and its CEP split, give the same bits for every ``_BLOCK_SAMPLES``.

    Rect, the Dirac and the sinc of ``order``, whose ``2*order`` taps may
    span many blocks of a few samples each.  Every view also matches its
    one-shot estimate.
    """
    frames = max(frames, segment_frames)
    profile = VarianceProfile.uniform(delays, dopplers)
    views = (None, *range(delays))
    for kind in FILTERS:
        filt = InterpolationFilter(kind, 1.0, order)
        dense = 1 if kind == "dirac_delta" else oversampling
        args = (profile, frames, SEED, 1.0, filt, dense, segment_frames, "qpsk")
        whole = _estimates(*args, views)
        with mock.patch.object(waveform, "_BLOCK_SAMPLES", block):
            blocked = _estimates(*args, views)
        for l, a, b in zip(views, whole, blocked):
            assert a.meta == b.meta
            assert a.values.tobytes() == b.values.tobytes()
            view = (lambda stream: stream) if l is None else partial(cep_component_stream, delay_index=l)
            _assert_matches_one_shot(b, _one_shot(profile, frames, filt, dense, segment_frames, view), kind)


def test_streamed_sinc_drops_the_post_ring():
    """Gate 4's sinc geometry: order*L = 5000 dense samples >= a 3200-sample frame.

    The post-ring after the last frame is long enough to form a segment of
    its own, but it holds only the decaying ring of the last frames, so it
    is dropped: 1000 frames give 1000 segments, as in the one-shot estimate.
    """
    profile = column_support_profile([0, 1, 2, 6, 7], 4, 8)
    filt = InterpolationFilter.truncated_sinc(1.0, 50)
    streamed = estimated_psd(profile, 1000, SEED, 1.0, filt, 100)
    one_shot = _one_shot(profile, 1000, filt, 100, 1)
    assert streamed.meta["num_segments"] == 1000
    _assert_matches_one_shot(streamed, one_shot, "truncated_sinc")


def _sinc_views(delays, dopplers, frames, oversampling, order, segment_frames):
    profile = VarianceProfile.uniform(delays, dopplers)
    filt = InterpolationFilter.truncated_sinc(1.0, order)
    args = (profile, max(frames, segment_frames), SEED, 1.0, filt, oversampling, segment_frames, "qpsk")
    return args, (None, *range(delays))


SINC_GEOMETRY = dict(
    delays=st.integers(1, 8),
    dopplers=st.integers(1, 8),
    frames=st.integers(1, 12),
    oversampling=st.integers(1, 8),
    order=st.integers(1, 40),
    segment_frames=st.integers(1, 3),
)


@settings(max_examples=30, deadline=None)
@given(**SINC_GEOMETRY)
def test_sinc_estimate_is_the_periodogram_of_the_reconstruction(
    delays, dopplers, frames, oversampling, order, segment_frames
):
    """The whole stream and every CEP view, within 1e-12 of the peak of ``periodogram(reconstruct(view))``.

    Segments of ``M*N*segment_frames`` inputs, from one input up: a segment
    may be far shorter than the ``order`` inputs each side of it that its
    edge correction reads.
    """
    args, views = _sinc_views(delays, dopplers, frames, oversampling, order, segment_frames)
    profile, frames, filt = args[0], args[1], args[4]
    for l, streamed in zip(views, _estimates(*args, views)):
        view = (lambda stream: stream) if l is None else partial(cep_component_stream, delay_index=l)
        one_shot = _one_shot(profile, frames, filt, oversampling, segment_frames, view)
        _assert_matches_one_shot(streamed, one_shot, "truncated_sinc")


@settings(max_examples=30, deadline=None)
@given(**SINC_GEOMETRY, block=st.integers(1, 400), batch=st.integers(1, 2**12))
def test_sinc_estimate_is_bit_identical_for_any_block_and_batch(
    delays, dopplers, frames, oversampling, order, segment_frames, block, batch
):
    """Every view gives the same bytes for every ``_BLOCK_SAMPLES`` and ``_BATCH_SAMPLES``.

    A batch of one segment and a batch of many round each segment's edge
    product alike, and blocks of a few samples carry whole segments, with
    the ``order`` inputs each side of them, across many ``add`` calls.
    """
    args, views = _sinc_views(delays, dopplers, frames, oversampling, order, segment_frames)
    whole = _estimates(*args, views)
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block), mock.patch.object(
        estimate, "_BATCH_SAMPLES", batch
    ):
        blocked = _estimates(*args, views)
    for a, b in zip(whole, blocked):
        assert a.meta == b.meta
        assert a.values.tobytes() == b.values.tobytes()


def test_streamed_estimate_checks_the_filter_interval():
    with pytest.raises(ConfigurationError):
        estimated_psd(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, InterpolationFilter.rect(2.0), 2)


@pytest.mark.parametrize(
    "filt, oversampling",
    [
        (InterpolationFilter.rect(2.0), 2),
        (InterpolationFilter.truncated_sinc(2.0, 4), 2),
        (InterpolationFilter.dirac(1.0), 2),
        (InterpolationFilter.rect(1.0), 1.5),
        (InterpolationFilter.rect(1.0), 0),
        (InterpolationFilter.truncated_sinc(1.0, 4), 2.5),
    ],
)
def test_streamed_estimate_refuses_what_reconstruct_refuses(filt, oversampling):
    """The same ``ConfigurationError`` as ``reconstruct``, and before any symbol is drawn."""
    stream = generate_random_stream(VarianceProfile.uniform(2, 2), 1, SEED, 1.0)
    with pytest.raises(ConfigurationError) as expected:
        reconstruct(stream, filt, oversampling)
    with mock.patch.object(presets, "stream_chunks", side_effect=AssertionError("drew symbols")):
        with pytest.raises(ConfigurationError) as streamed:
            estimated_psd(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, filt, oversampling)
        with pytest.raises(ConfigurationError) as split:
            _split(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, filt, oversampling)
    assert str(streamed.value) == str(split.value) == str(expected.value)


def test_streamed_dirac_refuses_oversampling():
    with pytest.raises(ConfigurationError, match=r"dirac_delta reconstruction requires oversampling == 1"):
        estimated_psd(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, InterpolationFilter.dirac(1.0), 2)


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
        whole, parts, summed, _ = _split(CEP_PROFILE, 4100, SEED, 1.0, filt, oversampling)
    _assert_matches_one_shot(whole, _one_shot(CEP_PROFILE, 4100, filt, oversampling, 1), kind)
    assert len(parts) == CEP_PROFILE.num_delay
    for l, part in enumerate(parts):
        view = lambda stream, l=l: cep_component_stream(stream, l)
        one_shot = _one_shot(CEP_PROFILE, 4100, filt, oversampling, 1, view)
        _assert_matches_one_shot(part, one_shot, kind)
    assert_array_equal(summed.values, parts[0].values + parts[1].values + parts[2].values)


@settings(max_examples=8, deadline=None)
@given(
    kind=st.sampled_from(sorted(FILTERS)),
    segment_frames=st.integers(1, 3),
    counts=st.lists(st.one_of(st.sampled_from([1, 4095, 4096, 4097]), st.integers(1, 4100)), min_size=1, max_size=3),
    block=st.integers(100, 400),
)
@example(kind="truncated_sinc", segment_frames=1, counts=[5, 5, 101, 4097, 4100], block=300)
def test_each_count_of_one_pass_is_a_separate_run_of_that_many_frames(kind, segment_frames, counts, block):
    """The whole stream, every CEP view, their sum and the metrics at each count, bit for bit.

    Blocks of a few frames: counts fall inside blocks and on their ends,
    on both sides of the 4096-frame chunk boundary, and repeat.
    """
    filt, oversampling = FILTERS[kind]
    counts = [max(count, segment_frames) for count in counts]
    args = (SEED, 1.0, filt, oversampling, segment_frames, "qpsk")
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block):
        splits = presets._cep_split(CEP_PROFILE, counts, *args)
        alone = {count: presets._cep_split(CEP_PROFILE, (count,), *args)[0] for count in set(counts)}
    for count, (whole, parts, summed, metrics) in zip(counts, splits):
        expected_whole, expected_parts, expected_sum, expected_metrics = alone[count]
        for curve, expected in zip((whole, *parts, summed), (expected_whole, *expected_parts, expected_sum)):
            assert curve.meta == expected.meta
            assert curve.values.tobytes() == expected.values.tobytes()
        assert metrics == expected_metrics


def test_cep_convergence_draws_its_largest_count_once(tmp_path):
    config = presets.preset_config("cep-convergence", {"stream": {"frame_counts": [10, 100, 1000]}})
    with mock.patch.object(presets, "stream_chunks", wraps=waveform.stream_chunks) as draw:
        presets.run_scenario(config, tmp_path)
    assert draw.call_count == 1
    assert draw.call_args.args[1] == 1000


def test_cep_split_memory_does_not_grow_with_frames():
    """Four and sixteen generation chunks peak alike: blocks are dropped once every view took them."""
    assert _peak_bytes(65536, _split) <= 1.05 * _peak_bytes(16384, _split)


def test_cep_split_views_share_their_batch_buffers():
    """16 delays, the truncated sinc at L=1: 2**18-sample dense blocks, eight of them.

    Above the one-view estimate, the 17 views may hold at most 2 more dense
    blocks: between blocks a view keeps only its sum and its carry, and all
    views fold through one set of batch buffers.
    """
    profile = VarianceProfile.uniform(16, 16)
    filt = InterpolationFilter.truncated_sinc(1.0, 1)
    block_bytes = waveform._BLOCK_SAMPLES * 16

    def peak(estimate):
        tracemalloc.start()
        try:
            estimate(profile, 8192, SEED, 1.0, filt, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = peak(_split) - peak(estimated_psd)
    assert extra <= 2 * block_bytes


def test_cep_views_copy_blocks_not_chunks():
    """Eight component views of 16-frame blocks: the views never copy a whole generation chunk.

    A chunk copied per view would alone add eight chunk sizes.
    """
    profile = VarianceProfile.uniform(8, 4)
    chunk_bytes = 4096 * profile.num_delay * profile.num_doppler * 16
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 512):
        tracemalloc.start()
        try:
            _split(profile, 4096, SEED, 1.0, InterpolationFilter.truncated_sinc(1.0, 1), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5 * chunk_bytes


def test_rect_estimate_builds_no_dense_block():
    """Rect at L=8 peaks as at L=4: both get blocks of the same 2**15 symbols (1024 frames).

    For L >= 4 a memoryless block holds the symbols of a dense block at
    L = 4, a quarter of ``_BLOCK_SAMPLES``.  Building the held block would
    add eight symbol-rate blocks at L=8 against four at L=4, and its
    spectra as many again.
    """
    profile = VarianceProfile.uniform(4, 8)
    symbol_block = 2**15

    def peak(oversampling):
        with mock.patch.object(waveform, "_BLOCK_SAMPLES", symbol_block * 4):
            estimated_psd(profile, 1, SEED, 1.0, InterpolationFilter.rect(1.0), oversampling)  # lazy imports
            tracemalloc.start()
            try:
                estimated_psd(profile, 4096, SEED, 1.0, InterpolationFilter.rect(1.0), oversampling)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(8) <= peak(4) + 2 * symbol_block * 16


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
    _nslp_peak_bytes(tmp_path, 16)  # numpy's lazily imported modules are not the runner's memory
    assert _nslp_peak_bytes(tmp_path, 1024) <= 1.05 * _nslp_peak_bytes(tmp_path, 256)


def test_nslp_preset_psd_and_leak_are_those_of_the_whole_stream(tmp_path):
    """8x32, 40 frames in five 8-frame blocks: the written PSD and leak are the one-block stream's, bit for bit."""
    overrides = {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": 40}}
    config = presets.preset_config("lte-otfs-nslp", overrides)
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 2**11):
        presets.run_scenario(config, tmp_path)
    mask = config.mask()
    stream, norms = presets.precoded_stream(
        build_precoders(mask, config.precoder_form), 40, config.seed, config.sample_interval, config.constellation
    )
    assert read_psd_curve(tmp_path / "lte_nslp_psd.csv").values.tobytes() == periodogram(stream).values.tobytes()
    leak = np.abs(discrete_spectrum(stream.frames)[:, mask.null_bins]).max(axis=1) / norms
    metrics = {record["metric"]: record["value"] for record in read_metrics(tmp_path / "lte_nslp_metrics.json")}
    assert metrics["worst_null_bin_leak"] == float(leak.max()) > 0.0
