"""The streamed estimates against the one-shot reconstruct-and-periodogram.

``estimated_psd`` and the CEP split feed each frame block of the stream
(and of its CEP component views) at the symbol rate to one averager per
view, which carries the DAC: ``hold=L`` for rect and the Dirac, and also
the sinc's ``order``, whose segment DFTs it takes from the symbol-rate
DFTs plus an edge correction; no dense sample is built.  Each estimate
must be that of the whole view reconstructed at once (``dac.reconstruct``
is the oracle): bit for bit for the Dirac, within 1e-12 of the peak for
rect and the sinc (whose dense DFTs are never taken), and bit for bit
under any frame blocking and batch size.  A random stream's one-frame
estimate through a memoryless DAC is folded from its symbols' DFTs, never
building a frame or taking an M*N-point FFT, so for the Dirac too it
matches within 1e-12 of the peak.  A pass read at several frame
counts gives at each the bits of a pass of that many frames.  Memory must
stay flat in the frame count, and above the averager's kept batch buffers
also in the batch size; the CEP split's views must share their batch
buffers and peak within two dense blocks of the one-view estimate, and
rect must not grow with L.  The whole-stream view hands its raw segment
DFTs to an optional callback, each once and in order.  The NSLP preset's
precoded grids take the symbol path too: a grid column is one M-point
inverse FFT of its spectrum row, its frame's DFT one M-point FFT back,
and the leak check reads those rows, so no M*N-point transform is taken.
"""

import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import closing
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from otfspectrum import estimate, presets, waveform
from otfspectrum import io as fileio
from otfspectrum.dac import InterpolationFilter, reconstruct
from otfspectrum.errors import ConfigurationError, SystematicInfeasibleError
from otfspectrum.estimate import periodogram
from otfspectrum.io import read_metrics, read_psd_curve
from otfspectrum.patterns import column_support_profile
from otfspectrum.precoding import PRECODER_FORMS, PrecoderSet, build_precoders, decompose_mask, discrete_spectrum
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
    # 4096-sample frames: a block holds 2**17 // (4096 * L) frames, so 70
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


def _assert_matches_one_shot(streamed, one_shot, kind, from_symbols=False):
    """Bit for bit for the Dirac's frames; rect, the sinc and spectra taken from the symbols match to rounding."""
    assert streamed.meta["num_segments"] == one_shot.meta["num_segments"]
    assert_array_equal(streamed.freqs, one_shot.freqs)
    if kind == "dirac_delta" and not from_symbols:
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
    _assert_matches_one_shot(streamed, one_shot, kind, from_symbols=segment_frames == 1)


@settings(max_examples=20)
@given(
    delays=st.integers(1, 3),
    dopplers=st.integers(1, 4),
    frames=st.integers(1, 40),
    oversampling=st.integers(1, 8),
    order=st.integers(1, 40),
    segment_frames=st.integers(1, 3),
    block=st.integers(1, 300),
    batch=st.integers(1, 2**12),
    cpus=st.integers(1, 3),
)
def test_memoryless_estimate_is_bit_identical_for_any_block_size(
    delays, dopplers, frames, oversampling, order, segment_frames, block, batch, cpus
):
    """Each filter at any L, its CEP split and ``estimated_psd`` give the same bits for every blocking and CPU count.

    Rect, the Dirac and the sinc of ``order``, whose ``2*order`` taps may
    span many blocks of a few samples each, drawn inline (one CPU) or on
    the producer thread, folded in batches of any ``_BATCH_SAMPLES``.
    ``estimated_psd`` of one-frame segments takes rect and the Dirac from
    the symbols.  Every view also matches its one-shot estimate.
    """
    frames = max(frames, segment_frames)
    profile = VarianceProfile.uniform(delays, dopplers)
    views = (None, *range(delays))
    for kind in FILTERS:
        filt = InterpolationFilter(kind, 1.0, order)
        dense = 1 if kind == "dirac_delta" else oversampling
        args = (profile, frames, SEED, 1.0, filt, dense, segment_frames, "qpsk")
        whole, alone = _estimates(*args, views), estimated_psd(*args)
        with mock.patch.object(waveform, "_BLOCK_SAMPLES", block), mock.patch.object(
            estimate, "_BATCH_SAMPLES", batch
        ), mock.patch.object(fileio, "_cpu_count", lambda: cpus):
            blocked, blocked_alone = _estimates(*args, views), estimated_psd(*args)
        assert alone.meta == blocked_alone.meta
        assert alone.values.tobytes() == blocked_alone.values.tobytes()
        one_shot = _one_shot(profile, frames, filt, dense, segment_frames)
        _assert_matches_one_shot(blocked_alone, one_shot, kind, from_symbols=segment_frames == 1)
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
@given(**SINC_GEOMETRY, block=st.integers(1, 400), batch=st.integers(1, 2**12), cpus=st.integers(1, 3))
def test_sinc_estimate_is_bit_identical_for_any_block_and_batch(
    delays, dopplers, frames, oversampling, order, segment_frames, block, batch, cpus
):
    """Every view gives the same bytes for every ``_BLOCK_SAMPLES``, ``_BATCH_SAMPLES`` and CPU count.

    A batch of one segment and a batch of many round each segment's edge
    product alike, and blocks of a few samples carry whole segments, with
    the ``order`` inputs each side of them, across many ``add`` calls.
    """
    args, views = _sinc_views(delays, dopplers, frames, oversampling, order, segment_frames)
    whole = _estimates(*args, views)
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", block), mock.patch.object(
        estimate, "_BATCH_SAMPLES", batch
    ), mock.patch.object(fileio, "_cpu_count", lambda: cpus):
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
    with mock.patch.object(presets, "stream_chunks", side_effect=AssertionError("drew symbols")), mock.patch.object(
        presets, "_stream_symbols", side_effect=AssertionError("drew symbols")
    ):
        with pytest.raises(ConfigurationError) as streamed:
            estimated_psd(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, filt, oversampling)
        with pytest.raises(ConfigurationError) as split:
            _split(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, filt, oversampling)
    assert str(streamed.value) == str(split.value) == str(expected.value)


def test_streamed_dirac_refuses_oversampling():
    with pytest.raises(ConfigurationError, match=r"dirac_delta reconstruction requires oversampling == 1"):
        estimated_psd(VarianceProfile.uniform(2, 2), 4, SEED, 1.0, InterpolationFilter.dirac(1.0), 2)


def _peak_bytes(traced_peak, frames, estimate=estimated_psd):
    profile = VarianceProfile.uniform(2, 4)
    filt = InterpolationFilter.truncated_sinc(1.0, 4)
    return traced_peak(lambda: estimate(profile, frames, SEED, 1.0, filt, 2))


def test_streamed_estimate_memory_does_not_grow_with_frames(traced_peak):
    """Two and four generation chunks peak alike: nothing holds the whole stream."""
    assert _peak_bytes(traced_peak, 16384) <= 1.05 * _peak_bytes(traced_peak, 8192)


def test_symbol_estimate_memory_does_not_grow_with_frames(traced_peak):
    """Rect at L=4 of one-frame segments, 16x128, from the symbols: 512 and 4096 frames peak alike.

    Blocks are drawn inline (one CPU): with the producer thread, a peak of
    about 1.8 MB moves by 7% with how the two threads happen to interleave.
    """
    profile, filt = VarianceProfile.uniform(16, 128), InterpolationFilter.rect(1.0)

    def peak(frames):
        with _cpus(1):
            return traced_peak(lambda: estimated_psd(profile, frames, SEED, 1.0, filt, 4))

    assert peak(4096) <= 1.05 * peak(512)


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


def test_cep_split_memory_does_not_grow_with_frames(traced_peak):
    """Four and sixteen generation chunks peak alike: blocks are dropped once every view took them."""
    assert _peak_bytes(traced_peak, 65536, _split) <= 1.05 * _peak_bytes(traced_peak, 16384, _split)


def test_cep_split_views_share_their_batch_buffers(traced_peak):
    """16 delays, the truncated sinc at L=1: 2**17-sample dense blocks, sixteen of them.

    Above the one-view estimate, the 17 views may hold at most 2 more dense
    blocks: between blocks a view keeps only its sum and its carry, and all
    views fold through one set of batch buffers.
    """
    profile = VarianceProfile.uniform(16, 16)
    filt = InterpolationFilter.truncated_sinc(1.0, 1)
    block_bytes = waveform._BLOCK_SAMPLES * 16

    def peak(estimate):
        return traced_peak(lambda: estimate(profile, 8192, SEED, 1.0, filt, 1))

    extra = peak(_split) - peak(estimated_psd)
    assert extra <= 2 * block_bytes


def test_cep_views_copy_blocks_not_chunks(traced_peak):
    """Eight component views of 16-frame blocks: the views never copy a whole generation chunk.

    A chunk copied per view would alone add eight chunk sizes.
    """
    profile = VarianceProfile.uniform(8, 4)
    chunk_bytes = 4096 * profile.num_delay * profile.num_doppler * 16
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 512):
        peak = traced_peak(lambda: _split(profile, 4096, SEED, 1.0, InterpolationFilter.truncated_sinc(1.0, 1), 1))
    assert peak < 5 * chunk_bytes


def test_rect_estimate_builds_no_dense_block(traced_peak):
    """Rect at L=8 peaks as at L=4: both get blocks of the same 2**15 symbols (1024 frames).

    For L >= 4 a memoryless block holds the symbols of a dense block at
    L = 4, a quarter of ``_BLOCK_SAMPLES``.  Building the held block would
    add eight symbol-rate blocks at L=8 against four at L=4, and its
    spectra as many again.
    """
    profile = VarianceProfile.uniform(4, 8)
    symbol_block = 2**15

    def peak(oversampling):
        filt = InterpolationFilter.rect(1.0)
        with mock.patch.object(waveform, "_BLOCK_SAMPLES", symbol_block * 4):
            return traced_peak(lambda: estimated_psd(profile, 4096, SEED, 1.0, filt, oversampling))

    assert peak(8) <= peak(4) + 2 * symbol_block * 16


def _nslp_peak_bytes(traced_peak, tmp_path, frames):
    config = presets.preset_config(
        "lte-otfs-nslp", {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": frames}}
    )
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 2**12):  # 16-frame blocks
        return traced_peak(lambda: presets.run_scenario(config, tmp_path / str(frames)))


def test_nslp_runner_memory_does_not_grow_with_frames(traced_peak, tmp_path):
    """16 and 64 precoded blocks peak alike: the leak and the periodogram are taken block by block."""
    assert _nslp_peak_bytes(traced_peak, tmp_path, 1024) <= 1.05 * _nslp_peak_bytes(traced_peak, tmp_path, 256)


_STEADY_PRECODERS = build_precoders(decompose_mask(range(0, 256, 3), 8, 32))


def _random_grids(frames):
    return presets._random_stream(VarianceProfile.uniform(8, 32), frames, SEED, 1.0, "qpsk")


def _precoded_grids(frames):
    return presets._GridSource(
        lambda _: (grids for grids, _ in presets._precoded_blocks(_STEADY_PRECODERS, frames, SEED, "qpsk"))
    )


#: The steady-state gate's 8x32 streams: name -> (grid source of a frame count, DAC, L).
_STEADY_SOURCES = {
    "dirac_delta": (_random_grids, InterpolationFilter.dirac(1.0), 1),
    "rect": (_random_grids, InterpolationFilter.rect(1.0), 4),
    "truncated_sinc": (_random_grids, InterpolationFilter.truncated_sinc(1.0, 4), 2),
    "precoded": (_precoded_grids, InterpolationFilter.dirac(1.0), 1),
}


def _kept_bytes(scratch):
    """The bytes of the batch buffers an averager keeps between batches (``PeriodogramAverager._buffer``)."""
    return sum(array.nbytes for kept in scratch.values() for array in (kept if isinstance(kept, tuple) else (kept,)))


@pytest.mark.parametrize(
    "source, segment_frames",
    [(kind, frames) for kind in ("dirac_delta", "rect", "truncated_sinc") for frames in (1, 8)] + [("precoded", 1)],
)
def test_streamed_estimate_memory_above_its_batch_buffers_is_steady(traced_peak, source, segment_frames):
    """1024 and 4096 frames (2 to 32 blocks), ``_BATCH_SAMPLES`` 2**14, 2**17 and 2**20, blocks drawn inline.

    The whole peak grows with the batch up to a block of rows, which the
    averager keeps between batches (4.3 -> 5.3 MB for the Dirac, 4.8 ->
    12.1 MB for the sinc).  Above those kept buffers the traced peak is the
    same at every batch size and frame count, within 5%: no batch makes a
    temporary of its own size, and no block outlives its fold.
    """
    make, filt, oversampling = _STEADY_SOURCES[source]
    transient = []
    for frames in (1024, 4096):
        for batch in (2**14, 2**17, 2**20):
            made = []

            def averagers(*args, **kwargs):
                made.append(estimate._averagers(*args, **kwargs))
                return made[-1]

            def run():
                presets._streamed_estimates(make(frames), 256, (frames,), 1.0, filt, oversampling, segment_frames)

            with _cpus(1), mock.patch.object(estimate, "_BATCH_SAMPLES", batch), mock.patch.object(
                presets, "_averagers", averagers
            ):
                transient.append(traced_peak(run) - _kept_bytes(made[-1][0]._scratch))
    assert max(transient) <= 1.05 * min(transient)


def _nslp_outputs(config, outdir, block, batch, cpus):
    """The PSD curve and metrics the NSLP preset writes into ``outdir`` with these knob settings."""
    with _cpus(cpus), mock.patch.object(waveform, "_BLOCK_SAMPLES", block), mock.patch.object(
        estimate, "_BATCH_SAMPLES", batch
    ):
        presets.run_scenario(config, outdir)
    metrics = {record["metric"]: record["value"] for record in read_metrics(f"{outdir}/lte_nslp_metrics.json")}
    return read_psd_curve(f"{outdir}/lte_nslp_psd.csv"), metrics


def _assert_nslp_is_the_whole_stream(curve, metrics, config, precoders):
    """Within 1e-12 of the one-shot oracles of ``precoded_stream``: the PSD of its peak, the leak absolutely.

    The oracles are ``periodogram`` of the stream and its ``discrete_spectrum``
    null bins over the payload norms (0.0 when no bin is nulled).  The
    stream goes through the set's matrices (a hand-built set takes the
    matrix path), so a fault of the closed-form synthesis is not in the
    oracle too.  The preset takes both from M-point transforms of the
    grids, not from the frames' M*N-point FFTs, so they agree to rounding.
    """
    by_matrices = PrecoderSet(precoders.mask, precoders.form, precoders.matrices)
    stream, norms = presets.precoded_stream(
        by_matrices, config.num_frames, config.seed, config.sample_interval, config.constellation
    )
    one_shot = periodogram(stream).values
    assert np.abs(curve.values - one_shot).max() <= 1e-12 * one_shot.max()
    null_bins = precoders.mask.null_bins
    leak = np.abs(discrete_spectrum(stream.frames)[:, null_bins]).max(axis=1) / norms if null_bins.size else [0.0]
    assert abs(metrics["worst_null_bin_leak"] - float(np.max(leak))) <= 1e-12


def test_nslp_preset_psd_and_leak_are_those_of_the_whole_stream(tmp_path):
    """8x32, 40 frames: the written PSD and leak are the one-shot stream's, and alike however the run is cut.

    Blocks of 8, 1 and all 40 frames; batches of one frame and of 64; the
    producer thread and inline: the same bytes and the same leak each time.
    """
    overrides = {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": 40}}
    config = presets.preset_config("lte-otfs-nslp", overrides)
    runs = [
        _nslp_outputs(config, tmp_path / str(index), *knobs)
        for index, knobs in enumerate([(2**11, 2**14, 2), (2**8, 1, 2), (2**17, 2**14, 1), (2**11, 2**8, 1)])
    ]
    curve, metrics = runs[0]
    for other, other_metrics in runs[1:]:
        assert other.values.tobytes() == curve.values.tobytes()
        assert other_metrics == metrics
    assert metrics["worst_null_bin_leak"] > 0.0
    _assert_nslp_is_the_whole_stream(curve, metrics, config, build_precoders(config.mask(), config.precoder_form))


@settings(max_examples=40, deadline=None)
@given(
    grid=st.tuples(st.integers(1, 6), st.integers(1, 24)),
    bands=st.lists(st.tuples(st.floats(-0.6, 0.5), st.floats(0.02, 1.2)), min_size=1, max_size=2),
    form=st.sampled_from(PRECODER_FORMS),
    frames=st.integers(1, 14),
    block=st.integers(1, 5),
    batch=st.integers(1, 2**9),
    cpus=st.sampled_from([1, 2]),
)
@example(grid=(1, 97), bands=[(-0.3, 0.7)], form="null_space", frames=11, block=4, batch=1, cpus=2)  # prime: Bluestein
@example(grid=(3, 41), bands=[(-0.6, 1.2)], form="systematic", frames=7, block=3, batch=200, cpus=2)  # nulls no bin
@example(grid=(5, 12), bands=[(-0.45, 0.3), (0.2, 0.2)], form="systematic", frames=9, block=2, batch=61, cpus=1)
def test_nslp_preset_psd_and_leak_are_those_of_the_whole_stream_on_any_grid(
    grid, bands, form, frames, block, batch, cpus
):
    """Any grid, pass bands (as fractions of the sample rate) and form, blocked, batched and threaded any way.

    The written PSD and leak are those of a run in one block on one CPU, bit
    for bit, and those of the one-shot stream to rounding.  Mixed-radix and
    Bluestein grid sizes; the null-space form takes the closed-form path,
    the systematic form its matrices.
    """
    (num_delay, num_doppler), rate = grid, 30.72e6
    overrides = {
        "grid": {"num_delay": num_delay, "num_doppler": num_doppler},
        "stream": {"num_frames": frames},
        "mask": {"pass_bands_hz": [[lo * rate, (lo + width) * rate] for lo, width in bands]},
        "precoder": {"form": form},
    }
    try:
        config = presets.preset_config("lte-otfs-nslp", overrides)
        precoders = build_precoders(config.mask(), form)
    except (ConfigurationError, SystematicInfeasibleError):  # a band holding no bin, an ill-conditioned form
        reject()
    assume(precoders.total_payload > 0)
    with tempfile.TemporaryDirectory() as outdir:
        curve, metrics = _nslp_outputs(config, f"{outdir}/one", 2**17, 2**14, 1)
        cut, cut_metrics = _nslp_outputs(config, f"{outdir}/cut", block * num_delay * num_doppler, batch, cpus)
    assert cut.values.tobytes() == curve.values.tobytes()
    assert cut_metrics == metrics
    _assert_nslp_is_the_whole_stream(curve, metrics, config, precoders)


@pytest.mark.parametrize(
    "filt, oversampling, segment_frames, views",
    [
        (InterpolationFilter.truncated_sinc(1.0, 4), 2, 1, (None,)),
        (InterpolationFilter.dirac(1.0), 1, 2, (None,)),
        (InterpolationFilter.rect(1.0), 2, 1, (None, 0)),
    ],
)
def test_grids_without_frames_are_refused_by_estimates_that_take_frames(filt, oversampling, segment_frames, views):
    """The sinc, multi-frame segments and CEP views read frames: grids that give none are refused before one is made."""
    source = presets._GridSource(mock.Mock(side_effect=AssertionError("made a grid")))
    with pytest.raises(ValueError, match="give no frames"):
        presets._streamed_estimates(source, 4, (4,), 1.0, filt, oversampling, segment_frames, views)


def _counting_transforms(counts):
    """Patches of ``np.fft.fft`` and ``np.fft.ifft`` that add their rows, by name and length, to ``counts``."""
    lock = threading.Lock()

    def counting(name, transform):
        def counted(a, n=None, axis=-1, norm=None, out=None):
            a = np.asarray(a)
            with lock:
                counts[name, a.shape[axis] if n is None else n] += a.size // a.shape[axis]
            return transform(a, n, axis, norm, out)

        return mock.patch.object(np.fft, name, counted)

    return counting("fft", np.fft.fft), counting("ifft", np.fft.ifft)


def test_each_nslp_frame_takes_one_forward_and_one_inverse_transform(tmp_path):
    """8x32, 40 frames in five 8-frame blocks on the producer thread: one 8-point FFT and IFFT row a subcarrier.

    The inverse makes each grid column from its spectrum row; the forward
    one maps the grid back to its frame's DFT for the averager, whose rows
    the leak check reads as well.  No 256-point row is taken and no frame
    is built (``_otfs_frames`` is never called).
    """
    counts = Counter()
    forward, inverse = _counting_transforms(counts)
    built = AssertionError("built a frame")
    overrides = {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": 40}}
    config = presets.preset_config("lte-otfs-nslp", overrides)
    with _cpus(2), mock.patch.object(waveform, "_BLOCK_SAMPLES", 2**11), forward, inverse, mock.patch.object(
        waveform, "_otfs_frames", side_effect=built
    ), mock.patch.object(presets, "_otfs_frames", side_effect=built):
        presets.run_scenario(config, tmp_path)
    assert counts == {("ifft", 8): 40 * 32, ("fft", 8): 40 * 32}


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_one_frame_rect_estimate_takes_its_spectra_from_the_symbols(cpus):
    """16x128, rect at L=4, 40 frames: one 16-point FFT row a subcarrier and frame, and no frame built.

    No 2048-point row is taken, and ``_otfs_frames`` is never called.  The
    one 8192-point row is the hold's response, taken once by ``result``.
    """
    counts = Counter()
    forward, inverse = _counting_transforms(counts)
    no_frames = mock.patch.object(waveform, "_otfs_frames", side_effect=AssertionError("built a frame"))
    with _cpus(cpus), forward, inverse, no_frames:
        curve = estimated_psd(VarianceProfile.uniform(16, 128), 40, SEED, 1.0, InterpolationFilter.rect(1.0), 4)
    assert curve.meta["num_segments"] == 40
    assert counts == {("fft", 16): 40 * 128, ("fft", 8192): 1}


# ---------------------------------------------------------------------------
# the producer thread that builds the next block
# ---------------------------------------------------------------------------


def _cpus(count):
    return mock.patch.object(fileio, "_cpu_count", lambda: count)


@pytest.mark.parametrize("kind", FILTERS)
def test_the_producer_thread_changes_no_bits(kind):
    """Blocks built inline (one CPU) and on the producer thread: the same bytes, plain and CEP split.

    2x2 frames in blocks of a few frames, over two generation chunks, folded
    in batches of two sizes.  The plain estimate of one-frame segments takes
    rect and the Dirac from the symbols.
    """
    filt, oversampling = FILTERS[kind]
    profile, frames, segment_frames = CASES["multi_chunk"]
    results = []
    for cpus, block, batch in ((1, 2**8, 2**14), (2, 2**8, 2**14), (2, 2**6, 12)):
        with _cpus(cpus), mock.patch.object(waveform, "_BLOCK_SAMPLES", block), mock.patch.object(
            estimate, "_BATCH_SAMPLES", batch
        ), mock.patch.object(threading, "Thread", wraps=threading.Thread) as thread, mock.patch.object(
            presets, "_frame_spectra", wraps=presets._frame_spectra
        ) as mapped:
            curve = estimated_psd(profile, frames, SEED, 1.0, filt, oversampling, segment_frames)
            whole, parts, summed, metrics = _split(CEP_PROFILE, frames, SEED, 1.0, filt, oversampling)
        assert thread.call_count == (0 if cpus == 1 else 2)
        assert mapped.called == (kind != "truncated_sinc")
        results.append(([c.values.tobytes() for c in (curve, whole, *parts, summed)], metrics))
    assert results[0] == results[1] == results[2]


class _LingeringThread(threading.Thread):
    """A thread that stays alive 20 ms after its target returns: only a join waits for it."""

    runs = []

    def run(self):
        self.runs.append(self.name)
        super().run()
        time.sleep(0.02)


def _counting_source(error_at=None, error=None):
    """A 20-frame source in five-frame blocks that raises ``error`` instead of block ``error_at``.

    Returns the source and the list of the block indices at which its
    generators ended.  The source keeps every generator it makes, so only
    an explicit ``close`` ends one early.
    """
    ended, made = [], []

    def run(factor):
        index = -1
        try:
            for index, block in enumerate(stream_chunks(CEP_PROFILE, 20, SEED, 1.0, "qpsk", factor)):
                if index == error_at:
                    raise error
                yield block
        finally:
            ended.append(index)

    def blocks(factor):
        made.append(run(factor))
        return made[-1]

    return blocks, ended


def _estimate_from(blocks, on_spectra=None):
    with _cpus(2), mock.patch.object(waveform, "_BLOCK_SAMPLES", 5 * CEP_PROFILE.sigma2.size), mock.patch.object(
        threading, "Thread", _LingeringThread
    ):
        return presets._streamed_estimates(
            blocks, CEP_PROFILE.sigma2.size, (20,), 1.0, InterpolationFilter.dirac(1.0), 1, 1, (None, 0), on_spectra
        )


def test_no_thread_outlives_an_estimate_that_returns():
    before = threading.active_count()
    blocks, ended = _counting_source()
    runs = len(_LingeringThread.runs)
    [[whole, component]] = _estimate_from(blocks)
    assert ended == [3] and len(_LingeringThread.runs) == runs + 1
    assert threading.active_count() == before
    assert whole.meta["num_segments"] == component.meta["num_segments"] == 20


def test_an_error_of_the_block_source_reaches_the_caller_as_it_is():
    """Raised on the producer thread before the third block: the same object, and no thread left."""
    before = threading.active_count()
    error = ConfigurationError("the third block cannot be drawn")
    blocks, ended = _counting_source(error_at=2, error=error)
    with pytest.raises(ConfigurationError) as caught:
        _estimate_from(blocks)
    assert caught.value is error and ended == [2]
    assert threading.active_count() == before


def test_an_error_of_the_consumer_stops_and_joins_the_producer():
    """The second ``add`` fails: the caller gets its error, and the source is closed mid-stream."""
    before = threading.active_count()
    error = ValueError("the averager cannot take this block")
    adds = []
    add = estimate.PeriodogramAverager.add

    def failing_add(self, samples):
        adds.append(len(samples))
        if len(adds) == 2:
            raise error
        add(self, samples)

    blocks, ended = _counting_source()
    with mock.patch.object(estimate.PeriodogramAverager, "add", failing_add), pytest.raises(ValueError) as caught:
        _estimate_from(blocks)
    assert caught.value is error
    assert ended in ([0], [1])  # closed at the block folded, or at the next if it was being built
    assert threading.active_count() == before


def test_an_error_of_the_spectra_callback_reaches_the_caller_as_it_is():
    """Raised as the second block is folded: the same object, the source closed, and no thread left."""
    before = threading.active_count()
    error = RuntimeError("the leak check fails")
    firsts = []

    def on_spectra(spectra, first):
        firsts.append(first)
        if len(firsts) == 2:
            raise error

    blocks, ended = _counting_source()
    with pytest.raises(RuntimeError) as caught:
        _estimate_from(blocks, on_spectra)
    assert caught.value is error and firsts == [0, 5]
    assert ended in ([1], [2])  # closed at the block folded, or at the next if it was being built
    assert threading.active_count() == before


@pytest.mark.parametrize("kind", ["dirac_delta", "rect"])
@pytest.mark.parametrize("segment_frames", [1, 3])
def test_the_spectra_callback_sees_each_segment_once_in_order_before_squaring(kind, segment_frames):
    """20 frames in five-frame blocks, read at 7 and 13: cuts inside blocks, three-frame segments across them.

    The callback gets the whole stream's raw symbol-rate segment DFTs, bit
    for bit, each once and in order; the CEP view's are not handed on.
    """
    filt, oversampling = FILTERS[kind]
    frame_samples, seen = CEP_PROFILE.sigma2.size, []

    def on_spectra(spectra, first):
        seen.append((first, spectra.copy()))

    blocks = partial(stream_chunks, CEP_PROFILE, 20, SEED, 1.0, "qpsk")
    with _cpus(2), mock.patch.object(waveform, "_BLOCK_SAMPLES", 5 * frame_samples * oversampling):
        *_, [whole, _] = presets._streamed_estimates(
            blocks, frame_samples, (7, 13, 20), 1.0, filt, oversampling, segment_frames, (None, 0), on_spectra
        )
    segments, n = 20 // segment_frames, frame_samples * segment_frames
    frames = generate_random_stream(CEP_PROFILE, 20, SEED, 1.0).frames.ravel()
    assert [first for first, _ in seen] == list(np.cumsum([0] + [len(rows) for _, rows in seen])[:-1])
    rows = np.concatenate([rows for _, rows in seen])
    assert rows.tobytes() == np.fft.fft(frames[: segments * n].reshape(segments, n), axis=1).tobytes()
    assert whole.meta["num_segments"] == segments


def test_prefetched_items_arrive_in_order_under_frequent_thread_switches():
    """A switch every microsecond: 2000 items in order, and a close at any point leaves no thread."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cpus(2):
            assert list(presets._prefetched(item for item in range(2000))) == list(range(2000))
            for last in (0, 1, 7, 500):
                before = threading.active_count()
                taken = []
                with closing(presets._prefetched(item for item in range(2000))) as items:
                    for item in items:
                        taken.append(item)
                        if item == last:
                            break
                assert taken == list(range(last + 1)) and threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("at", ["result", "submit"])
def test_an_interrupt_between_taking_an_item_and_starting_the_next_stops_the_producer(at):
    """Ctrl-C just after the third item is taken, or as the fourth is started: no hang, no thread left.

    The consumer runs on a helper thread joined with a timeout, so a hang
    fails the test rather than stopping the run.
    """
    from concurrent.futures import Future, ThreadPoolExecutor

    calls, ended, outcome = [], [], []
    target = (Future, "result") if at == "result" else (ThreadPoolExecutor, "submit")
    original = getattr(*target)

    def interrupted(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        calls.append(value)
        if len(calls) == 3 + (at == "submit"):
            raise KeyboardInterrupt
        return value

    def source():
        try:
            yield from range(1, 100)
        finally:
            ended.append(True)

    def consume():
        try:
            for _ in presets._prefetched(source()):
                pass
        except KeyboardInterrupt as interrupt:
            outcome.append(interrupt)

    before = threading.active_count()
    with _cpus(2), mock.patch.object(*target, interrupted):
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=10)
    assert not consumer.is_alive()
    assert len(outcome) == 1 and ended == [True]
    assert threading.active_count() == before
