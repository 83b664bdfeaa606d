"""Named end-to-end experiment presets, and the stream pipeline behind them.

Each named preset couples default configuration values with a runner
that writes PSD curves (CSV) and metric records (JSON) sufficient to
re-plot the experiment, and with the config keys that runner reads: a
preset refuses any other given key (``config`` routes them).  Rerunning
a preset with the same configuration reproduces the files byte for
byte, and every file but a written mask embeds the configuration hash.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Generator, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from . import io as fileio
from .config import ScenarioConfig, _deep_merge, _routed_configs
from .dac import FILTER_KINDS, InterpolationFilter, check_reconstruction
from .errors import ConfigurationError
from .estimate import PeriodogramAverager, _averagers, compare_curves
from .precoding import PrecoderSet, _precode_rows, build_precoders
from .psd import PsdCurve, ofdm_psd, otfs_psd
from .waveform import (
    FrameStream,
    VarianceProfile,
    _chunked_frames,
    _frame_spectra,
    _stream_symbols,
    cep_component_stream,
    constellation_points,
    stream_chunks,
)

__all__ = [
    "ScenarioConfig",
    "PRESET_NAMES",
    "preset_config",
    "run_scenario",
    "run_presets",
    "estimated_psd",
    "precoded_stream",
]


# ---------------------------------------------------------------------------
# stream-level helpers shared by presets, the CLI, and the acceptance tests
# ---------------------------------------------------------------------------

_Item = TypeVar("_Item")


def _prefetched(blocks: Generator[_Item, None, None]) -> Iterator[_Item]:
    """The items of ``blocks`` in order, each built on a producer thread while the caller uses the one before.

    numpy's draws, FFTs and ufunc loops release the GIL, so the next item
    is built on a second CPU.  The next item is started only once the
    caller has taken the one before, so two are alive at a time, as when
    one thread uses an item and then builds the next.  An exception raised
    by ``blocks`` reaches the caller as it is.  When this generator finishes
    or is closed, the thread has been joined and ``blocks`` closed.  No
    item of ``blocks`` may be ``None``.  Where this process may run on one
    CPU only, ``blocks`` is iterated inline: there the thread only adds
    switches, and a sinc estimate pinned to one CPU took about 15% longer.
    """
    if fileio._cpu_count() == 1:
        yield from blocks
        return
    from concurrent.futures import ThreadPoolExecutor

    try:
        with ThreadPoolExecutor(1, thread_name_prefix="frame-block-producer") as producer:
            upcoming = producer.submit(next, blocks, None)
            while (item := upcoming.result()) is not None:
                upcoming = producer.submit(next, blocks, None)
                yield item
    finally:  # the ``with`` has joined the thread, so ``blocks`` is not running
        blocks.close()


@dataclass(frozen=True)
class _RandomStream:
    """A random OTFS stream as a block source of ``_streamed_estimates``, which may take its symbols instead.

    Called with a factor, it is ``stream_chunks`` with these arguments;
    ``symbols`` gives the same blocks' symbols (``waveform._stream_symbols``)
    without building a frame.
    """

    profile: VarianceProfile
    num_frames: int
    seed: int
    sample_interval: float
    constellation: str

    def __call__(self, oversampling: int) -> Generator[FrameStream, None, None]:
        return stream_chunks(
            self.profile, self.num_frames, self.seed, self.sample_interval, self.constellation, oversampling
        )

    def symbols(self, oversampling: int) -> Generator[np.ndarray, None, None]:
        return _stream_symbols(self.profile, self.num_frames, self.seed, self.constellation, oversampling)


def _streamed_estimates(
    blocks: Callable[[int], Generator[FrameStream, None, None]],
    frame_samples: int,
    frame_counts: Sequence[int],
    sample_interval: float,
    filt: InterpolationFilter,
    oversampling: int,
    segment_frames: int,
    views: Sequence[Optional[int]] = (None,),
    on_spectra: Optional[Callable[[np.ndarray, int], None]] = None,
) -> List[List[PsdCurve]]:
    """Averaged periodograms of views of a stream of frame blocks at each of ``frame_counts``, in one pass.

    ``blocks(min(L, 4))`` yields the frame blocks (``stream_chunks`` sizes
    them for that L) of ``frame_samples`` samples a frame.  It runs on the
    producer thread of ``_prefetched``, joined before this returns or
    raises.  A view is ``None`` for the stream or a delay index ``l`` for
    its CEP component ``cep_component_stream(stream, l)``.  The arguments
    are checked as ``reconstruct`` checks them before any block is drawn.
    Each view's averager carries the DAC and takes the blocks at the symbol
    rate, cut only where a count falls inside.  The curves at a count are
    those of a pass over that many frames: the estimate of
    ``periodogram(reconstruct(view))`` without the sinc's pre- and
    post-ring, bit for bit for dirac_delta, to rounding for rect and the sinc.
    ``on_spectra`` becomes the whole-stream view's
    ``PeriodogramAverager._on_spectra``: it is handed that view's segment
    DFTs on this thread.

    The one-frame periodogram of a random stream (``_RandomStream``), as
    its only view, through a memoryless DAC (dirac_delta, rect) and with no
    ``on_spectra``, is taken from the symbols:
    the producer draws each block's symbols, this thread maps them in place
    to their frames' DFTs (``waveform._frame_spectra``, an M-point FFT a
    subcarrier) and the averager folds those rows
    (``PeriodogramAverager._add_spectra``), so no frame and no M*N-point
    FFT is made.  Its curves are within 1e-12 of the peak of the one-shot
    estimate, and bit for bit alike under any blocking, batch size and CPU
    count, as the time path's are.
    """
    oversampling = check_reconstruction(filt, oversampling, sample_interval)
    segment_len = frame_samples * oversampling * segment_frames
    order = int(filt.order) if filt.kind == "truncated_sinc" else 0
    averagers = _averagers(len(views), segment_len, oversampling / sample_interval, oversampling, order)
    if on_spectra is not None:
        averagers[views.index(None)]._on_spectra = on_spectra
    # The one place the path is chosen: only here does a run draw symbols and build no frame.
    from_symbols = (
        isinstance(blocks, _RandomStream) and order == 0 and segment_frames == 1 and tuple(views) == (None,)
        and on_spectra is None
    )
    snapshots: Dict[int, List[PsdCurve]] = {}
    done = 0

    def fold(averager: PeriodogramAverager, rows: np.ndarray, cuts: List[int]) -> None:
        # A view's frames are dropped on return, before the next view's are made.
        add = averager._add_spectra if from_symbols else averager.add
        pieces = np.split(rows, cuts) if cuts else [rows]
        for cut, piece in zip(cuts, pieces):  # ``result`` leaves the averager as it is
            add(piece)
            snapshots.setdefault(done + cut, []).append(averager.result())
        if len(pieces[-1]):
            add(pieces[-1])

    source = blocks.symbols if from_symbols else blocks
    sigma = np.sqrt(blocks.profile.sigma2) if from_symbols else None
    with closing(_prefetched(source(min(oversampling, 4)))) as stream:
        for block in stream:
            cuts = sorted({count - done for count in frame_counts if done < count <= done + len(block)})
            if from_symbols:  # symbols drawn on the producer thread, transformed in place on this one
                fold(averagers[0], _frame_spectra(block, sigma, out=block.transpose(0, 2, 1)), cuts)
            else:
                for averager, l in zip(averagers, views):
                    fold(averager, block.frames if l is None else cep_component_stream(block, l).frames, cuts)
            done += len(block)
            del block  # not alive while the next block is drawn
    return [snapshots[count] for count in frame_counts]


def estimated_psd(
    profile: VarianceProfile,
    num_frames: int,
    seed: int,
    sample_interval: float,
    filt: InterpolationFilter,
    oversampling: int,
    segment_frames: int = 1,
    constellation: str = "qpsk",
) -> PsdCurve:
    """Averaged periodogram of a random OTFS stream through the DAC ``filt`` at ``oversampling``.

    The one-view case of ``_streamed_estimates`` (the CEP split adds the M
    component views): memory is bounded by the frame block, and the estimate
    is that of ``periodogram(reconstruct(generate_random_stream(...)))``.
    """
    [[curve]] = _streamed_estimates(
        _RandomStream(profile, num_frames, seed, sample_interval, constellation),
        profile.num_delay * profile.num_doppler, (num_frames,), sample_interval, filt, oversampling,
        segment_frames,
    )
    meta = dict(curve.meta)
    meta.update(
        {
            "num_delay": profile.num_delay,
            "num_doppler": profile.num_doppler,
            "sample_interval": sample_interval,
            "filter": filt.describe(),
            "waveform": "otfs",
            "num_frames": num_frames,
        }
    )
    return PsdCurve(curve.freqs, curve.values, curve.normalization, meta)


def _cep_split(
    profile: VarianceProfile,
    frame_counts: Sequence[int],
    seed: int,
    sample_interval: float,
    filt: InterpolationFilter,
    oversampling: int,
    segment_frames: int,
    constellation: str,
) -> List[Tuple[PsdCurve, List[PsdCurve], PsdCurve, Dict[str, float]]]:
    """Estimated PSDs of an OTFS stream and of its M per-delay CEP components, at each of ``frame_counts``.

    One pass of ``_streamed_estimates`` to ``max(frame_counts)`` frames
    over the stream and its M component views.  Per count: the
    whole-stream curve, the component curves, their sum, and the
    NMSE/cosine of the sum against the whole over the Nyquist band.
    """
    splits, nyquist = [], 0.5 / sample_interval
    for whole, *parts in _streamed_estimates(
        _RandomStream(profile, max(frame_counts), seed, sample_interval, constellation),
        profile.num_delay * profile.num_doppler, frame_counts, sample_interval, filt, oversampling,
        segment_frames, views=(None, *range(profile.num_delay)),
    ):
        summed = np.zeros_like(whole.values)
        for part in parts:
            summed += part.values
        sum_curve = PsdCurve(whole.freqs, summed, "absolute", dict(whole.meta))
        splits.append((whole, parts, sum_curve, compare_curves(sum_curve, whole, band=(-nyquist, nyquist))))
    return splits


def _precoded_blocks(
    precoders: PrecoderSet, num_frames: int, seed: int, sample_interval: float, constellation: str
) -> Iterator[Tuple[FrameStream, np.ndarray]]:
    """Random-payload OTFS frames through a precoder set, block by block.

    Yields each frame block (``waveform._chunked_frames``) with the
    Euclidean norm of each of its frames' payload vectors.  Payload draws
    follow the same fixed-chunk Philox indexing as plain stream generation.
    A set with ``spectral_bins`` is synthesized in closed form: the payload
    placed on those bins is the frame's unitary spectrum, so one inverse FFT
    makes the frame.  Any other set goes through its matrices
    (``precoding._precode_rows``).  A frame count below 1 and a mask that
    leaves no payload are refused by the call, before any block is drawn.
    """
    if num_frames < 1:
        raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
    mask = precoders.mask
    total = precoders.total_payload
    if total == 0:
        raise ConfigurationError("the mask leaves no payload dimensions at all")

    def scattered(payload: np.ndarray) -> np.ndarray:
        # The spectra as one-row grids: OTFS-modulating a 1 x MN grid is the
        # inverse DFT of its row, so ``_chunked_frames`` makes the frames.
        spectra = np.zeros((len(payload), 1, mask.num_bins), dtype=np.complex128)
        spectra[:, 0, precoders.spectral_bins] = payload
        return spectra

    to_grid = partial(_precode_rows, precoders) if precoders.spectral_bins is None else scattered
    points = constellation_points(constellation)
    return (
        (FrameStream(frames, mask.num_delay, mask.num_doppler, sample_interval, seed), np.linalg.norm(payload, axis=1))
        for payload, frames in _chunked_frames(num_frames, seed, points, (total,), mask.num_bins, to_grid=to_grid)
    )


def precoded_stream(
    precoders: PrecoderSet,
    num_frames: int,
    seed: int,
    sample_interval: float = 1.0,
    constellation: str = "qpsk",
) -> Tuple[FrameStream, np.ndarray]:
    """Random-payload OTFS stream through a precoder set.

    Returns the modulated stream and the Euclidean norm of each frame's
    payload vector: the ``_precoded_blocks`` concatenated.  Payload draws
    follow the same fixed-chunk Philox indexing as plain stream generation,
    so runs are reproducible and prefix-stable in ``num_frames``.
    """
    blocks, norms = zip(*_precoded_blocks(precoders, num_frames, seed, sample_interval, constellation))
    stream = replace(blocks[0], frames=np.concatenate([block.frames for block in blocks]))
    return stream, np.concatenate(norms)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_LTE_RATE = 30.72e6
_LTE_OCCUPIED = 1201

#: The most out-of-band suppression the NSLP preset reports: 10*log10(1/eps), 156.5 dB.
#: An exactly nulled bin holds FFT rounding residue, about eps**2 of the in-band
#: power times a factor growing with the frame length, which reads 280-313 dB
#: and moves with any change in rounding; this ceiling stays below it.
_SUPPRESSION_CEILING_DB = float(10 * np.log10(1 / np.finfo(np.float64).eps))


def _write_curve(outdir: Path, name: str, curve: PsdCurve, cfg_hash: str) -> Path:
    return fileio.write_psd_curve(outdir / name, curve, extra_header={"config_hash": cfg_hash})


def _run_analytic_family(
    config: ScenarioConfig, outdir: Path, waveform: str
) -> Dict[str, object]:
    """Analytic PSD curves for all three filter kinds on one profile."""
    profile = config.profile()
    cfg_hash = config.hash()
    freqs = config.freq_grid()
    files = {}
    for kind in FILTER_KINDS:
        filt = InterpolationFilter(kind, config.sample_interval, config.filter_order)
        if waveform == "otfs":
            curve = otfs_psd(profile, config.sample_interval, filt, freqs)
        else:
            curve = ofdm_psd(profile, config.sample_interval, filt, freqs)
        files[kind] = _write_curve(outdir, f"{config.preset}_{kind}.csv", curve, cfg_hash)
    return {"files": {k: str(v) for k, v in files.items()}, "metrics": []}


def _run_lte_ofdm(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    profile = config.profile()
    cfg_hash = config.hash()
    spacing = config.sample_rate / config.num_doppler
    occupied = int(np.count_nonzero(profile.sigma2.any(axis=0)))
    report = {
        "subcarrier_spacing_hz": spacing,
        "occupied_subcarriers": occupied,
        "guard_subcarriers": config.num_doppler - occupied,
        "occupied_bandwidth_hz": occupied * spacing,
        "sample_rate_hz": config.sample_rate,
        "config_hash": cfg_hash,
    }
    report_path = fileio.write_json(outdir / "lte_ofdm_bandwidth.json", report)
    filt = InterpolationFilter("dirac_delta", config.sample_interval)
    curve = ofdm_psd(profile, config.sample_interval, filt, config.freq_grid())
    curve_path = _write_curve(outdir, "lte_ofdm_psd.csv", curve, cfg_hash)
    return {
        "files": {"bandwidth_report": str(report_path), "psd": str(curve_path)},
        "metrics": fileio.metric_records([("occupied_bandwidth_hz", occupied * spacing)], cfg_hash),
        "report": report,
    }


def _run_lte_pattern(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    profile = config.profile()
    cfg_hash = config.hash()
    filt = config.interpolation_filter()
    freqs = config.freq_grid()
    analytic = otfs_psd(profile, config.sample_interval, filt, freqs)
    estimated = estimated_psd(*config.estimate_args())
    comparison = compare_curves(estimated, analytic)
    files = {
        "analytic": str(_write_curve(outdir, f"{config.preset}_analytic.csv", analytic, cfg_hash)),
        "estimated": str(_write_curve(outdir, f"{config.preset}_estimated.csv", estimated, cfg_hash)),
    }
    metrics = fileio.metric_records(sorted(comparison.items()), cfg_hash)
    files["metrics"] = str(fileio.write_metrics(outdir / f"{config.preset}_metrics.json", metrics))
    return {"files": files, "metrics": metrics}


def _run_cep_split(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    cfg_hash = config.hash()
    profile, num_frames, *args = config.estimate_args()
    [(whole, parts, sum_curve, comparison)] = _cep_split(profile, (num_frames,), *args)
    files = {"otfs": str(_write_curve(outdir, "cep_split_otfs.csv", whole, cfg_hash))}
    for l, part in enumerate(parts):
        files[f"component_{l}"] = str(_write_curve(outdir, f"cep_split_component_{l}.csv", part, cfg_hash))
    files["component_sum"] = str(_write_curve(outdir, "cep_split_sum.csv", sum_curve, cfg_hash))
    metrics = fileio.metric_records(sorted((f"sum_vs_whole_{k}", v) for k, v in comparison.items()), cfg_hash)
    files["metrics"] = str(fileio.write_metrics(outdir / "cep_split_metrics.json", metrics))
    return {"files": files, "metrics": metrics}


def _run_cep_convergence(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    cfg_hash = config.hash()
    counts = config.frame_counts or (100, 1000, 10000)
    splits = _cep_split(
        config.profile(), counts, config.seed, config.sample_interval, config.interpolation_filter(),
        config.oversampling, 1, config.constellation,
    )
    rows = [(count, split[3]["nmse_db"], split[3]["cosine_similarity"]) for count, split in zip(counts, splits)]
    table = fileio.write_convergence_table(outdir / "cep_convergence.csv", rows, {"config_hash": cfg_hash})
    metrics = fileio.metric_records(
        [(f"{name}_at_{count}", value) for count, nmse, cosine in rows
         for name, value in (("nmse_db", nmse), ("cosine", cosine))],
        cfg_hash,
    )
    metrics_path = fileio.write_metrics(outdir / "cep_convergence_metrics.json", metrics)
    return {"files": {"table": str(table), "metrics": str(metrics_path)}, "metrics": metrics}


def _run_lte_nslp(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    cfg_hash = config.hash()
    mask = config.mask()
    if mask is None:
        raise ConfigurationError("the NSLP preset needs a mask section")
    precoders = build_precoders(mask, config.precoder_form)
    blocks = _precoded_blocks(precoders, config.num_frames, config.seed, config.sample_interval, config.constellation)
    norms: Dict[int, float] = {}  # the payload norm of each frame made and not yet checked, by index
    leak, scale = 0.0, 1 / np.sqrt(mask.num_bins)
    # Rows checked at a time: their gathered null bins stay near 2**8 values, small beside the producer's block
    # however the two threads line up.
    rows = max(1, 2**8 // max(1, mask.null_bins.size))

    def normed(_) -> Generator[FrameStream, None, None]:
        # The precoded blocks (sized for L = 1, the factor asked), each frame's payload norm recorded before its
        # block is passed on.
        made = 0
        for block, payload_norms in blocks:
            norms.update(enumerate(payload_norms.tolist(), made))
            made += len(block)
            yield block

    def check_leak(spectra: np.ndarray, first: int) -> None:
        # The averager's DFTs of frames ``first`` on (a segment is one frame), scaled before ``abs`` as
        # ``discrete_spectrum``'s unitary FFT scales them: its null-bin values, bit for bit.
        nonlocal leak
        for lo in range(0, len(spectra), rows):
            nulled = spectra[lo : lo + rows, mask.null_bins]
            nulled *= scale
            payload_norms = np.array([norms.pop(frame) for frame in range(first + lo, first + lo + len(nulled))])
            leak = max(leak, float((np.abs(nulled).max(axis=1, initial=0.0) / payload_norms).max()))

    header = {"config_hash": cfg_hash}
    # The precoder dump does not depend on the estimate: its writers fork now (``io._start_table``), after a mask
    # leaving no payload has been refused and before ``_streamed_estimates`` starts its producer thread, since a
    # fork copies only the forking thread.  They format while the estimate runs, and the dump is joined after it;
    # an exception in between, Ctrl-C included, kills them and leaves no precoder file.
    with fileio._start_precoder_set(outdir / "lte_nslp_precoders.csv", precoders, header) as write_precoders:
        # The one-frame-segment periodogram: the precoded frames are the Dirac DAC's input at L = 1.
        [[curve]] = _streamed_estimates(
            normed, mask.num_bins, (config.num_frames,), config.sample_interval,
            InterpolationFilter.dirac(config.sample_interval), 1, 1, on_spectra=check_leak,
        )
        psd_path = _write_curve(outdir, "lte_nslp_psd.csv", curve, cfg_hash)
        precoders_path = write_precoders()
    # Periodogram bins are exactly the spectrum bins (segment = one frame):
    # shift the natural-order null set onto the centered grid, as the averager does.
    nulled_centered = np.fft.fftshift(~mask.kept.T.ravel())  # natural order: bin m*N + k
    in_mean = float(curve.values[~nulled_centered].mean())
    out_max = float(curve.values[nulled_centered].max(initial=0.0))
    ratio = in_mean / out_max if out_max > 0.0 else np.inf
    suppression_db = min(float(10 * np.log10(ratio)), _SUPPRESSION_CEILING_DB)

    files = {
        "psd": str(psd_path),
        "precoders": str(precoders_path),
        "mask": str(fileio.write_mask(outdir / "lte_nslp_mask.json", mask, config.sample_interval)),
    }
    metrics = fileio.metric_records(
        [
            ("payload_dimensions", float(precoders.total_payload)),
            ("suppression_db", suppression_db),
            ("worst_null_bin_leak", leak),
        ],
        cfg_hash,
    )
    files["metrics"] = str(fileio.write_metrics(outdir / "lte_nslp_metrics.json", metrics))
    return {"files": files, "metrics": metrics}


@dataclass(frozen=True)
class _Preset:
    """A named experiment: its default config, its runner, and the config keys the runner reads.

    ``reads`` holds key names and whole sections (``"grid"`` is every
    ``grid.*`` key), each of which shapes some artifact.  Unread keys in
    the defaults stay, because the config hash covers them.
    """

    name: str
    description: str
    defaults: Dict[str, object]
    runner: Callable[[ScenarioConfig, Path], Dict[str, object]]
    reads: Tuple[str, ...]


def _example_grid(points: int = 4096) -> Dict[str, object]:
    return {
        "grid": {"num_delay": 4, "num_doppler": 8, "sample_interval": 1.0},
        "psd": {"num_points": points, "band": [-1.5, 1.5]},
    }


PRESETS: Dict[str, _Preset] = {
    preset.name: preset
    for preset in (
        _Preset(
            "example1",
            "analytic OTFS PSDs (all three filters) on the five-active-subcarrier demo grid",
            _deep_merge(
                _example_grid(),
                {
                    "seed": 1,
                    "profile": {"columns": [0, 1, 2, 6, 7]},
                },
            ),
            partial(_run_analytic_family, waveform="otfs"),
            ("grid", "profile", "filter.order", "psd.num_points", "psd.band"),
        ),
        _Preset(
            "example2",
            "analytic OFDM PSDs (all three filters) on a 32-subcarrier band-gap profile",
            {
                "seed": 1,
                "grid": {"num_delay": 1, "num_doppler": 32, "sample_interval": 1.0},
                "psd": {"num_points": 4096, "band": [-1.5, 1.5]},
                "profile": {"columns": list(range(0, 10)) + list(range(22, 32))},
            },
            partial(_run_analytic_family, waveform="ofdm"),
            ("grid", "profile", "filter.order", "psd.num_points", "psd.band"),
        ),
        _Preset(
            "lte-ofdm",
            "LTE 20 MHz OFDM occupancy: 1201 of 2048 subcarriers at 15 kHz",
            {
                "seed": 1,
                "grid": {"num_delay": 1, "num_doppler": 2048, "sample_rate": _LTE_RATE},
                "profile": {"pattern": "head_tail_columns", "budget": _LTE_OCCUPIED},
                "psd": {"num_points": 4096},
            },
            _run_lte_ofdm,
            ("grid", "profile", "psd.num_points", "psd.band"),
        ),
        _Preset(
            "lte-otfs-columns",
            "OTFS 16x128 grid with the 1201-bin head/tail-columns zero setting",
            {
                "seed": 1,
                "grid": {"num_delay": 16, "num_doppler": 128, "sample_rate": _LTE_RATE},
                "profile": {"pattern": "head_tail_columns", "budget": _LTE_OCCUPIED},
                "stream": {"num_frames": 256},
                "psd": {"num_points": 4096},
            },
            _run_lte_pattern,
            ("grid", "profile", "filter", "stream.num_frames", "stream.constellation", "psd"),
        ),
        _Preset(
            "lte-otfs-rows",
            "OTFS 16x128 grid with the 1201-bin head/tail-rows zero setting",
            {
                "seed": 1,
                "grid": {"num_delay": 16, "num_doppler": 128, "sample_rate": _LTE_RATE},
                "profile": {"pattern": "head_tail_rows", "budget": _LTE_OCCUPIED},
                "stream": {"num_frames": 256},
                "psd": {"num_points": 4096},
            },
            _run_lte_pattern,
            ("grid", "profile", "filter", "stream.num_frames", "stream.constellation", "psd"),
        ),
        _Preset(
            "cep-split",
            "estimated OTFS PSD vs its per-delay CEP components on the block-diagonal grid",
            _deep_merge(
                _example_grid(),
                {
                    "seed": 1,
                    "profile": {"pattern": "block_diag_x1"},
                    "filter": {"kind": "truncated_sinc", "order": 50, "oversampling": 2},
                    "stream": {"num_frames": 512},
                },
            ),
            _run_cep_split,
            ("grid", "profile", "filter", "stream.num_frames", "stream.constellation", "psd.segment_frames"),
        ),
        _Preset(
            "cep-convergence",
            "whole-vs-summed-component PSD mismatch shrinking with the frame count",
            _deep_merge(
                _example_grid(),
                {
                    "seed": 1,
                    "profile": {"pattern": "block_diag_x1"},
                    "filter": {"kind": "truncated_sinc", "order": 50, "oversampling": 2},
                    "stream": {"num_frames": 10000, "frame_counts": [100, 1000, 10000]},
                },
            ),
            _run_cep_convergence,
            # NMSE and cosine are ratios of PSDs that scale alike with the sample interval
            ("grid.num_delay", "grid.num_doppler", "profile", "filter", "stream.frame_counts",
             "stream.constellation"),
        ),
        _Preset(
            "lte-otfs-nslp",
            "null-space precoding confining the OTFS spectrum to +/-9 MHz",
            {
                "seed": 1,
                "grid": {"num_delay": 16, "num_doppler": 128, "sample_rate": _LTE_RATE},
                "profile": {"uniform": 1.0},
                "stream": {"num_frames": 256},
                "mask": {"pass_bands_hz": [[-9e6, 9e6]]},
                "precoder": {"form": "null_space"},
                "psd": {"num_points": 2048},
            },
            _run_lte_nslp,
            ("grid", "stream.num_frames", "stream.constellation", "mask", "precoder.form"),
        ),
    )
}

PRESET_NAMES = tuple(sorted(PRESETS))


#: Keys every preset reads besides its ``reads``: where its files go, and its own name.
_RUN_KEYS = ("output.directory", "preset")


def _preset_configs(names: Sequence[str], overrides: dict) -> List[ScenarioConfig]:
    """The configs of a run of the presets ``names``, each with its share of the given ``overrides``.

    ``config._routed_configs`` routes the given keys: each preset takes
    those in its read set and ``_RUN_KEYS``, and a key no preset of the run
    reads is refused.  So is a given ``preset`` naming another preset than
    the one it is run as; a null ``preset`` leaves each preset its own name.
    """
    for name in names:
        if name not in PRESETS:
            raise ConfigurationError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    overrides = {key: value for key, value in overrides.items() if not (key == "preset" and value is None)}
    readers = [
        (name, {**PRESETS[name].defaults, "preset": name}, PRESETS[name].reads + _RUN_KEYS) for name in names
    ]
    who = f"preset {names[0]}" if len(set(names)) == 1 else "any preset of the run"
    configs = _routed_configs(overrides, readers, who)
    for name, config in zip(names, configs):
        if config.preset != name:
            raise ConfigurationError(f"the config names preset {config.preset!r}, but preset {name!r} is run")
        config.profile(), config.mask()  # a grid they do not fit is refused before any preset runs
    return configs


def preset_config(name: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Scenario configuration for a named preset, with optional overrides (see ``_preset_configs``)."""
    return _preset_configs([name], overrides or {})[0]


def run_scenario(config: ScenarioConfig, output_dir: Optional[Union[str, Path]] = None) -> Dict[str, object]:
    """Run a named preset end to end and write its files.

    Returns a manifest with the written file paths and metric records; the
    manifest itself is written alongside the outputs.  Outputs are a pure
    function of the configuration (fixed seed, no wall-clock anywhere), so
    rerunning reproduces them byte for byte.
    """
    if config.preset is None:
        raise ConfigurationError("run_scenario needs a config with a 'preset' field")
    outdir = Path(output_dir) if output_dir is not None else Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    result = PRESETS[config.preset].runner(config, outdir)
    manifest = {
        "preset": config.preset,
        "description": PRESETS[config.preset].description,
        "config_hash": config.hash(),
        **result,
    }
    fileio.write_json(outdir / f"{config.preset}_manifest.json", manifest)
    return manifest


def _run_one(args: Tuple[ScenarioConfig, str]) -> Tuple[str, str]:
    config, outdir = args
    manifest = run_scenario(config, outdir)
    return config.preset, manifest["config_hash"]


def run_presets(
    names: Sequence[str],
    output_dir: Union[str, Path],
    jobs: int = 1,
    overrides: Optional[dict] = None,
) -> List[Tuple[str, str]]:
    """Run several presets, optionally in ``jobs`` (>= 1) parallel worker processes.

    Each given override goes to the presets that read it, and every
    preset's config is validated before any preset runs (``_preset_configs``).
    """
    problems = fileio.rule_problem("jobs", fileio.POSITIVE_INT, jobs)
    if problems:
        raise ConfigurationError(problems[0])
    configs = _preset_configs(names, overrides or {})
    tasks = [(config, str(Path(output_dir) / config.preset)) for config in configs]
    if jobs <= 1 or len(tasks) == 1:
        return [_run_one(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_one, tasks))
