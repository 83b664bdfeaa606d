"""Named end-to-end experiment presets, and the stream pipeline behind them.

Each named preset couples default configuration values with a runner
that writes PSD curves (CSV) and metric records (JSON) sufficient to
re-plot the experiment, and with the config keys that runner reads: a
preset refuses any other given key (``config`` routes them).  Rerunning
a preset with the same configuration reproduces the files byte for
byte, and every file but a written mask embeds the configuration hash.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import io as fileio
from .config import ScenarioConfig, _deep_merge, _routed_configs
from .dac import FILTER_KINDS, InterpolationFilter, check_reconstruction, reconstruct
from .errors import ConfigurationError
from .estimate import PeriodogramAverager, compare_curves
from .precoding import PrecoderSet, _precode_rows, build_precoders, discrete_spectrum
from .psd import PsdCurve, ofdm_psd, otfs_psd
from .waveform import (
    FrameStream,
    VarianceProfile,
    _chunked_frames,
    _draw_symbols,
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


class _BlockDac:
    """The truncated sinc's ``reconstruct`` of a stream pushed in frame blocks, from time zero on.

    Overlap-save block convolution (Crochiere & Rabiner, 1983).  The DAC
    holds a copy of the last ``2*order`` input samples (the history).  Each
    push reconstructs the history and the block as one window and returns
    the dense samples not yet returned whose ``2*order`` taps all lie
    inside the window; the ``order*L`` pre-ring samples before time zero
    are never returned.  ``flush`` reconstructs the history alone and
    returns the samples up to the stream's end, without the post-ring
    after it.  Each returned sample is summed from the same inputs in the
    same order as in the one-shot reconstruction, so the pieces
    concatenate to ``reconstruct(whole_stream).samples[order*L : order*L +
    n*L]`` bit for bit.  A window shorter than the ``2*order`` taps returns
    nothing and becomes the history, because ``np.convolve`` would swap its
    arguments and round its sums differently.
    """

    def __init__(self, filt: InterpolationFilter, oversampling: int) -> None:
        self.filt = filt
        self.oversampling = oversampling
        self.order = int(filt.order)
        self.history = np.zeros(0, dtype=np.complex128)
        self.start = self.order  # leading window samples whose dense rows are dropped or already returned

    def push(self, block: FrameStream) -> np.ndarray:
        window = np.concatenate([self.history, block.frames.ravel()])
        taps = 2 * self.order
        if window.size < taps:
            self.history = window
            return window[:0]
        self.history = window[-taps:].copy()
        dense = reconstruct(window, self.filt, self.oversampling).samples
        start, self.start = self.start, taps
        return dense[start * self.oversampling : window.size * self.oversampling]

    def flush(self) -> np.ndarray:
        dense = reconstruct(self.history, self.filt, self.oversampling).samples
        return dense[self.start * self.oversampling : (self.history.size + self.order) * self.oversampling]


def _streamed_estimates(
    profile: VarianceProfile,
    num_frames: int,
    seed: int,
    sample_interval: float,
    filt: InterpolationFilter,
    oversampling: int,
    segment_frames: int,
    constellation: str,
    views: Sequence[Optional[int]] = (None,),
) -> List[PsdCurve]:
    """Averaged periodograms of views of one random OTFS stream, in one pass.

    A view is ``None`` for the stream itself or a delay index ``l`` for its
    CEP component ``cep_component_stream(stream, l)``.  The arguments are
    checked as ``reconstruct`` checks them before any symbol is drawn.  The
    stream is drawn once, in ``stream_chunks`` frame blocks, and each block
    of each view goes to that view's ``PeriodogramAverager``:

    * dirac_delta and rect are memoryless, so a block's frames go in as
      they are, to an averager with ``hold=L`` (1 for the Dirac) that
      applies the zero-order hold's response once, to the accumulated
      sum, and no dense sample is built;
    * the truncated sinc rings across blocks, so each block is pushed
      through the view's ``_BlockDac`` and every DAC is flushed at the
      end.

    Memory is bounded by one block, not by ``num_frames``: between blocks
    a view holds only its averager and, for the sinc, its DAC's last
    ``2*order`` input samples, so only the view being pushed holds a
    reconstruction.  A memoryless block holds at least the symbols of a
    dense block at L = 4.  The estimate is that of
    ``periodogram(reconstruct(view))``, the stream's span without the
    truncated sinc's pre- and post-ring: bit for bit for dirac_delta and
    the sinc, to rounding for rect (whose dense DFTs are never taken).
    """
    oversampling = check_reconstruction(filt, oversampling, sample_interval)
    segment_len = profile.num_delay * profile.num_doppler * oversampling * segment_frames
    rate = oversampling / sample_interval
    sinc = filt.kind == "truncated_sinc"
    dacs = [_BlockDac(filt, oversampling) for _ in views] if sinc else []
    averagers = [PeriodogramAverager(segment_len, rate, hold=1 if sinc else oversampling) for _ in views]
    # A memoryless DAC builds no dense sample, so its blocks need not shrink with L: they keep
    # the 2**16 symbols of a dense block at L = 4 (at L = 64 a 16x128 dense block is 2 frames).
    block_oversampling = oversampling if sinc else min(oversampling, 4)
    for block in stream_chunks(
        profile, num_frames, seed, sample_interval, constellation, oversampling=block_oversampling
    ):
        for i, l in enumerate(views):
            view = block if l is None else cep_component_stream(block, l)
            averagers[i].add(dacs[i].push(view) if sinc else view.frames)
    for dac, averager in zip(dacs, averagers):
        averager.add(dac.flush())
    return [averager.result() for averager in averagers]


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
    """Generate, reconstruct, and periodogram-average an OTFS stream.

    The one-view case of ``_streamed_estimates`` (the CEP split adds the
    M component views): memory is bounded by the frame block, and the
    estimate is that of
    ``periodogram(reconstruct(generate_random_stream(...)))``, bit for bit
    for dirac_delta and the truncated sinc, to rounding for rect.
    """
    (curve,) = _streamed_estimates(
        profile, num_frames, seed, sample_interval, filt, oversampling, segment_frames, constellation
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
    num_frames: int,
    seed: int,
    sample_interval: float,
    filt: InterpolationFilter,
    oversampling: int,
    segment_frames: int,
    constellation: str,
) -> Tuple[PsdCurve, List[PsdCurve], PsdCurve, Dict[str, float]]:
    """Estimated PSDs of an OTFS stream and of its M per-delay CEP components.

    One pass of ``_streamed_estimates`` over the stream and its M component
    views: each frame block feeds M+1 averagers (for the sinc through M+1
    ``_BlockDac``s, which keep no reconstruction between pushes).  Returns the
    whole-stream curve, the component curves, their sum, and the
    NMSE/cosine of the sum against the whole over the Nyquist band.
    """
    whole, *parts = _streamed_estimates(
        profile, num_frames, seed, sample_interval, filt, oversampling, segment_frames,
        constellation, views=(None, *range(profile.num_delay)),
    )
    summed = np.zeros_like(whole.values)
    for part in parts:
        summed += part.values
    sum_curve = PsdCurve(whole.freqs, summed, "absolute", dict(whole.meta))
    nyquist = 0.5 / sample_interval
    return whole, parts, sum_curve, compare_curves(sum_curve, whole, band=(-nyquist, nyquist))


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
    (``precoding._precode_rows``).
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
    draw = lambda rng, count: _draw_symbols(rng, (count, total), points)
    for payload, frames in _chunked_frames(num_frames, seed, draw, mask.num_bins, to_grid):
        block = FrameStream(frames, mask.num_delay, mask.num_doppler, sample_interval, seed)
        yield block, np.linalg.norm(payload, axis=1)


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
    whole, parts, sum_curve, comparison = _cep_split(*config.estimate_args())
    files = {"otfs": str(_write_curve(outdir, "cep_split_otfs.csv", whole, cfg_hash))}
    for l, part in enumerate(parts):
        files[f"component_{l}"] = str(_write_curve(outdir, f"cep_split_component_{l}.csv", part, cfg_hash))
    files["component_sum"] = str(_write_curve(outdir, "cep_split_sum.csv", sum_curve, cfg_hash))
    metrics = fileio.metric_records(sorted((f"sum_vs_whole_{k}", v) for k, v in comparison.items()), cfg_hash)
    files["metrics"] = str(fileio.write_metrics(outdir / "cep_split_metrics.json", metrics))
    return {"files": files, "metrics": metrics}


def cep_sum_match(
    profile: VarianceProfile,
    num_frames: int,
    seed: int,
    sample_interval: float,
    filt: InterpolationFilter,
    oversampling: int,
    constellation: str = "qpsk",
) -> Dict[str, float]:
    """NMSE/cosine between the whole-stream PSD and the summed component PSDs."""
    split = _cep_split(profile, num_frames, seed, sample_interval, filt, oversampling, 1, constellation)
    return split[3]


def _run_cep_convergence(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    profile = config.profile()
    cfg_hash = config.hash()
    filt = config.interpolation_filter()
    rows = []
    for count in config.frame_counts or (100, 1000, 10000):
        result = cep_sum_match(
            profile, count, config.seed, config.sample_interval, filt, config.oversampling,
            config.constellation,
        )
        rows.append((count, result["nmse_db"], result["cosine_similarity"]))
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
    # Block by block: the worst masked-bin leak, and the one-frame-segment
    # periodogram (the averager is chunking-invariant, bit for bit).
    averager = PeriodogramAverager(mask.num_bins, 1.0 / config.sample_interval)
    worst_leak = 0.0
    for block, payload_norms in _precoded_blocks(
        precoders, config.num_frames, config.seed, config.sample_interval, config.constellation
    ):
        if mask.null_bins.size:
            spectra = discrete_spectrum(block.frames)  # the array: a one-frame block stays 2-D
            leak = np.abs(spectra[:, mask.null_bins]).max(axis=1) / payload_norms
            worst_leak = max(worst_leak, float(leak.max()))
        averager.add(block.frames)
    curve = averager.result()
    # Periodogram bins are exactly the spectrum bins (segment = one frame):
    # shift the natural-order null set onto the centered grid, as the averager does.
    nulled_centered = np.fft.fftshift(~mask.kept.T.ravel())  # natural order: bin m*N + k
    in_mean = float(curve.values[~nulled_centered].mean())
    out_max = float(curve.values[nulled_centered].max(initial=0.0))
    ratio = in_mean / out_max if out_max > 0.0 else np.inf
    suppression_db = min(float(10 * np.log10(ratio)), _SUPPRESSION_CEILING_DB)

    header = {"config_hash": cfg_hash}
    files = {
        "psd": str(_write_curve(outdir, "lte_nslp_psd.csv", curve, cfg_hash)),
        "precoders": str(fileio.write_precoder_set(outdir / "lte_nslp_precoders.csv", precoders, header)),
        "mask": str(fileio.write_mask(outdir / "lte_nslp_mask.json", mask, config.sample_interval)),
    }
    metrics = fileio.metric_records(
        [
            ("payload_dimensions", float(precoders.total_payload)),
            ("suppression_db", suppression_db),
            ("worst_null_bin_leak", worst_leak),
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
