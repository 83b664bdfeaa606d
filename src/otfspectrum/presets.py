"""Scenario configuration and named end-to-end experiment presets.

A scenario is described by a nested key/value configuration (JSON on
disk).  ``ScenarioConfig.from_dict`` validates the whole document at once
and reports every violated constraint in a single error.  Each named
preset couples default configuration values with a runner that writes
PSD curves (CSV) and metric records (JSON) sufficient to re-plot the
experiment; rerunning a preset with the same configuration reproduces
the files byte for byte, and every file embeds the configuration hash.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import io as fileio
from .dac import FILTER_KINDS, InterpolationFilter, reconstruct
from .errors import ConfigurationError
from .estimate import PeriodogramAverager, compare_curves, periodogram
from .patterns import PATTERN_NAMES, builtin_pattern, column_support_profile
from .precoding import PRECODER_FORMS, PrecoderSet, SpectrumMask, build_precoders
from .psd import PsdCurve, ofdm_psd, otfs_psd
from .waveform import (
    CONSTELLATIONS,
    FrameStream,
    VarianceProfile,
    _chunk_rng,
    _CHUNK_FRAMES,
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

_SECTION_KEYS = {
    "grid": {"num_delay", "num_doppler", "sample_interval", "sample_rate"},
    "profile": {"pattern", "budget", "columns", "uniform", "sigma2"},
    "filter": {"kind", "order", "oversampling"},
    "stream": {"num_frames", "constellation", "frame_counts"},
    "psd": {"num_points", "band", "segment_frames"},
    "mask": {"null_bins", "pass_bands_hz", "path"},
    "precoder": {"form"},
    "output": {"directory"},
}
_TOP_KEYS = set(_SECTION_KEYS) | {"preset", "seed"}


def _is_int(value: object) -> bool:
    """A JSON integer; ``True``/``False`` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A finite JSON number (not a bool, not +-Infinity or NaN)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters plus the raw dict they were parsed from."""

    seed: int
    num_delay: int
    num_doppler: int
    sample_interval: float
    sample_rate: float
    profile_spec: Dict[str, object]
    filter_kind: str = "dirac_delta"
    filter_order: int = 50
    oversampling: int = 1
    num_frames: int = 256
    constellation: str = "qpsk"
    frame_counts: Optional[Tuple[int, ...]] = None
    psd_points: int = 4096
    band: Optional[Tuple[float, float]] = None
    segment_frames: int = 1
    mask_spec: Optional[Dict[str, object]] = None
    precoder_form: str = "null_space"
    preset: Optional[str] = None
    output_dir: str = "otfspectrum-out"
    raw: Dict[str, object] = field(default_factory=dict, compare=False)

    # -- resolution helpers -------------------------------------------------

    def profile(self) -> VarianceProfile:
        spec = self.profile_spec
        if "pattern" in spec:
            return builtin_pattern(
                str(spec["pattern"]), self.num_delay, self.num_doppler, spec.get("budget")
            )
        if "columns" in spec:
            return column_support_profile(spec["columns"], self.num_delay, self.num_doppler)
        if "uniform" in spec:
            return VarianceProfile.uniform(self.num_delay, self.num_doppler, float(spec["uniform"]))
        return VarianceProfile(np.asarray(spec["sigma2"], dtype=np.float64))

    def interpolation_filter(self) -> InterpolationFilter:
        return InterpolationFilter(self.filter_kind, self.sample_interval, self.filter_order)

    def estimate_args(self) -> tuple:
        """The positional arguments of ``estimated_psd`` (and of the CEP split) for this scenario."""
        return (
            self.profile(), self.num_frames, self.seed, self.sample_interval,
            self.interpolation_filter(), self.oversampling, self.segment_frames, self.constellation,
        )

    def mask(self) -> Optional[SpectrumMask]:
        if self.mask_spec is None:
            return None
        spec = dict(self.mask_spec)
        if "path" in spec:
            mask = fileio.load_mask(spec["path"])
            if (mask.num_delay, mask.num_doppler) != (self.num_delay, self.num_doppler):
                raise ConfigurationError(
                    f"mask file grid {mask.num_delay}x{mask.num_doppler} does not match "
                    f"scenario grid {self.num_delay}x{self.num_doppler}"
                )
            return mask
        spec.setdefault("num_delay", self.num_delay)
        spec.setdefault("num_doppler", self.num_doppler)
        spec.setdefault("sample_interval", self.sample_interval)
        return fileio.load_mask(spec)

    def freq_grid(self) -> np.ndarray:
        lo, hi = self.band if self.band is not None else (-0.5 * self.sample_rate, 0.5 * self.sample_rate)
        return np.linspace(lo, hi, self.psd_points, endpoint=False)

    def hash(self) -> str:
        hashable = {k: v for k, v in self.raw.items() if k != "output"}
        return fileio.config_hash(hashable)

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "ScenarioConfig":
        problems: List[str] = []

        unknown_top = sorted(set(raw) - _TOP_KEYS)
        if unknown_top:
            problems.append(f"unknown top-level keys: {unknown_top}")
        for section, allowed in _SECTION_KEYS.items():
            body = raw.get(section)
            if body is None:
                continue
            if not isinstance(body, dict):
                problems.append(f"section {section!r} must be a table of key/value pairs")
                continue
            unknown = sorted(set(body) - allowed)
            if unknown:
                problems.append(f"unknown keys in section {section!r}: {unknown}")

        def section(name: str) -> dict:
            body = raw.get(name)
            return body if isinstance(body, dict) else {}

        grid, prof, filt = section("grid"), section("profile"), section("filter")
        stream, psd_sec = section("stream"), section("psd")

        seed = raw.get("seed")
        if seed is None:
            problems.append("a 'seed' field is required (wall-clock seeding is not supported)")
        elif not _is_int(seed):
            problems.append(f"'seed' must be an integer, got {seed!r}")

        num_delay = grid.get("num_delay")
        num_doppler = grid.get("num_doppler")
        for label, value in (("grid.num_delay", num_delay), ("grid.num_doppler", num_doppler)):
            if not _is_int(value) or value < 1:
                problems.append(f"{label} must be an integer >= 1, got {value!r}")

        interval, rate = grid.get("sample_interval"), grid.get("sample_rate")
        if interval is None and rate is None:
            problems.append("grid needs sample_interval or sample_rate")
        else:
            if interval is not None and not (_is_real(interval) and interval > 0):
                problems.append(f"grid.sample_interval must be a finite positive number, got {interval!r}")
            if rate is not None and not (_is_real(rate) and rate > 0):
                problems.append(f"grid.sample_rate must be a finite positive number, got {rate!r}")
            if (
                _is_real(interval)
                and _is_real(rate)
                and interval > 0
                and rate > 0
                and not np.isclose(interval * rate, 1.0, rtol=1e-9, atol=0.0)
            ):
                problems.append(
                    f"grid.sample_interval and grid.sample_rate are inconsistent: "
                    f"their product is {interval * rate!r}, expected 1"
                )
        if interval is None and _is_real(rate) and rate > 0:
            interval = 1.0 / rate
        if rate is None and _is_real(interval) and interval > 0:
            rate = 1.0 / interval

        sources = [key for key in ("pattern", "columns", "uniform", "sigma2") if key in prof]
        if len(sources) != 1:
            problems.append(
                f"profile must name exactly one of pattern/columns/uniform/sigma2, got {sources}"
            )
        if "pattern" in prof and prof["pattern"] not in PATTERN_NAMES:
            problems.append(f"unknown profile pattern {prof['pattern']!r}; expected one of {PATTERN_NAMES}")
        if "budget" in prof and "pattern" not in prof:
            problems.append("profile.budget is only meaningful together with profile.pattern")
        elif "budget" in prof and not _is_int(prof["budget"]):
            problems.append(f"profile.budget must be an integer, got {prof['budget']!r}")
        if "uniform" in prof and not (_is_real(prof["uniform"]) and prof["uniform"] >= 0):
            problems.append(f"profile.uniform must be a finite number >= 0, got {prof['uniform']!r}")
        if "sigma2" in prof:
            try:
                shape = np.asarray(prof["sigma2"], dtype=np.float64).shape
            except (TypeError, ValueError):
                problems.append("profile.sigma2 must be a 2-D array of numbers")
            else:
                if _is_int(num_delay) and _is_int(num_doppler) and shape != (num_delay, num_doppler):
                    problems.append(
                        f"profile.sigma2 has shape {shape}, but the grid is {num_delay}x{num_doppler}"
                    )

        kind = filt.get("kind", "dirac_delta")
        if kind not in FILTER_KINDS:
            problems.append(f"unknown filter kind {kind!r}; expected one of {FILTER_KINDS}")
        order = filt.get("order", 50)
        if not _is_int(order) or order < 1:
            problems.append(f"filter.order must be an integer >= 1, got {order!r}")
        oversampling = filt.get("oversampling", 1)
        if not _is_int(oversampling) or oversampling < 1:
            problems.append(f"filter.oversampling must be an integer >= 1, got {oversampling!r}")
        elif kind == "dirac_delta" and oversampling != 1:
            problems.append("filter.oversampling must be 1 for the dirac_delta filter")

        num_frames = stream.get("num_frames", 256)
        if not _is_int(num_frames) or num_frames < 1:
            problems.append(f"stream.num_frames must be an integer >= 1, got {num_frames!r}")
        constellation = stream.get("constellation", "qpsk")
        if constellation not in CONSTELLATIONS:
            problems.append(f"stream.constellation must be one of {CONSTELLATIONS}, got {constellation!r}")
        frame_counts = stream.get("frame_counts")
        if frame_counts is not None:
            if (
                not isinstance(frame_counts, (list, tuple))
                or len(frame_counts) < 2
                or not all(_is_int(c) and c >= 1 for c in frame_counts)
                or sorted(frame_counts) != list(frame_counts)
            ):
                problems.append(
                    f"stream.frame_counts must be an increasing list of integers >= 1, got {frame_counts!r}"
                )

        psd_points = psd_sec.get("num_points", 4096)
        if not _is_int(psd_points) or psd_points < 2:
            problems.append(f"psd.num_points must be an integer >= 2, got {psd_points!r}")
        band = psd_sec.get("band")
        if band is not None:
            ok = (
                isinstance(band, (list, tuple))
                and len(band) == 2
                and all(_is_real(x) for x in band)
                and band[0] < band[1]
            )
            if not ok:
                problems.append(f"psd.band must be [lo, hi] of finite numbers with lo < hi, got {band!r}")
        segment_frames = psd_sec.get("segment_frames", 1)
        if not _is_int(segment_frames) or segment_frames < 1:
            problems.append(f"psd.segment_frames must be an integer >= 1, got {segment_frames!r}")

        mask_spec = raw.get("mask")
        if isinstance(mask_spec, dict):  # a non-table mask is reported with the sections
            keys = [k for k in ("null_bins", "pass_bands_hz", "path") if k in mask_spec]
            if len(keys) != 1:
                problems.append(
                    f"mask must name exactly one of null_bins/pass_bands_hz/path, got {keys}"
                )

        form = section("precoder").get("form", "null_space")
        if form not in PRECODER_FORMS:
            problems.append(f"precoder.form must be one of {PRECODER_FORMS}, got {form!r}")

        preset = raw.get("preset")
        if preset is not None and preset not in PRESETS:
            problems.append(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")

        output_dir = section("output").get("directory", "otfspectrum-out")

        if problems:
            raise ConfigurationError(
                "invalid scenario configuration:\n  - " + "\n  - ".join(problems)
            )

        return cls(
            seed=int(seed),
            num_delay=int(num_delay),
            num_doppler=int(num_doppler),
            sample_interval=float(interval),
            sample_rate=float(rate),
            profile_spec=dict(prof),
            filter_kind=str(kind),
            filter_order=int(order),
            oversampling=int(oversampling),
            num_frames=int(num_frames),
            constellation=str(constellation),
            frame_counts=None if frame_counts is None else tuple(frame_counts),
            psd_points=int(psd_points),
            band=None if band is None else (float(band[0]), float(band[1])),
            segment_frames=int(segment_frames),
            mask_spec=None if mask_spec is None else dict(mask_spec),
            precoder_form=str(form),
            preset=preset,
            output_dir=str(output_dir),
            raw=dict(raw),
        )


def _deep_merge(base: dict, override: dict) -> dict:
    """``override`` merged into ``base`` table by table; a table cannot land on a non-table."""
    merged = dict(base)
    for key, value in override.items():
        current = merged.get(key)
        if isinstance(value, dict) and current is not None:
            if not isinstance(current, dict):
                raise ConfigurationError(f"section {key!r} must be a table")
            value = _deep_merge(current, value)
        merged[key] = value
    return merged


def _read_config(path: Optional[Union[str, Path]]) -> dict:
    """The JSON object in a config file; no file is an empty config."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    return raw


def load_config(
    path: Optional[Union[str, Path]] = None, overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Read a JSON config file and apply flag overrides on top."""
    return ScenarioConfig.from_dict(_deep_merge(_read_config(path), overrides or {}))


# ---------------------------------------------------------------------------
# stream-level helpers shared by presets, the CLI, and the acceptance tests
# ---------------------------------------------------------------------------


#: Dense (reconstructed) samples per block of ``estimated_psd``; a block
#: holds whole frames, at least one.  Counted on the dense grid, so a
#: block's memory does not grow with the oversampling factor.
_BLOCK_SAMPLES = 2**18


def _frame_blocks(chunks: Iterable[FrameStream], oversampling: int) -> Iterator[FrameStream]:
    """The chunks cut into blocks of whole frames of about ``_BLOCK_SAMPLES`` dense samples."""
    for chunk in chunks:
        block_frames = max(1, _BLOCK_SAMPLES // (chunk.samples_per_frame * oversampling))
        for lo in range(0, chunk.num_frames, block_frames):
            yield replace(chunk, frames=chunk.frames[lo : lo + block_frames])


def _reconstructed_pieces(
    chunks: Iterable[FrameStream], filt: InterpolationFilter, oversampling: int
) -> Iterator[np.ndarray]:
    """``reconstruct`` of the concatenated chunks from time zero on, piece by piece.

    Each chunk is cut into blocks (``_frame_blocks``), and each block is
    reconstructed on its own.  What a block rings past its end (the
    ``2*order*L`` sinc tail; nothing for rect and dirac_delta) is
    overlap-added onto the next block, the samples before time zero (the
    ``order*L`` pre-ring) are dropped once, and the final tail is flushed at
    the end.  The pieces concatenate to
    ``reconstruct(whole_stream).samples[order*L:]`` up to rounding.
    """
    tail = np.zeros(0, dtype=np.complex128)
    skip = None
    for block in _frame_blocks(chunks, oversampling):
        signal = reconstruct(block, filt, oversampling)
        dense = signal.samples
        dense[: tail.size] += tail
        body = block.frames.size * oversampling
        tail = dense[body:]
        if skip is None:
            skip = int(round(-signal.origin_time * signal.sample_rate))
        drop = min(skip, body)
        skip -= drop
        yield dense[drop:body]
    yield tail[skip:]


def _fan_out(source: Iterable[FrameStream], count: int) -> List[Iterator[FrameStream]]:
    """``count`` iterators over ``source``; an item is dropped once every one has taken it.

    Meant for iterators that advance in lockstep, so each queue holds at
    most one item (``itertools.tee`` keeps items alive in links of 57).
    """
    source = iter(source)
    queues: List[deque] = [deque() for _ in range(count)]

    def view(queue: deque) -> Iterator[FrameStream]:
        while queue or (item := next(source, None)) is not None:
            if not queue:  # this view leads: hand the new item to every queue
                for q in queues:
                    q.append(item)
            yield queue.popleft()

    return [view(q) for q in queues]


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
    CEP component ``cep_component_stream(stream, l)``.  Each generation
    chunk is drawn once and cut into blocks (``_frame_blocks``); each block
    is fanned out to every view, and each view is reconstructed
    (``_reconstructed_pieces``) into its own ``PeriodogramAverager``, all
    in lockstep.  Memory is bounded by one chunk plus a block per view,
    not by ``num_frames``.  The samples fed are those of
    ``periodogram(reconstruct(view))`` from time zero on, the truncated
    sinc's post-ring included, so the segmentation matches the one-shot
    estimate; dirac_delta and rect match it bit for bit, the sinc to rounding.
    """
    segment_len = profile.num_delay * profile.num_doppler * oversampling * segment_frames
    averagers = [PeriodogramAverager(segment_len, oversampling / sample_interval) for _ in views]
    chunks = stream_chunks(profile, num_frames, seed, sample_interval, constellation)
    blocks = _frame_blocks(chunks, oversampling)
    pieces = [
        _reconstructed_pieces(
            source if l is None else map(partial(cep_component_stream, delay_index=l), source),
            filt,
            oversampling,
        )
        for l, source in zip(views, _fan_out(blocks, len(views)))
    ]
    for step in zip(*pieces, strict=True):
        for averager, piece in zip(averagers, step):
            averager.add(piece)
        del step  # zip then refills its one tuple instead of keeping the first step's pieces
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
    M component views): memory is bounded by the generation chunk, and the
    estimate is that of ``periodogram(reconstruct(generate_random_stream(...)))``.
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
    views.  Returns the whole-stream curve, the component curves, their
    sum, and the NMSE/cosine of the sum against the whole over the Nyquist
    band.
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


def precoded_stream(
    precoders: PrecoderSet,
    num_frames: int,
    seed: int,
    sample_interval: float = 1.0,
    constellation: str = "qpsk",
) -> Tuple[FrameStream, np.ndarray]:
    """Random-payload OTFS stream through a precoder set.

    Returns the modulated stream and the Euclidean norm of each frame's
    payload vector.  Payload draws follow the same fixed-chunk Philox
    indexing as plain stream generation, so runs are reproducible and
    prefix-stable in ``num_frames``.
    """
    if num_frames < 1:
        raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
    mask = precoders.mask
    sizes = precoders.payload_sizes
    total = int(sizes.sum())
    if total == 0:
        raise ConfigurationError("the mask leaves no payload dimensions at all")
    points = constellation_points(constellation)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    frames = np.empty((num_frames, mask.num_bins), dtype=np.complex128)
    norms = np.empty(num_frames)
    for chunk_index in range(-(-num_frames // _CHUNK_FRAMES)):
        lo = chunk_index * _CHUNK_FRAMES
        hi = min(lo + _CHUNK_FRAMES, num_frames)
        rng = _chunk_rng(seed, chunk_index)
        u = rng.random((hi - lo, total))
        payload = points[(u * points.size).astype(np.intp)]
        norms[lo:hi] = np.linalg.norm(payload, axis=1)
        entries = np.zeros((hi - lo, mask.num_delay, mask.num_doppler), dtype=np.complex128)
        for k, matrix in enumerate(precoders.matrices):
            if matrix.shape[1]:
                entries[:, :, k] = payload[:, offsets[k] : offsets[k + 1]] @ matrix.T
        time_rows = np.fft.ifft(entries, axis=2, norm="ortho")
        frames[lo:hi] = time_rows.transpose(0, 2, 1).reshape(hi - lo, -1)
    stream = FrameStream(
        frames=frames,
        num_delay=mask.num_delay,
        num_doppler=mask.num_doppler,
        sample_interval=sample_interval,
        seed=seed,
    )
    return stream, norms


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

_LTE_RATE = 30.72e6
_LTE_OCCUPIED = 1201

def _write_curve(outdir: Path, name: str, curve: PsdCurve, cfg_hash: str) -> Path:
    return fileio.write_psd_curve(outdir / name, curve, extra_header={"config_hash": cfg_hash})


def _metric_records(metrics: Dict[str, float], cfg_hash: str) -> List[dict]:
    return [
        {"metric": key, "value": value, "config_hash": cfg_hash}
        for key, value in sorted(metrics.items())
    ]


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
    report_path = outdir / "lte_ofdm_bandwidth.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    filt = InterpolationFilter("dirac_delta", config.sample_interval)
    curve = ofdm_psd(profile, config.sample_interval, filt, config.freq_grid())
    curve_path = _write_curve(outdir, "lte_ofdm_psd.csv", curve, cfg_hash)
    return {
        "files": {"bandwidth_report": str(report_path), "psd": str(curve_path)},
        "metrics": _metric_records({"occupied_bandwidth_hz": occupied * spacing}, cfg_hash),
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
    metrics = _metric_records(comparison, cfg_hash)
    fileio.write_metrics(outdir / f"{config.preset}_metrics.json", metrics)
    files["metrics"] = str(outdir / f"{config.preset}_metrics.json")
    return {"files": files, "metrics": metrics}


def _run_cep_split(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    cfg_hash = config.hash()
    whole, parts, sum_curve, comparison = _cep_split(*config.estimate_args())
    files = {"otfs": str(_write_curve(outdir, "cep_split_otfs.csv", whole, cfg_hash))}
    for l, part in enumerate(parts):
        files[f"component_{l}"] = str(_write_curve(outdir, f"cep_split_component_{l}.csv", part, cfg_hash))
    files["component_sum"] = str(_write_curve(outdir, "cep_split_sum.csv", sum_curve, cfg_hash))
    metrics = _metric_records({f"sum_vs_whole_{k}": v for k, v in comparison.items()}, cfg_hash)
    fileio.write_metrics(outdir / "cep_split_metrics.json", metrics)
    files["metrics"] = str(outdir / "cep_split_metrics.json")
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
    table_path = outdir / "cep_convergence.csv"
    with table_path.open("w") as handle:
        handle.write(f"# format=otfspectrum-convergence-v1\n# config_hash={cfg_hash}\n")
        handle.write("num_frames,nmse_db,cosine_similarity\n")
        for count, nmse, cosine in rows:
            handle.write(f"{count},{float(nmse)!r},{float(cosine)!r}\n")
    metrics = [
        {"metric": f"{name}_at_{count}", "value": value, "config_hash": cfg_hash}
        for count, nmse, cosine in rows
        for name, value in (("nmse_db", nmse), ("cosine", cosine))
    ]
    fileio.write_metrics(outdir / "cep_convergence_metrics.json", metrics)
    return {
        "files": {"table": str(table_path), "metrics": str(outdir / "cep_convergence_metrics.json")},
        "metrics": metrics,
    }


def _run_lte_nslp(config: ScenarioConfig, outdir: Path) -> Dict[str, object]:
    cfg_hash = config.hash()
    mask = config.mask()
    if mask is None:
        raise ConfigurationError("the NSLP preset needs a mask section")
    precoders = build_precoders(mask, config.precoder_form)
    stream, payload_norms = precoded_stream(
        precoders, config.num_frames, config.seed, config.sample_interval, config.constellation
    )
    spectra = np.fft.fft(stream.frames, axis=1, norm="ortho")
    leak = np.abs(spectra[:, mask.null_bins])
    worst_leak = float((leak.max(axis=1) / payload_norms).max()) if mask.null_bins.size else 0.0

    curve = periodogram(stream)
    # Periodogram bins are exactly the spectrum bins (segment = one frame):
    # reorder the natural-index null set onto the centered grid.
    half = mask.num_bins // 2
    natural = np.mod(np.arange(mask.num_bins) - half, mask.num_bins)
    nulled_centered = np.isin(natural, mask.null_bins)
    in_band = curve.values[~nulled_centered]
    out_band = curve.values[nulled_centered]
    in_mean = float(in_band.mean())
    out_max = float(out_band.max()) if out_band.size else 0.0
    suppression_db = 300.0 if out_max == 0.0 else float(10 * np.log10(in_mean / out_max))

    files = {
        "psd": str(_write_curve(outdir, "lte_nslp_psd.csv", curve, cfg_hash)),
        "precoders": str(
            fileio.write_precoder_set(
                outdir / "lte_nslp_precoders.csv", precoders, {"config_hash": cfg_hash}
            )
        ),
        "mask": str(fileio.write_mask(outdir / "lte_nslp_mask.json", mask, config.sample_interval)),
    }
    metrics = _metric_records(
        {
            "worst_null_bin_leak": worst_leak,
            "suppression_db": suppression_db,
            "payload_dimensions": float(precoders.total_payload),
        },
        cfg_hash,
    )
    fileio.write_metrics(outdir / "lte_nslp_metrics.json", metrics)
    files["metrics"] = str(outdir / "lte_nslp_metrics.json")
    return {"files": files, "metrics": metrics}


@dataclass(frozen=True)
class _Preset:
    name: str
    description: str
    defaults: Dict[str, object]
    runner: Callable[[ScenarioConfig, Path], Dict[str, object]]


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
        ),
    )
}

PRESET_NAMES = tuple(sorted(PRESETS))


def preset_config(name: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Scenario configuration for a named preset, with optional overrides."""
    if name not in PRESETS:
        raise ConfigurationError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    raw = _deep_merge(PRESETS[name].defaults, {"preset": name})
    if overrides:
        raw = _deep_merge(raw, overrides)
    return ScenarioConfig.from_dict(raw)


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
    (outdir / f"{config.preset}_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    )
    return manifest


def _run_one(args: Tuple[str, Optional[dict], str]) -> Tuple[str, str]:
    name, overrides, outdir = args
    manifest = run_scenario(preset_config(name, overrides), outdir)
    return name, manifest["config_hash"]


def run_presets(
    names: Sequence[str],
    output_dir: Union[str, Path],
    jobs: int = 1,
    overrides: Optional[dict] = None,
) -> List[Tuple[str, str]]:
    """Run several presets, optionally in parallel worker processes."""
    for name in names:
        if name not in PRESETS:
            raise ConfigurationError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    tasks = [(name, overrides, str(Path(output_dir) / name.replace("/", "_"))) for name in names]
    if jobs <= 1 or len(tasks) == 1:
        return [_run_one(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_one, tasks))
