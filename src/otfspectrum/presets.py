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
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import io as fileio
from .dac import FILTER_KINDS, InterpolationFilter, reconstruct
from .errors import ConfigurationError
from .estimate import PeriodogramAverager, compare_curves
from .io import BAND, BAND_LIST, INT_LIST, POSITIVE_INT, POSITIVE_REAL, Rule, _is_int, _is_real, rule_problem
from .patterns import PATTERN_NAMES, builtin_pattern, column_support_profile
from .precoding import PRECODER_FORMS, PrecoderSet, SpectrumMask, build_precoders
from .psd import PsdCurve, ofdm_psd, otfs_psd
from .waveform import (
    CONSTELLATIONS,
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

_REQUIRED = "required"  #: default of a key that must be given
_ABSENT = "absent"  #: default of a profile/mask key: it may be left out


class _Key(NamedTuple):
    """One config key: its dotted name, ``ScenarioConfig`` field, rule, default and override flag.

    Profile and mask keys have no field: they stay in the section's spec.  A
    ``None`` default lets an explicit null mean "unset" too.  ``flag`` holds
    the flag and its ``add_argument`` keywords (its ``dest`` is the name).
    """

    name: str
    field: Optional[str]
    rule: Rule
    default: object = _ABSENT
    flag: Tuple = ()
    parse: Callable[[object], object] = lambda value: value


def _one_of(choices: Tuple[str, ...]) -> Rule:
    return (lambda value: isinstance(value, str) and value in choices, f"one of {choices}")


def _is_counts(value: object) -> bool:
    counts = INT_LIST[0](value) and len(value) >= 2 and all(c >= 1 for c in value)
    return counts and sorted(value) == list(value)


def _is_matrix(value: object) -> bool:
    rows = isinstance(value, (list, tuple)) and len(value) > 0
    rows = rows and all(isinstance(r, (list, tuple)) and len(r) == len(value[0]) > 0 for r in value)
    return rows and all(_is_real(x) and x >= 0 for r in value for x in r)


_STRING: Rule = (lambda value: isinstance(value, str), "a string")

#: Every scenario config key, in override-flag order.
CONFIG_KEYS: Tuple[_Key, ...] = (
    _Key("seed", "seed", (_is_int, "an integer"), _REQUIRED,
         ("--seed", dict(type=int, help="RNG seed (required here or in the config)"))),
    _Key("grid.num_delay", "num_delay", POSITIVE_INT, _REQUIRED,
         ("--num-delay", dict(type=int, metavar="M", help="delay bins per frame"))),
    _Key("grid.num_doppler", "num_doppler", POSITIVE_INT, _REQUIRED,
         ("--num-doppler", dict(type=int, metavar="N", help="Doppler bins / subcarriers"))),
    _Key("grid.sample_interval", "sample_interval", POSITIVE_REAL, None,
         ("--sample-interval", dict(type=float, metavar="SEC"))),
    _Key("grid.sample_rate", "sample_rate", POSITIVE_REAL, None,
         ("--sample-rate", dict(type=float, metavar="HZ"))),
    _Key("filter.kind", "filter_kind", _one_of(FILTER_KINDS), "dirac_delta",
         ("--filter", dict(choices=FILTER_KINDS))),
    _Key("filter.order", "filter_order", POSITIVE_INT, 50,
         ("--order", dict(type=int, metavar="ORDER", help="truncated-sinc half-width in input samples"))),
    _Key("filter.oversampling", "oversampling", POSITIVE_INT, 1,
         ("--oversampling", dict(type=int, metavar="L", help="DAC oversampling factor"))),
    _Key("stream.num_frames", "num_frames", POSITIVE_INT, 256,
         ("--frames", dict(type=int, metavar="FRAMES", help="number of random frames"))),
    _Key("stream.constellation", "constellation", _one_of(CONSTELLATIONS), "qpsk",
         ("--constellation", dict(choices=CONSTELLATIONS))),
    _Key("stream.frame_counts", "frame_counts",
         (_is_counts, "an increasing list of two or more integers >= 1"), None, parse=tuple),
    _Key("profile.uniform", None, (lambda v: _is_real(v) and v >= 0, "a finite number >= 0"),
         flag=("--uniform", dict(type=float, metavar="POWER", help="uniform variance profile"))),
    _Key("profile.columns", None, INT_LIST,
         flag=("--columns", dict(type=int, nargs="+", metavar="K", help="active subcarrier columns"))),
    _Key("profile.pattern", None, _one_of(PATTERN_NAMES), flag=("--pattern", dict(choices=PATTERN_NAMES))),
    _Key("profile.budget", None, (_is_int, "an integer"),
         flag=("--budget", dict(type=int, metavar="BUDGET", help="active-bin budget for --pattern"))),
    _Key("profile.sigma2", None, (_is_matrix, "a 2-D array of numbers >= 0")),
    _Key("psd.num_points", "psd_points", (lambda v: _is_int(v) and v >= 2, "an integer >= 2"), 4096,
         ("--points", dict(type=int, metavar="POINTS", help="analytic PSD grid size"))),
    _Key("psd.band", "band", BAND, None,
         ("--band", dict(type=float, nargs=2, metavar=("LO", "HI"), help="frequency band in Hz")),
         parse=lambda band: (float(band[0]), float(band[1]))),
    _Key("psd.segment_frames", "segment_frames", POSITIVE_INT, 1,
         ("--segment-frames",
          dict(type=int, metavar="SEGMENT_FRAMES", help="frames per periodogram segment"))),
    _Key("mask.null_bins", None, INT_LIST),
    _Key("mask.pass_bands_hz", None, BAND_LIST),
    _Key("mask.path", None, _STRING, flag=("--mask-file", dict(metavar="FILE", help="JSON spectrum mask"))),
    _Key("precoder.form", "precoder_form", _one_of(PRECODER_FORMS), "null_space",
         ("--precoder-form", dict(choices=PRECODER_FORMS))),
    _Key("output.directory", "output_dir", _STRING, "otfspectrum-out"),
    _Key("preset", "preset", (lambda v: isinstance(v, str) and v in PRESETS, "the name of a preset"), None),
)

#: The keys of each section in table order, and the keys allowed at the top level.
_SECTIONS: Dict[str, List[str]] = {}
for _where, _, _name in (key.name.rpartition(".") for key in CONFIG_KEYS):
    _SECTIONS.setdefault(_where, []).append(_name)
_TOP_KEYS = set(_SECTIONS.pop("")) | set(_SECTIONS)


#: How far below the float64 maximum the PSD level must stay: the PSD paths
#: sum products of sums over up to 2**32 terms of it (periodograms, the comb's FFTs).
_PSD_LEVEL_HEADROOM = 2.0**64


def _overflow_problems(values: Dict[str, object]) -> List[str]:
    """What the valid grid, profile and PSD keys derive must stay finite, and the PSD grid increasing.

    That is the reciprocal of the sample interval or rate, the PSD level (the
    largest variance times the sample rate) with ``_PSD_LEVEL_HEADROOM`` to
    spare, the band's width, its point spacing against the float64
    resolution at its edges, and its edges in units of the frame rate (the
    analytic comb's argument).
    """
    interval, rate = values.get("grid.sample_interval"), values.get("grid.sample_rate")
    for name, value, derived in (
        ("grid.sample_interval", interval, "sample rate"), ("grid.sample_rate", rate, "sample interval")
    ):
        if value is not None and not np.isfinite(1.0 / value):
            return [f"{name} = {value!r} makes the derived {derived} infinite"]
    if interval is None and rate is None:
        return []
    rate_key = "grid.sample_rate" if rate is not None else "grid.sample_interval"
    fs = rate if rate is not None else 1.0 / interval
    variance_key, variance = None, 1.0  # pattern and column profiles have unit variance
    if "profile.uniform" in values:
        variance_key, variance = "profile.uniform", values["profile.uniform"]
    elif "profile.sigma2" in values:
        variance_key, variance = "profile.sigma2", max(max(row) for row in values["profile.sigma2"])
    if not np.isfinite(variance * fs * _PSD_LEVEL_HEADROOM):
        key, value = rate_key, values[rate_key]
        if variance_key and not np.isfinite(variance * _PSD_LEVEL_HEADROOM):
            key, value = variance_key, variance
        return [
            f"{key} = {value!r} puts the PSD level, largest variance {variance!r} times sample rate "
            f"{fs!r} Hz, within 2**64 of float64 overflow"
        ]
    band, points = values.get("psd.band"), values.get("psd.num_points")
    if points is None:
        return []
    if band is None:
        nyquist = 0.5 * rate if rate is not None else 0.5 / interval
        band = (-nyquist, nyquist)
    lo, hi = band
    edge = max(abs(lo), abs(hi))
    frame = values.get("grid.num_delay", 1) * values.get("grid.num_doppler", 1)
    frame *= interval if interval is not None else 1.0 / rate
    if not np.isfinite(hi - lo):
        return [f"psd.band must span a finite width, got {list(band)}"]
    if not (hi - lo) / points > 4 * np.spacing(edge):
        return [f"psd.num_points = {points} cuts the band {list(band)} finer than float64 resolves"]
    if not np.isfinite(edge * frame):
        return [f"psd.band edge {edge!r} Hz times the frame length {frame!r} s overflows"]
    return []


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters plus the raw dict they were parsed from (see ``from_dict``)."""

    seed: int
    num_delay: int
    num_doppler: int
    sample_interval: float
    sample_rate: float
    profile_spec: Dict[str, object]
    filter_kind: str
    filter_order: int
    oversampling: int
    num_frames: int
    constellation: str
    frame_counts: Optional[Tuple[int, ...]]
    psd_points: int
    band: Optional[Tuple[float, float]]
    segment_frames: int
    mask_spec: Optional[Dict[str, object]]
    precoder_form: str
    preset: Optional[str]
    output_dir: str
    raw: Dict[str, object] = field(compare=False)

    # -- resolution helpers -------------------------------------------------

    def profile(self) -> VarianceProfile:
        spec = self.profile_spec
        if "pattern" in spec:
            return builtin_pattern(spec["pattern"], self.num_delay, self.num_doppler, spec.get("budget"))
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
        if "path" in self.mask_spec:
            mask = fileio.load_mask(self.mask_spec["path"])
            if (mask.num_delay, mask.num_doppler) != (self.num_delay, self.num_doppler):
                raise ConfigurationError(
                    f"mask file grid {mask.num_delay}x{mask.num_doppler} does not match "
                    f"scenario grid {self.num_delay}x{self.num_doppler}"
                )
            return mask
        spec = dict(self.mask_spec, num_delay=self.num_delay, num_doppler=self.num_doppler)
        return fileio.load_mask(dict(spec, sample_interval=self.sample_interval))

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
        for section, allowed in _SECTIONS.items():
            body = raw.get(section)
            if body is None:
                continue
            if not isinstance(body, dict):
                problems.append(f"section {section!r} must be a table of key/value pairs")
                continue
            unknown = sorted(set(body) - set(allowed))
            if unknown:
                problems.append(f"unknown keys in section {section!r}: {unknown}")

        def section(name: str) -> dict:
            body = raw.get(name)
            return body if isinstance(body, dict) else {}

        # single-key rules: ``values`` gets each valid (or defaulted) key
        values: Dict[str, object] = {}
        for key in CONFIG_KEYS:
            where, _, name = key.name.rpartition(".")
            body = section(where) if where else raw
            if name not in body or (body[name] is None and key.default is None):
                if key.default is _REQUIRED:
                    problems.append(f"{key.name} is required")
                elif key.default is not _ABSENT:
                    values[key.name] = key.default
                continue
            problem = rule_problem(key.name, key.rule, body[name])
            problems += problem
            if not problem:
                values[key.name] = key.parse(body[name])

        # rules that span keys
        grid, prof, mask = section("grid"), section("profile"), raw.get("mask")
        interval, rate = values.get("grid.sample_interval"), values.get("grid.sample_rate")
        if grid.get("sample_interval") is None and grid.get("sample_rate") is None:
            problems.append("grid needs sample_interval or sample_rate")
        elif None not in (interval, rate) and not np.isclose(interval * rate, 1.0, rtol=1e-9, atol=0.0):
            problems.append(
                f"grid.sample_interval and grid.sample_rate are inconsistent: "
                f"their product is {interval * rate!r}, expected 1"
            )
        problems += _overflow_problems(values)
        sources = [key for key in ("pattern", "columns", "uniform", "sigma2") if key in prof]
        if len(sources) != 1:
            problems.append(
                f"profile must name exactly one of pattern/columns/uniform/sigma2, got {sources}"
            )
        if "budget" in prof and "pattern" not in prof:
            problems.append("profile.budget is only meaningful together with profile.pattern")
        sigma2, m, n = map(values.get, ("profile.sigma2", "grid.num_delay", "grid.num_doppler"))
        shape = sigma2 and (len(sigma2), len(sigma2[0]))
        if shape and m and n and shape != (m, n):
            problems.append(f"profile.sigma2 has shape {shape}, but the grid is {m}x{n}")
        if values.get("filter.kind") == "dirac_delta" and values.get("filter.oversampling", 1) != 1:
            problems.append("filter.oversampling must be 1 for the dirac_delta filter")
        if isinstance(mask, dict):  # a non-table mask is reported with the sections
            given = [key for key in _SECTIONS["mask"] if key in mask]
            if len(given) != 1:
                problems.append(f"mask must name exactly one of null_bins/pass_bands_hz/path, got {given}")

        if problems:
            raise ConfigurationError(
                "invalid scenario configuration:\n  - " + "\n  - ".join(problems)
            )

        fields = {key.field: values[key.name] for key in CONFIG_KEYS if key.field}
        fields["sample_interval"] = float(interval if interval is not None else 1.0 / rate)
        fields["sample_rate"] = float(rate if rate is not None else 1.0 / interval)
        mask_spec = None if mask is None else dict(mask)
        return cls(**fields, profile_spec=dict(prof), mask_spec=mask_spec, raw=dict(raw))


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
    return {} if path is None else fileio.read_json_object(path, f"config file {path}")


def load_config(
    path: Optional[Union[str, Path]] = None, overrides: Optional[dict] = None
) -> ScenarioConfig:
    """Read a JSON config file and apply flag overrides on top."""
    return ScenarioConfig.from_dict(_deep_merge(_read_config(path), overrides or {}))


# ---------------------------------------------------------------------------
# stream-level helpers shared by presets, the CLI, and the acceptance tests
# ---------------------------------------------------------------------------


class _BlockDac:
    """``reconstruct`` of a stream pushed in frame blocks, from time zero on.

    Each pushed block is reconstructed on its own (overlap-add block
    convolution, Crochiere & Rabiner, 1983).  What a block rings past its
    end (the ``2*order*L`` sinc tail; nothing for rect and dirac_delta) is
    overlap-added onto the next block, the samples before time zero (the
    ``order*L`` pre-ring) are dropped once, and ``flush`` returns the final
    tail.  The pushed and flushed samples concatenate to
    ``reconstruct(whole_stream).samples[order*L:]`` up to rounding.
    """

    def __init__(self, filt: InterpolationFilter, oversampling: int) -> None:
        self.filt = filt
        self.oversampling = oversampling
        self.tail = np.zeros(0, dtype=np.complex128)
        self.skip: Optional[int] = None

    def push(self, block: FrameStream) -> np.ndarray:
        signal = reconstruct(block, self.filt, self.oversampling)
        dense = signal.samples
        dense[: self.tail.size] += self.tail
        body = block.frames.size * self.oversampling
        # Keep a view, not a copy, although it pins the whole reconstruction
        # until the next push: copying the tail so each block is freed early
        # made the 10000-frame 16x128 rect benchmark take about six times the
        # minor page faults (82 k -> 500 k) and 1.5 s more wall time.
        self.tail = dense[body:]
        if self.skip is None:
            self.skip = int(round(-signal.origin_time * signal.sample_rate))
        drop = min(self.skip, body)
        self.skip -= drop
        return dense[drop:body]

    def flush(self) -> np.ndarray:
        return self.tail[self.skip :]


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
    CEP component ``cep_component_stream(stream, l)``.  The stream is
    drawn once, in ``stream_chunks`` frame blocks; each block is pushed
    through every view's ``_BlockDac`` into that view's
    ``PeriodogramAverager``, and every DAC's tail is flushed at the end.
    Memory is bounded by one reconstruction per view, not by
    ``num_frames``.  The samples fed are those of
    ``periodogram(reconstruct(view))`` from time zero on, the truncated
    sinc's post-ring included, so the segmentation matches the one-shot
    estimate; dirac_delta and rect match it bit for bit, the sinc to rounding.
    """
    segment_len = profile.num_delay * profile.num_doppler * oversampling * segment_frames
    averagers = [PeriodogramAverager(segment_len, oversampling / sample_interval) for _ in views]
    dacs = [_BlockDac(filt, oversampling) for _ in views]
    for block in stream_chunks(
        profile, num_frames, seed, sample_interval, constellation, oversampling=oversampling
    ):
        for l, dac, averager in zip(views, dacs, averagers):
            averager.add(dac.push(block if l is None else cep_component_stream(block, l)))
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
    M component views): each frame block is pushed through one
    ``_BlockDac``, so memory is bounded by the block, and the estimate is
    that of ``periodogram(reconstruct(generate_random_stream(...)))``.
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
    views: each frame block is pushed through M+1 ``_BlockDac``s, which
    hold one reconstruction each.  Returns the whole-stream curve, the
    component curves, their sum, and the NMSE/cosine of the sum against
    the whole over the Nyquist band.
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
    makes the frame.  Any other set goes through its matrices.
    """
    if num_frames < 1:
        raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
    mask = precoders.mask
    sizes = precoders.payload_sizes
    total = int(sizes.sum())
    if total == 0:
        raise ConfigurationError("the mask leaves no payload dimensions at all")
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def through_matrices(payload: np.ndarray) -> np.ndarray:
        # A one-row product takes BLAS's matrix-vector path, which rounds
        # differently from the matrix-matrix path of longer blocks: pad a lone
        # frame with a zero row, so every frame is computed alike whatever
        # block it falls in, and the stream stays prefix-stable.
        rows = payload if len(payload) > 1 else np.vstack([payload, np.zeros_like(payload)])
        entries = np.zeros((len(rows), mask.num_delay, mask.num_doppler), dtype=np.complex128)
        for k, matrix in enumerate(precoders.matrices):
            if matrix.shape[1]:
                entries[:, :, k] = rows[:, offsets[k] : offsets[k + 1]] @ matrix.T
        return entries[: len(payload)]

    def scattered(payload: np.ndarray) -> np.ndarray:
        # The spectra as one-row grids: OTFS-modulating a 1 x MN grid is the
        # inverse DFT of its row, so ``_chunked_frames`` makes the frames.
        spectra = np.zeros((len(payload), 1, mask.num_bins), dtype=np.complex128)
        spectra[:, 0, precoders.spectral_bins] = payload
        return spectra

    to_grid = through_matrices if precoders.spectral_bins is None else scattered
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
    # Block by block: the worst masked-bin leak, and the one-frame-segment
    # periodogram (the averager is chunking-invariant, bit for bit).
    averager = PeriodogramAverager(mask.num_bins, 1.0 / config.sample_interval)
    worst_leak = 0.0
    for block, payload_norms in _precoded_blocks(
        precoders, config.num_frames, config.seed, config.sample_interval, config.constellation
    ):
        if mask.null_bins.size:
            spectra = np.fft.fft(block.frames, axis=1, norm="ortho")
            leak = np.abs(spectra[:, mask.null_bins]).max(axis=1) / payload_norms
            worst_leak = max(worst_leak, float(leak.max()))
        averager.add(block.frames)
    curve = averager.result()
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
