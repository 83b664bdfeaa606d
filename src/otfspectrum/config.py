"""Scenario configuration: the key schema, its validation, and the routing of given keys.

A scenario is described by a nested key/value configuration (JSON on
disk).  ``CONFIG_KEYS`` has one row per key, and
``ScenarioConfig.from_dict`` validates the whole document at once and
reports every violated constraint in a single error.  A preset or a
subcommand reads a set of keys, and ``_routed_configs`` gives each
reader the given keys it reads and refuses any key none of them reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import io as fileio
from .dac import FILTER_KINDS, InterpolationFilter
from .errors import ConfigurationError
from .io import BAND, BAND_LIST, INT_LIST, POSITIVE_INT, POSITIVE_REAL, Rule, _is_int, _is_real, rule_problem
from .patterns import PATTERN_NAMES, builtin_pattern, column_support_profile
from .precoding import PRECODER_FORMS, SpectrumMask
from .waveform import CONSTELLATIONS, VarianceProfile

__all__ = ["CONFIG_KEYS", "ScenarioConfig"]

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
    # Only a preset reads it, and refuses any name but its own.
    _Key("preset", "preset", _STRING, None),
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
            spec = fileio._mask_spec(self.mask_spec["path"])
            if (spec["num_delay"], spec["num_doppler"]) != (self.num_delay, self.num_doppler):
                raise ConfigurationError(
                    f"mask file grid {spec['num_delay']}x{spec['num_doppler']} does not match "
                    f"scenario grid {self.num_delay}x{self.num_doppler}"
                )
            return fileio.load_mask(spec)
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


#: The key every reader takes, whatever it reads.
_EXEMPT_KEYS = ("seed",)
_KEY_NAMES = {key.name for key in CONFIG_KEYS}


def _in_read_set(reads: Tuple[str, ...], key: str) -> bool:
    """Whether ``key`` is in the read set ``reads`` of key names and whole sections."""
    return key in reads or key.partition(".")[0] in reads


def _given_keys(given: dict) -> Iterator[Tuple[str, dict]]:
    """Each key given in a raw config or overrides: its dotted name, and itself as a one-key tree."""
    for top, body in given.items():
        for key, value in (body.items() if isinstance(body, dict) else [(None, body)]):
            yield (top, {top: value}) if key is None else (f"{top}.{key}", {top: {key: value}})


def _routed_configs(
    given: dict, readers: Sequence[Tuple[str, dict, Tuple[str, ...]]], who: str
) -> List[ScenarioConfig]:
    """The config of each reader ``(name, defaults, reads)``: its defaults merged with its share of ``given``.

    A reader's share holds the given keys in its read set ``reads``, the
    exempt ``seed``, and any name that is not a config key at all.  Each
    reader's config is validated first, so schema errors (unknown keys
    among them) keep their messages.  Then a given key that no reader
    takes is refused, naming ``who`` and each reader's read set.
    """
    shares: List[dict] = [{} for _ in readers]
    unread = []
    for dotted, tree in _given_keys(given):
        takers = [
            i for i, (_, _, reads) in enumerate(readers)
            if dotted not in _KEY_NAMES or _in_read_set(_EXEMPT_KEYS + reads, dotted)
        ]
        if not takers:
            unread.append(dotted)
        for i in takers:
            shares[i] = _deep_merge(shares[i], tree)
    configs = [
        ScenarioConfig.from_dict(_deep_merge(defaults, share))
        for (_, defaults, _), share in zip(readers, shares)
    ]
    if unread:
        shown = {name: ", ".join(r if "." in r else r + ".*" for r in reads) for name, _, reads in readers}
        text = "; ".join(f"{name} reads {read_set}" for name, read_set in shown.items())
        raise ConfigurationError(f"config keys {unread} are not read by {who} ({text})")
    return configs
