"""File formats: CSV sample streams and PSD curves, JSON metrics and masks.

All CSV files open with ``# key=value`` header lines followed by one
column-name row; floats are written with ``repr`` so re-ingesting a file
reproduces the exact same doubles (and therefore byte-identical metric
records).  Every file written by a scenario embeds the scenario's config
hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .errors import ConfigurationError
from .precoding import PrecoderSet, SpectrumMask, decompose_mask, mask_from_pass_bands
from .psd import PsdCurve
from .waveform import FrameStream

__all__ = [
    "config_hash",
    "write_frame_stream",
    "read_frame_stream",
    "write_psd_curve",
    "read_psd_curve",
    "write_metrics",
    "read_metrics",
    "load_mask",
    "write_mask",
    "write_precoder_set",
]


def config_hash(config: dict) -> str:
    """Short stable hash of a JSON-serializable configuration dict."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _write_header(handle, fields: Dict[str, object]) -> None:
    for key, value in fields.items():
        if value is not None:
            handle.write(f"# {key}={value}\n")


def _read_header(lines: List[str]) -> Tuple[Dict[str, str], int]:
    fields: Dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        body = lines[i][1:].strip()
        if "=" in body:
            key, _, value = body.partition("=")
            fields[key.strip()] = value.strip()
        i += 1
    return fields, i


def write_frame_stream(
    path: Union[str, Path],
    stream: FrameStream,
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """Interleaved re/im CSV, one sample per row, grid geometry in the header."""
    path = Path(path)
    header: Dict[str, object] = {
        "format": "otfspectrum-framestream-v1",
        "num_delay": stream.num_delay,
        "num_doppler": stream.num_doppler,
        "sample_interval": repr(stream.sample_interval),
        "num_frames": stream.num_frames,
        "seed": stream.seed,
    }
    if extra_header:
        header.update(extra_header)
    flat = stream.concatenated()
    with path.open("w") as handle:
        _write_header(handle, header)
        handle.write("re,im\n")
        for value in flat:
            handle.write(f"{float(value.real)!r},{float(value.imag)!r}\n")
    return path


def read_frame_stream(path: Union[str, Path]) -> FrameStream:
    lines = Path(path).read_text().splitlines()
    fields, start = _read_header(lines)
    try:
        num_delay = int(fields["num_delay"])
        num_doppler = int(fields["num_doppler"])
        sample_interval = float(fields["sample_interval"])
        num_frames = int(fields["num_frames"])
    except KeyError as missing:
        raise ConfigurationError(f"frame-stream file {path} lacks header field {missing}") from None
    seed = None if fields.get("seed") in (None, "None") else int(fields["seed"])
    rows = lines[start + 1 :]  # skip the column-name row
    data = np.array(
        [[float(a), float(b)] for a, b in (row.split(",") for row in rows if row)],
    )
    samples = data[:, 0] + 1j * data[:, 1]
    per_frame = num_delay * num_doppler
    if samples.size != num_frames * per_frame:
        raise ConfigurationError(
            f"frame-stream file {path} holds {samples.size} samples, "
            f"expected {num_frames}*{per_frame}"
        )
    return FrameStream(
        frames=samples.reshape(num_frames, per_frame),
        num_delay=num_delay,
        num_doppler=num_doppler,
        sample_interval=sample_interval,
        seed=seed,
    )


def write_psd_curve(
    path: Union[str, Path],
    curve: PsdCurve,
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """freq_hz,psd_value CSV with normalization and provenance headers."""
    path = Path(path)
    header: Dict[str, object] = {"format": "otfspectrum-psd-v1", "normalization": curve.normalization}
    for key in ("num_delay", "num_doppler", "sample_interval", "filter", "waveform",
                "segment_len", "sample_rate", "num_segments", "delay_index"):
        if key in curve.meta:
            header[key] = curve.meta[key]
    if extra_header:
        header.update(extra_header)
    with path.open("w") as handle:
        _write_header(handle, header)
        handle.write("freq_hz,psd_value\n")
        for f, v in zip(curve.freqs, curve.values):
            handle.write(f"{float(f)!r},{float(v)!r}\n")
    return path


def read_psd_curve(path: Union[str, Path]) -> PsdCurve:
    lines = Path(path).read_text().splitlines()
    fields, start = _read_header(lines)
    rows = lines[start + 1 :]
    data = np.array([[float(a), float(b)] for a, b in (row.split(",") for row in rows if row)])
    if data.size == 0:
        raise ConfigurationError(f"PSD file {path} holds no samples")
    meta: Dict[str, object] = {k: v for k, v in fields.items() if k not in ("format", "normalization")}
    return PsdCurve(
        freqs=data[:, 0],
        values=data[:, 1],
        normalization=fields.get("normalization", "absolute"),
        meta=meta,
    )


def write_metrics(path: Union[str, Path], records: List[dict]) -> Path:
    """JSON list of {metric, value, config_hash} records."""
    path = Path(path)
    for record in records:
        missing = {"metric", "value", "config_hash"} - set(record)
        if missing:
            raise ConfigurationError(f"metric record {record!r} lacks fields {sorted(missing)}")
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return path


def read_metrics(path: Union[str, Path]) -> List[dict]:
    return json.loads(Path(path).read_text())


#: A rule for a JSON value: a predicate, and the words that complete
#: "<name> must be <words>, got <value>".  Configs and mask files share them.
Rule = Tuple[Callable[[object], bool], str]


def _is_int(value: object) -> bool:
    """A JSON integer; ``True``/``False`` are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value: object) -> bool:
    """A finite JSON number (not a bool, not +-Infinity or NaN)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_band(value: object) -> bool:
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    return pair and all(map(_is_real, value)) and value[0] < value[1]


POSITIVE_INT: Rule = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
POSITIVE_REAL: Rule = (lambda v: _is_real(v) and v > 0, "a finite positive number")
INT_LIST: Rule = (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of integers")
BAND: Rule = (_is_band, "[lo, hi] of finite numbers with lo < hi")
BAND_LIST: Rule = (
    lambda v: isinstance(v, (list, tuple)) and all(map(_is_band, v)),
    "a list of [lo, hi] pairs of finite numbers with lo < hi",
)


def rule_problem(name: str, rule: Rule, value: object) -> List[str]:
    """``[]`` when ``value`` keeps ``rule``, else the one-line complaint about ``name``."""
    return [] if rule[0](value) else [f"{name} must be {rule[1]}, got {value!r}"]


def read_json_object(source: Union[str, Path, dict], what: str) -> dict:
    """A copy of ``source``, or of the JSON object in the file it names."""
    if isinstance(source, (str, Path)):
        try:
            source = json.loads(Path(source).read_text())
        except json.JSONDecodeError as err:
            raise ConfigurationError(f"{what} is not valid JSON: {err}") from None
    if not isinstance(source, dict):
        raise ConfigurationError(f"{what} must hold a JSON object, got {source!r}")
    return dict(source)


_MASK_ALIASES = {"M": "num_delay", "N": "num_doppler", "T_s": "sample_interval"}
_MASK_RULES = {"num_delay": POSITIVE_INT, "num_doppler": POSITIVE_INT, "sample_interval": POSITIVE_REAL,
               "null_bins": INT_LIST, "pass_bands_hz": BAND_LIST}


def load_mask(source: Union[str, Path, dict]) -> SpectrumMask:
    """Read a mask from JSON: explicit null bins or pass bands in Hz.

    Accepts ``{"null_bins": [...]}`` or ``{"pass_bands_hz": [[lo, hi], ...]}``
    plus the grid geometry (descriptive keys, with M/N/T_s accepted as
    aliases).  Every problem is reported in one ``ConfigurationError``.
    """
    where = f"mask file {source}" if isinstance(source, (str, Path)) else "mask"
    spec = read_json_object(source, where)
    for alias, canonical in _MASK_ALIASES.items():
        if alias in spec and canonical not in spec:
            spec[canonical] = spec.pop(alias)
    problems = [f"grid field {key!r} is missing" for key in ("num_delay", "num_doppler") if key not in spec]
    for key, rule in _MASK_RULES.items():
        problems += rule_problem(key, rule, spec[key]) if key in spec else []
    sources = [key for key in ("null_bins", "pass_bands_hz") if key in spec]
    if len(sources) != 1:
        problems.append(f"it must name exactly one of null_bins/pass_bands_hz, got {sources}")
    elif "pass_bands_hz" in spec and "sample_interval" not in spec:
        problems.append("a pass-band mask needs sample_interval (or T_s)")
    if problems:
        raise ConfigurationError(f"invalid {where}: " + "; ".join(problems))
    if "null_bins" in spec:
        return decompose_mask(spec["null_bins"], spec["num_delay"], spec["num_doppler"])
    bands = [tuple(band) for band in spec["pass_bands_hz"]]
    return mask_from_pass_bands(bands, spec["num_delay"], spec["num_doppler"], float(spec["sample_interval"]))


def write_mask(path: Union[str, Path], mask: SpectrumMask, sample_interval: Optional[float] = None) -> Path:
    path = Path(path)
    payload: Dict[str, object] = {
        "num_delay": mask.num_delay,
        "num_doppler": mask.num_doppler,
        "null_bins": [int(b) for b in mask.null_bins],
    }
    if sample_interval is not None:
        payload["sample_interval"] = sample_interval
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_precoder_set(
    path: Union[str, Path],
    precoders: PrecoderSet,
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """Per-subcarrier complex matrix dump: rows of subcarrier,row,col,re,im."""
    path = Path(path)
    mask = precoders.mask
    header: Dict[str, object] = {
        "format": "otfspectrum-precoders-v1",
        "form": precoders.form,
        "num_delay": mask.num_delay,
        "num_doppler": mask.num_doppler,
        "null_bins": ",".join(str(int(b)) for b in mask.null_bins),
    }
    if extra_header:
        header.update(extra_header)
    cells: Dict[Tuple[int, int], List[str]] = {}  # "r,c," of each entry, per matrix shape
    with path.open("w") as handle:
        _write_header(handle, header)
        handle.write("subcarrier,row,col,re,im\n")
        for k, matrix in enumerate(precoders.matrices):
            rows, cols = matrix.shape
            if matrix.shape not in cells:
                cells[matrix.shape] = [f"{r},{c}," for r in range(rows) for c in range(cols)]
            # one subcarrier's rows "k,r,c,re,im\n", six parts an entry, joined once
            parts = [f"{k},", "", "", ",", "", "\n"] * matrix.size
            parts[1::6] = cells[matrix.shape]
            parts[2::6] = map(float.__repr__, matrix.real.ravel().tolist())
            parts[4::6] = map(float.__repr__, matrix.imag.ravel().tolist())
            handle.write("".join(parts))
    return path
