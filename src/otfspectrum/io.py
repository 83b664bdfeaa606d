"""File formats: every artifact's bytes are laid out here, and only here.

A CSV table (frame streams, PSD curves, precoder dumps, the CEP convergence
table) is ``# key=value`` header lines, the first naming the format, one
column-name row, then comma-separated rows.  Integers are written with
``str`` and floats with ``float.__repr__``, so re-reading a file reproduces
the exact doubles (and so byte-identical metric records).

A JSON record (metric records, masks, the LTE bandwidth report, scenario
manifests) is one JSON value with sorted keys, a two-space indent and a
final newline; a value that is not JSON is rejected, never stringified.
Every file written by a scenario embeds the scenario's config hash.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

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


#: Rows per ``str.join``: about one 64x512 precoder subcarrier, so a block's strings stay small.
_ROW_BLOCK = 4096


def _write_table(
    path: Union[str, Path], header: Dict[str, object], names: Sequence[str], blocks: Iterable[Sequence]
) -> Path:
    """Write a CSV table: the header, the ``names`` row, then each block's rows.

    A block is a sequence of equal-length columns, one per name: numpy
    arrays, or cells already formatted as strings, which may fill several
    fields (``"r,c"``).  Its rows are formatted and written ``_ROW_BLOCK``
    at a time, so memory is bounded by that, not by the table.
    """
    path = Path(path)
    with path.open("w") as handle:
        _write_header(handle, header)
        handle.write(",".join(names) + "\n")
        for columns in blocks:
            row = ["", ","] * len(columns)  # cell, separator, ..., cell, newline
            row[-1] = "\n"
            size = len(columns[0])
            for start in range(0, size, _ROW_BLOCK):
                stop = min(start + _ROW_BLOCK, size)
                parts = row * (stop - start)
                for j, column in enumerate(columns):
                    cells = column if size <= _ROW_BLOCK else column[start:stop]  # a list slice is a copy
                    if isinstance(cells, np.ndarray):
                        cells = map(float.__repr__ if cells.dtype.kind == "f" else str, cells.tolist())
                    parts[2 * j :: len(row)] = cells
                handle.write("".join(parts))
    return path


def _read_table(path: Union[str, Path], what: str, width: int) -> Tuple[Dict[str, str], np.ndarray]:
    """The header fields and the ``(rows, width)`` float array of a CSV table.

    The line after the header is the column-name row; blank lines are skipped.
    An empty or ragged body, or a cell that is not a number, raises
    ``ConfigurationError`` naming the file.
    """
    lines = Path(path).read_text().splitlines()
    start = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    fields: Dict[str, str] = {}
    for key, equals, value in (line[1:].partition("=") for line in lines[:start]):
        if equals:
            fields[key.strip()] = value.strip()
    body = [line for line in lines[start + 1 :] if line]
    if not body:
        raise ConfigurationError(f"{what} file {path} holds no samples")
    ragged = [number for number, line in enumerate(body, start=1) if line.count(",") != width - 1]
    if ragged:
        raise ConfigurationError(f"{what} file {path}: data row {ragged[0]} does not hold {width} fields")
    try:
        values = [float(cell) for line in body for cell in line.split(",")]
    except ValueError as err:
        raise ConfigurationError(f"{what} file {path}: {err}") from None
    return fields, np.array(values).reshape(len(body), width)


def json_text(payload: object) -> str:
    """The JSON record layout: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: Union[str, Path], payload: object) -> Path:
    """Write ``payload`` as a JSON record; a value that is not JSON raises ``TypeError``, writing nothing."""
    path = Path(path)
    path.write_text(json_text(payload))
    return path


def metric_records(metrics: Iterable[Tuple[str, object]], config_hash: str) -> List[dict]:
    """``{metric, value, config_hash}`` records of ``(name, value)`` pairs, in the order given."""
    return [{"metric": name, "value": value, "config_hash": config_hash} for name, value in metrics]


def write_frame_stream(
    path: Union[str, Path],
    stream: FrameStream,
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """Interleaved re/im CSV, one sample per row, grid geometry in the header."""
    header: Dict[str, object] = {
        "format": "otfspectrum-framestream-v1",
        "num_delay": stream.num_delay,
        "num_doppler": stream.num_doppler,
        "sample_interval": repr(stream.sample_interval),
        "num_frames": stream.num_frames,
        "seed": stream.seed,
        **(extra_header or {}),
    }
    flat = stream.concatenated()
    return _write_table(path, header, ("re", "im"), [(flat.real, flat.imag)])


def read_frame_stream(path: Union[str, Path]) -> FrameStream:
    fields, data = _read_table(path, "frame-stream", 2)
    try:
        num_delay = int(fields["num_delay"])
        num_doppler = int(fields["num_doppler"])
        sample_interval = float(fields["sample_interval"])
        num_frames = int(fields["num_frames"])
    except KeyError as missing:
        raise ConfigurationError(f"frame-stream file {path} lacks header field {missing}") from None
    seed = None if fields.get("seed") in (None, "None") else int(fields["seed"])
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
    header: Dict[str, object] = {"format": "otfspectrum-psd-v1", "normalization": curve.normalization}
    for key in ("num_delay", "num_doppler", "sample_interval", "filter", "waveform",
                "segment_len", "sample_rate", "num_segments", "delay_index"):
        if key in curve.meta:
            header[key] = curve.meta[key]
    header.update(extra_header or {})
    return _write_table(path, header, ("freq_hz", "psd_value"), [(curve.freqs, curve.values)])


def read_psd_curve(path: Union[str, Path]) -> PsdCurve:
    fields, data = _read_table(path, "PSD", 2)
    meta: Dict[str, object] = {k: v for k, v in fields.items() if k not in ("format", "normalization")}
    return PsdCurve(
        freqs=data[:, 0],
        values=data[:, 1],
        normalization=fields.get("normalization", "absolute"),
        meta=meta,
    )


def write_metrics(path: Union[str, Path], records: List[dict]) -> Path:
    """JSON list of {metric, value, config_hash} records."""
    for record in records:
        missing = {"metric", "value", "config_hash"} - set(record)
        if missing:
            raise ConfigurationError(f"metric record {record!r} lacks fields {sorted(missing)}")
    return write_json(path, records)


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
    payload: Dict[str, object] = {
        "num_delay": mask.num_delay,
        "num_doppler": mask.num_doppler,
        "null_bins": [int(b) for b in mask.null_bins],
    }
    if sample_interval is not None:
        payload["sample_interval"] = sample_interval
    return write_json(path, payload)


def write_precoder_set(
    path: Union[str, Path],
    precoders: PrecoderSet,
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """Per-subcarrier complex matrix dump: rows of subcarrier,row,col,re,im."""
    mask = precoders.mask
    header: Dict[str, object] = {
        "format": "otfspectrum-precoders-v1",
        "form": precoders.form,
        "num_delay": mask.num_delay,
        "num_doppler": mask.num_doppler,
        "null_bins": ",".join(str(int(b)) for b in mask.null_bins),
        **(extra_header or {}),
    }
    cells: Dict[Tuple[int, int], List[str]] = {}  # the "r,c" cells of each matrix shape

    def subcarriers() -> Iterable[Sequence]:
        for k, matrix in enumerate(precoders.matrices):
            if matrix.shape not in cells:
                rows, cols = matrix.shape
                cells[matrix.shape] = [f"{r},{c}" for r in range(rows) for c in range(cols)]
            yield [str(k)] * matrix.size, cells[matrix.shape], matrix.real.ravel(), matrix.imag.ravel()

    return _write_table(path, header, ("subcarrier", "row", "col", "re", "im"), subcarriers())


def write_convergence_table(
    path: Union[str, Path],
    rows: Sequence[Tuple[int, float, float]],
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """num_frames,nmse_db,cosine_similarity CSV: the CEP sum-vs-whole match per frame count."""
    counts, nmse, cosine = zip(*rows)
    columns = (np.asarray(counts), np.asarray(nmse, dtype=float), np.asarray(cosine, dtype=float))
    header = {"format": "otfspectrum-convergence-v1", **(extra_header or {})}
    return _write_table(path, header, ("num_frames", "nmse_db", "cosine_similarity"), [columns])
