"""Workload definitions and the correctness check each benchmark sample must pass.

A workload is a shipped scenario preset plus config overrides; the sample's
seed is written into the config's ``seed``.  ``check`` reads only the files
the run wrote and recomputes what it can with plain numpy, so it does not
trust the code under test to grade itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Seed whose written curves are compared against ``reference.npz``.
DEFAULT_SEED = 1

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.npz"

#: Curves are pinned to the reference within this share of the curve's peak.
CURVE_TOLERANCE = 1e-10

# name -> (preset, config overrides).  Why each workload is in the benchmark is
# written down in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Tuple[str, dict]] = {
    "sinc-estimate": (
        "lte-otfs-columns",
        {
            "filter": {"kind": "truncated_sinc", "order": 50, "oversampling": 2},
            "stream": {"num_frames": 2048},
        },
    ),
    "rect-stream": (
        "lte-otfs-rows",
        {"filter": {"kind": "rect", "oversampling": 4}, "stream": {"num_frames": 10000}},
    ),
    "analytic-lte": ("lte-ofdm", {"psd": {"num_points": 16384}}),
    "nslp-precode": (
        "lte-otfs-nslp",
        {"grid": {"num_delay": 64, "num_doppler": 512}, "stream": {"num_frames": 256}},
    ),
}


def overrides(workload: str, seed: int) -> dict:
    """Config overrides for one sample of ``workload``."""
    return {**WORKLOADS[workload][1], "seed": int(seed)}


# -- reading the written files ------------------------------------------------


def _csv_header(path: Path) -> Dict[str, str]:
    header = {}
    with Path(path).open() as handle:
        for line in handle:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            header[key] = value
    return header


def read_curve(path: Path) -> Tuple[Dict[str, str], np.ndarray, np.ndarray]:
    """Header fields, frequencies and values of a ``freq_hz,psd_value`` CSV."""
    lines = Path(path).read_text().splitlines()
    body = lines[lines.index("freq_hz,psd_value") + 1 :]
    data = np.array([[float(x) for x in row.split(",")] for row in body if row])
    return _csv_header(path), data[:, 0], data[:, 1]


def _metrics(path: Path) -> Dict[str, float]:
    return {record["metric"]: record["value"] for record in json.loads(Path(path).read_text())}


def peak_one_compare(est_f, est_v, ref_f, ref_v) -> Tuple[float, float]:
    """NMSE (dB) and cosine of the estimate against the reference, both scaled to peak 1.

    The estimate is restricted to the overlap of the two frequency spans and
    the reference is linearly interpolated onto the kept grid points.
    """
    keep = (est_f >= max(est_f[0], ref_f[0])) & (est_f <= min(est_f[-1], ref_f[-1]))
    a = est_v[keep]
    b = np.interp(est_f[keep], ref_f, ref_v)
    a, b = a / a.max(), b / b.max()
    nmse = 10.0 * np.log10(np.sum((a - b) ** 2) / np.sum(b * b))
    cosine = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return float(nmse), cosine


# -- per-workload checks ------------------------------------------------------


def _check_estimate(
    outdir: Path, preset: str, num_frames: int, nmse_max: float, cosine_min: float
) -> Tuple[List[str], Dict[str, Path]]:
    problems = []
    header, est_f, est_v = read_curve(outdir / f"{preset}_estimated.csv")
    _, ref_f, ref_v = read_curve(outdir / f"{preset}_analytic.csv")
    if header.get("num_segments") != str(num_frames):
        problems.append(f"estimate averaged {header.get('num_segments')} segments, expected {num_frames}")
    nmse, cosine = peak_one_compare(est_f, est_v, ref_f, ref_v)
    if not nmse <= nmse_max:
        problems.append(f"estimate-vs-analytic NMSE {nmse:.3f} dB above {nmse_max} dB")
    if not cosine >= cosine_min:
        problems.append(f"estimate-vs-analytic cosine {cosine:.6f} below {cosine_min}")
    written = _metrics(outdir / f"{preset}_metrics.json")
    if abs(written.get("nmse_db", np.inf) - nmse) > 1e-6:
        problems.append(f"written nmse_db {written.get('nmse_db')} disagrees with recomputed {nmse}")
    if abs(written.get("cosine_similarity", np.inf) - cosine) > 1e-9:
        problems.append(
            f"written cosine_similarity {written.get('cosine_similarity')} disagrees with recomputed {cosine}"
        )
    curves = {
        "analytic": outdir / f"{preset}_analytic.csv",
        "estimated": outdir / f"{preset}_estimated.csv",
    }
    return problems, curves


def _check_sinc_estimate(outdir: Path) -> Tuple[List[str], Dict[str, Path]]:
    # The floors gate 4 of the acceptance tests applies to the sinc filter.
    return _check_estimate(outdir, "lte-otfs-columns", 2048, -12.0, 0.98)


def _check_rect_stream(outdir: Path) -> Tuple[List[str], Dict[str, Path]]:
    return _check_estimate(outdir, "lte-otfs-rows", 10000, -25.0, 0.999)


_LTE_REPORT = {
    "subcarrier_spacing_hz": 15000.0,
    "occupied_subcarriers": 1201,
    "guard_subcarriers": 847,
    "occupied_bandwidth_hz": 18015000.0,
    "sample_rate_hz": 30720000.0,
}


def _check_analytic_lte(outdir: Path) -> Tuple[List[str], Dict[str, Path]]:
    problems = []
    report = json.loads((outdir / "lte_ofdm_bandwidth.json").read_text())
    for key, expected in _LTE_REPORT.items():
        if report.get(key) != expected or type(report.get(key)) is not type(expected):
            problems.append(f"bandwidth report {key} = {report.get(key)!r}, expected {expected!r}")
    return problems, {"psd": outdir / "lte_ofdm_psd.csv"}


_NSLP_PAYLOAD = 19200


def _check_nslp_precode(outdir: Path) -> Tuple[List[str], Dict[str, Path]]:
    problems = []
    written = _metrics(outdir / "lte_nslp_metrics.json")
    if not written.get("worst_null_bin_leak", np.inf) <= 1e-9:
        problems.append(f"worst masked-bin leak {written.get('worst_null_bin_leak')} above 1e-9")
    if not written.get("suppression_db", -np.inf) >= 40.0:
        problems.append(f"written suppression {written.get('suppression_db')} dB below 40 dB")
    if written.get("payload_dimensions") != _NSLP_PAYLOAD:
        problems.append(f"payload_dimensions {written.get('payload_dimensions')}, expected {_NSLP_PAYLOAD}")

    mask = json.loads((outdir / "lte_nslp_mask.json").read_text())
    num_bins = mask["num_delay"] * mask["num_doppler"]
    null_bins = np.asarray(mask["null_bins"], dtype=np.int64)
    if num_bins - null_bins.size != _NSLP_PAYLOAD:
        problems.append(f"mask keeps {num_bins - null_bins.size} bins, expected {_NSLP_PAYLOAD}")
    _, _, values = read_curve(outdir / "lte_nslp_psd.csv")
    natural = np.mod(np.arange(num_bins) - num_bins // 2, num_bins)
    nulled = np.isin(natural, null_bins)
    out_max = values[nulled].max()
    suppression = np.inf if out_max == 0.0 else 10.0 * np.log10(values[~nulled].mean() / out_max)
    if not suppression >= 40.0:
        problems.append(f"recomputed suppression {suppression:.2f} dB below 40 dB")

    # One CSV row per precoder entry: M rows times the payload columns of every subcarrier.
    text = (outdir / "lte_nslp_precoders.csv").read_bytes()
    column_row = b"subcarrier,row,col,re,im\n"
    entries = text.count(b"\n") - text[: text.index(column_row)].count(b"\n") - 1
    if entries != mask["num_delay"] * _NSLP_PAYLOAD:
        problems.append(f"precoder CSV holds {entries} entries, expected {mask['num_delay'] * _NSLP_PAYLOAD}")
    return problems, {"psd": outdir / "lte_nslp_psd.csv"}


_CHECKS = {
    "sinc-estimate": _check_sinc_estimate,
    "rect-stream": _check_rect_stream,
    "analytic-lte": _check_analytic_lte,
    "nslp-precode": _check_nslp_precode,
}


def _seed_free(workload: str, curve: str) -> bool:
    # Analytic curves are closed-form in the config, which the seed does not enter.
    return curve == "analytic" or workload == "analytic-lte"


def _manifest_problems(workload: str, outdir: Path) -> List[str]:
    preset = WORKLOADS[workload][0]
    manifest = json.loads((outdir / f"{preset}_manifest.json").read_text())
    problems = []
    if manifest.get("preset") != preset:
        problems.append(f"manifest names preset {manifest.get('preset')!r}, expected {preset!r}")
    for path in map(Path, manifest["files"].values()):
        if path.suffix == ".csv" and _csv_header(path).get("config_hash") != manifest["config_hash"]:
            problems.append(f"{path.name} carries another config hash than the manifest")
    return problems


def check(
    workload: str, outdir: Path, seed: int, reference: Optional[Dict[str, np.ndarray]] = None
) -> List[str]:
    """Problems found in one sample's output directory; empty when it is correct.

    Every seed gets the workload's physical checks.  Curves that do not
    depend on the seed are compared with ``reference`` on every seed, and
    the seed-dependent ones on ``DEFAULT_SEED`` only.
    """
    outdir = Path(outdir)
    try:
        problems = _manifest_problems(workload, outdir)
        found, curves = _CHECKS[workload](outdir)
        problems += found
        if reference is not None:
            for curve, path in curves.items():
                if seed == DEFAULT_SEED or _seed_free(workload, curve):
                    problems += _reference_problems(f"{workload}/{curve}", path, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        problems = [f"output unreadable: {type(err).__name__}: {err}"]
    return problems


def _reference_problems(key: str, path: Path, reference: Dict[str, np.ndarray]) -> List[str]:
    _, freqs, values = read_curve(path)
    ref_freqs, ref_values = reference[f"{key}/freqs"], reference[f"{key}/values"]
    if freqs.shape != ref_freqs.shape:
        return [f"{key}: {freqs.size} points, reference has {ref_freqs.size}"]
    problems = []
    for label, got, want in (("frequencies", freqs, ref_freqs), ("values", values, ref_values)):
        error = np.abs(got - want).max() / np.abs(want).max()
        if not error <= CURVE_TOLERANCE:
            problems.append(f"{key}: {label} differ from the reference by {error:.3e} of their peak")
    return problems


def load_reference() -> Dict[str, np.ndarray]:
    with np.load(REFERENCE_PATH) as data:
        return {key: data[key] for key in data.files}


def reference_curves(workload: str, outdir: Path) -> Dict[str, np.ndarray]:
    """The curves of one default-seed sample, keyed as ``reference.npz`` stores them."""
    _, curves = _CHECKS[workload](Path(outdir))
    arrays = {}
    for curve, path in curves.items():
        _, freqs, values = read_curve(path)
        arrays[f"{workload}/{curve}/freqs"] = freqs
        arrays[f"{workload}/{curve}/values"] = values
    return arrays
