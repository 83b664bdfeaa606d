"""Fuzzed input ends in exit 0 or exit 2, never a traceback.

Each example runs ``cli.main`` in-process on a config file, a mask file or
two PSD CSVs whose values are arbitrary JSON (or text): nulls, bools,
integers, floats including +-inf, NaN and the edges of the float64 range,
strings, and nested lists and tables.  A valid base config is edited at a
few keys, so examples reach past validation into the pipelines; a config
that validation accepts must derive a finite sample rate and interval and
a finite, increasing PSD grid.  Sizes are drawn small so that each
example stays cheap; a well-formed but huge size (``psd.num_points: 1e11``,
``stream.num_frames: 10**9``) is a valid request for a long run and is out
of scope here.
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from otfspectrum.cli import main
from otfspectrum.errors import ConfigurationError
from otfspectrum.presets import ScenarioConfig

#: Every key a scenario config may hold, plus a few it may not.
FUZZED_KEYS = (
    "seed", "preset", "grid", "profile", "filter", "stream", "psd", "mask", "precoder", "output",
    "grid.num_delay", "grid.num_doppler", "grid.sample_interval", "grid.sample_rate",
    "profile.pattern", "profile.budget", "profile.columns", "profile.uniform", "profile.sigma2",
    "filter.kind", "filter.order", "filter.oversampling",
    "stream.num_frames", "stream.constellation", "stream.frame_counts",
    "psd.num_points", "psd.band", "psd.segment_frames",
    "mask.null_bins", "mask.pass_bands_hz", "mask.path",
    "precoder.form", "output.directory", "turbo", "grid.turbo",
)
MASK_KEYS = (
    "M", "N", "T_s", "num_delay", "num_doppler", "sample_interval", "null_bins", "pass_bands_hz",
)
DELETE = object()

#: Floats whose reciprocals, differences or products overflow float64.
EXTREMES = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 1e308, 1e300, -1e300, 5e-324, 1e-300]
)
#: Valid-looking positive scales, and band edges, drawn from that range's ends.
SCALES = st.sampled_from([1.0, 1e300, 1e308, 1e-300, 5e-324])
EDGES = st.sampled_from([0.0, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308, 5e-324])

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(-3.0, 3.0),
    EXTREMES,
    st.sampled_from(["", "1", "qpsk", "rect", "head_tail_rows", "systematic", "example1"]),
)
EXTREME_PAIRS = st.lists(EXTREMES | st.floats(-3.0, 3.0), min_size=2, max_size=2)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)

BASE = {
    "seed": 1,
    "grid": {"num_delay": 2, "num_doppler": 4, "sample_interval": 1.0},
    "profile": {"uniform": 1.0},
    "stream": {"num_frames": 3},
    "psd": {"num_points": 16},
}
COMMANDS = (
    ["generate"],
    ["psd-analytic", "--waveform", "otfs"],
    ["psd-analytic", "--waveform", "ofdm"],
    ["psd-analytic", "--waveform", "cep-ofdm", "--delay-index", "1"],
    ["psd-estimate"],
    ["precode"],
)
FUZZ = settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _edited(base: dict, edits: dict) -> dict:
    """``base`` with each dotted key of ``edits`` set to its value (or deleted)."""
    out = json.loads(json.dumps(base))
    for dotted, value in edits.items():
        *sections, key = dotted.split(".")
        body = out
        for section in sections:
            if not isinstance(body.get(section), dict):
                body[section] = {}
            body = body[section]
        if value is DELETE:
            body.pop(key, None)
        else:
            body[key] = value
    return out


def _assert_exit_0_or_2(argv) -> None:
    code = main([str(a) for a in argv])
    assert code in (0, 2), f"exit {code} for {argv}"


def _assert_accepted_config_derives_finite_values(raw: dict) -> None:
    """Sample rate and interval, the PSD grid and the comb's argument f*M*N*T: finite, grid increasing."""
    try:
        config = ScenarioConfig.from_dict(raw)
    except ConfigurationError:
        return
    freqs = config.freq_grid()
    with np.errstate(all="ignore"):
        scaled = freqs * (config.num_delay * config.num_doppler * config.sample_interval)
    assert np.isfinite([config.sample_rate, config.sample_interval]).all(), raw
    assert np.all(np.diff(freqs) > 0) and np.isfinite(scaled).all(), raw


@settings(FUZZ, max_examples=80)
@given(
    command=st.sampled_from(COMMANDS),
    mask=st.sampled_from([None, {"null_bins": [1, 5]}, {"pass_bands_hz": [[-0.25, 0.25]]}]),
    edits=st.dictionaries(
        st.sampled_from(FUZZED_KEYS),
        JSON | EXTREME_PAIRS | st.just(DELETE),
        min_size=1,
        max_size=2,
    ),
)
def test_fuzzed_config_is_exit_0_or_2(tmp_path, command, mask, edits):
    _check_edited_config(tmp_path, command, mask, edits)


def _check_edited_config(tmp_path, command, mask, edits) -> None:
    # Leave out the sections the command does not read, which it would refuse.
    unread = {"psd-analytic": ("stream", "mask"), "precode": ("profile", "psd")}.get(command[0], ("psd", "mask"))
    base = {k: v for k, v in {**BASE, "mask": mask}.items() if k not in unread and v is not None}
    raw = _edited(base, edits)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    stream = ["--stream-out", tmp_path / "stream.csv"] if command == ["precode"] else []
    _assert_exit_0_or_2([*command, "--config", config, "--out", tmp_path / "out.csv", *stream])
    _assert_accepted_config_derives_finite_values(raw)


@FUZZ
@example(edits={"grid.sample_interval": 5e-324})
@example(edits={"psd.band": [-1e300, 1e308]})
@given(
    edits=st.fixed_dictionaries(
        {},
        optional={
            "grid.sample_interval": SCALES | st.just(DELETE),
            "grid.sample_rate": SCALES,
            "psd.band": st.lists(EDGES, min_size=2, max_size=2).map(sorted),
            "psd.num_points": st.integers(2, 9),
        },
    ),
)
def test_fuzzed_rate_and_band_derive_finite_values(tmp_path, edits):
    """Valid-looking values at the edges of the float64 range, in the keys that derive others."""
    _check_edited_config(tmp_path, COMMANDS[1], None, edits)


@FUZZ
@given(
    spec=JSON | st.dictionaries(st.sampled_from(MASK_KEYS), JSON, max_size=2).map(
        lambda edits: {"M": 2, "N": 4, "null_bins": [1], **edits}
    ),
)
def test_fuzzed_mask_file_is_exit_0_or_2(tmp_path, spec):
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps(spec))
    _assert_exit_0_or_2([
        "precode", "--seed", 1, "--num-delay", 2, "--num-doppler", 4, "--sample-interval", 1.0,
        "--frames", 2, "--mask-file", mask, "--out", tmp_path / "p.csv",
        "--stream-out", tmp_path / "s.csv",
    ])


CELLS = st.one_of(
    st.floats(-4.0, 4.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "x", "1e400"]),
)
ROWS = st.lists(st.lists(CELLS, min_size=1, max_size=3).map(",".join), max_size=5)
HEADERS = st.lists(st.sampled_from(["# normalization=peak_one", "# normalization=dB", "# x"]), max_size=2)


@settings(FUZZ, max_examples=30)
@given(
    curves=st.lists(st.tuples(HEADERS, ROWS), min_size=2, max_size=2),
    band=st.none() | st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=2, max_size=2),
)
def test_fuzzed_psd_csvs_are_exit_0_or_2(tmp_path, curves, band):
    paths = []
    for name, (headers, rows) in zip(("est.csv", "ref.csv"), curves):
        paths.append(tmp_path / name)
        paths[-1].write_text("\n".join([*headers, "freq_hz,psd_value", *rows]) + "\n")
    argv = ["compare", "--estimated", paths[0], "--reference", paths[1]]
    _assert_exit_0_or_2(argv + ([] if band is None else ["--band", *band]))
