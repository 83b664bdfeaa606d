import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from otfspectrum.errors import ConfigurationError
from otfspectrum.io import (
    config_hash,
    load_mask,
    read_frame_stream,
    read_metrics,
    read_psd_curve,
    write_frame_stream,
    write_mask,
    write_metrics,
    write_psd_curve,
    write_precoder_set,
)
from otfspectrum.precoding import PrecoderSet, build_precoders, decompose_mask
from otfspectrum.psd import PsdCurve
from otfspectrum.waveform import VarianceProfile, generate_random_stream


def test_config_hash_is_order_insensitive_and_stable():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 12
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_frame_stream_roundtrip_is_exact(tmp_path):
    profile = VarianceProfile(np.ones((3, 4)))
    stream = generate_random_stream(profile, num_frames=5, seed=11, sample_interval=0.5)
    path = tmp_path / "stream.csv"
    write_frame_stream(path, stream, extra_header={"config_hash": "abc123"})
    back = read_frame_stream(path)
    assert_array_equal(back.frames, stream.frames)
    assert back.num_delay == 3
    assert back.num_doppler == 4
    assert back.sample_interval == 0.5
    assert back.seed == 11


def test_frame_stream_file_is_reproducible(tmp_path):
    profile = VarianceProfile(np.ones((2, 2)))
    stream = generate_random_stream(profile, num_frames=3, seed=0)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_frame_stream(p1, stream)
    write_frame_stream(p2, stream)
    assert p1.read_bytes() == p2.read_bytes()


def test_frame_stream_header_and_rows(tmp_path):
    profile = VarianceProfile(np.ones((1, 2)))
    stream = generate_random_stream(profile, num_frames=1, seed=3)
    path = tmp_path / "s.csv"
    write_frame_stream(path, stream)
    lines = path.read_text().splitlines()
    assert lines[0] == "# format=otfspectrum-framestream-v1"
    assert "# num_delay=1" in lines
    assert "re,im" in lines
    # repr-formatted doubles, no numpy scalar wrappers
    data_rows = [l for l in lines if not l.startswith("#") and l != "re,im"]
    assert len(data_rows) == 2
    for row in data_rows:
        re, im = row.split(",")
        float(re), float(im)
        assert "np." not in row


def test_frame_stream_sample_count_check(tmp_path):
    profile = VarianceProfile(np.ones((2, 2)))
    stream = generate_random_stream(profile, num_frames=2, seed=0)
    path = write_frame_stream(tmp_path / "s.csv", stream)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # drop one sample row
    with pytest.raises(ConfigurationError, match="samples"):
        read_frame_stream(path)


def test_frame_stream_missing_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("re,im\n1.0,2.0\n")
    with pytest.raises(ConfigurationError, match="header"):
        read_frame_stream(path)


def test_psd_curve_roundtrip(tmp_path):
    curve = PsdCurve(
        freqs=np.linspace(-2.0, 2.0, 9),
        values=np.abs(np.linspace(-1.0, 1.0, 9)) + 0.5,
        meta={"waveform": "otfs", "sample_rate": 4.0},
    )
    path = write_psd_curve(tmp_path / "c.csv", curve, extra_header={"config_hash": "h"})
    back = read_psd_curve(path)
    assert_array_equal(back.freqs, curve.freqs)
    assert_array_equal(back.values, curve.values)
    assert back.normalization == "absolute"
    assert back.meta["waveform"] == "otfs"
    assert back.meta["config_hash"] == "h"


def test_psd_empty_file_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# format=otfspectrum-psd-v1\nfreq_hz,psd_value\n")
    with pytest.raises(ConfigurationError, match="no samples"):
        read_psd_curve(path)


def test_metrics_roundtrip_and_validation(tmp_path):
    records = [
        {"metric": "nmse_db", "value": -41.5, "config_hash": "deadbeef0123"},
        {"metric": "cosine_similarity", "value": 0.9991, "config_hash": "deadbeef0123"},
    ]
    path = write_metrics(tmp_path / "m.json", records)
    assert read_metrics(path) == records
    with pytest.raises(ConfigurationError, match="config_hash"):
        write_metrics(tmp_path / "bad.json", [{"metric": "x", "value": 1.0}])


def test_mask_roundtrip(tmp_path):
    mask = decompose_mask([3, 11, 19], 4, 8)
    path = write_mask(tmp_path / "mask.json", mask, sample_interval=0.25)
    spec = json.loads(path.read_text())
    assert spec["null_bins"] == [3, 11, 19]
    assert spec["sample_interval"] == 0.25
    back = load_mask(path)
    assert_array_equal(back.null_bins, mask.null_bins)
    assert back.num_delay == 4 and back.num_doppler == 8


def test_load_mask_accepts_short_aliases():
    mask = load_mask({"M": 2, "N": 4, "null_bins": [1, 5]})
    assert mask.num_delay == 2
    assert mask.num_doppler == 4
    assert_array_equal(mask.null_bins, [1, 5])


def test_load_mask_pass_bands_needs_interval():
    with pytest.raises(ConfigurationError, match="sample_interval"):
        load_mask({"M": 2, "N": 4, "pass_bands_hz": [[-0.25, 0.25]]})
    mask = load_mask({"M": 2, "N": 4, "T_s": 1.0, "pass_bands_hz": [[-0.25, 0.25]]})
    assert mask.null_bins.size == 4


def test_load_mask_requires_some_spec():
    with pytest.raises(ConfigurationError, match="null_bins"):
        load_mask({"M": 2, "N": 4})
    with pytest.raises(ConfigurationError, match="grid"):
        load_mask({"null_bins": [0]})


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"M": 4, "N": 8, "null_bins": 5}, "null_bins"),
        ({"M": 4, "N": 8, "null_bins": [2.5]}, "null_bins"),
        ({"M": 4, "N": 8, "T_s": 1.0, "pass_bands_hz": [["a", "b"]]}, "pass_bands_hz"),
        ({"M": 4.9, "N": 8, "null_bins": [1]}, "num_delay"),
        ([{"M": 4, "N": 8, "null_bins": [1]}], "JSON object"),
    ],
)
def test_malformed_mask_file_is_a_configuration_error(tmp_path, spec, key):
    path = tmp_path / "mask.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ConfigurationError, match=key):
        load_mask(path)


def test_precoder_dump_lists_every_entry(tmp_path):
    mask = decompose_mask([2, 9], 3, 4)
    precoders = build_precoders(mask)
    path = write_precoder_set(tmp_path / "p.csv", precoders)
    lines = path.read_text().splitlines()
    assert lines[0] == "# format=otfspectrum-precoders-v1"
    assert "# form=null_space" in lines
    assert "# null_bins=2,9" in lines
    data = [l for l in lines if not l.startswith("#")][1:]
    expected_rows = sum(m.size for m in precoders.matrices)
    assert len(data) == expected_rows
    k, r, c, re, im = data[0].split(",")
    assert (int(k), int(r), int(c)) == (0, 0, 0)
    float(re), float(im)


def _entry_rows_by_loop(precoders) -> str:
    """The precoder CSV body, one formatted entry at a time (the writer's reference)."""
    rows = []
    for k, matrix in enumerate(precoders.matrices):
        for r in range(matrix.shape[0]):
            for c in range(matrix.shape[1]):
                value = matrix[r, c]
                rows.append(f"{k},{r},{c},{float(value.real)!r},{float(value.imag)!r}\n")
    return "".join(rows)


@pytest.mark.parametrize("form", ["null_space", "systematic"])
def test_precoder_dump_matches_the_per_entry_loop(tmp_path, form):
    # subcarrier 1 is fully masked (no payload columns); the others keep 1-3 rows
    mask = decompose_mask([1, 2, 5, 9, 11], 3, 4)
    precoders = build_precoders(mask, form)
    text = write_precoder_set(tmp_path / "p.csv", precoders).read_text()
    body = text.split("subcarrier,row,col,re,im\n", 1)[1]
    assert body == _entry_rows_by_loop(precoders)


_ODD_ENTRIES = np.array(
    [complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.nan, -np.inf), complex(np.inf, np.nan),
     complex(5e-324, -2.5e-310), complex(-1e-320, 1.0), complex(1e300, -1.5), complex(-0.1, 0.1)]
)


@pytest.mark.parametrize(
    "shapes",
    [[(3, 2), (3, 2), (3, 0), (3, 1)], [(2, 4), (2, 1), (2, 4), (2, 2)], [(2, 2)] * 4],
)
def test_precoder_dump_of_signed_zeros_nan_inf_and_subnormals(tmp_path, shapes):
    """Hand-built matrices, shapes repeated, so the writer's per-shape cell prefixes are reused."""
    matrices = []
    for i, shape in enumerate(shapes):
        size = shape[0] * shape[1]
        matrices.append(_ODD_ENTRIES[(np.arange(size) + 2 * i) % _ODD_ENTRIES.size].reshape(shape))
    precoders = PrecoderSet(mask=decompose_mask([], shapes[0][0], 4), form="systematic", matrices=matrices)
    text = write_precoder_set(tmp_path / "p.csv", precoders).read_text()
    body = text.split("subcarrier,row,col,re,im\n", 1)[1]
    assert body == _entry_rows_by_loop(precoders)
    assert "-0.0," in body and "nan," in body and "-inf\n" in body and "5e-324," in body
