import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from otfspectrum import io as fileio
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


@pytest.mark.parametrize(
    "body, message",
    [("", "holds no samples"), ("0.5\n", "row 1 does not hold 2 fields"), ("0.5,x\n", "could not convert"),
     ("\n0.5,1\n\n0.5\n1,2,3\n", "row 2 does not hold 2 fields"), ("x,1\n0.5\n", "row 2 does not hold 2 fields")],
)
def test_malformed_frame_stream_body_names_the_file(tmp_path, body, message):
    """A header-only file, a one-field row and a cell that is not a number; the first ragged
    row is named, counting no blank line, before any cell is parsed."""
    path = tmp_path / "s.csv"
    path.write_text("# num_delay=1\n# num_doppler=1\n# sample_interval=1.0\n# num_frames=1\nre,im\n" + body)
    with pytest.raises(ConfigurationError, match=message) as err:
        read_frame_stream(path)
    assert str(path) in str(err.value)


_GOOD_HEADER = {"num_delay": "2", "num_doppler": "3", "sample_interval": "1.0", "num_frames": "1"}


def _six_sample_stream_file(path, header):
    path.write_text("".join(f"# {key}={value}\n" for key, value in header.items()) + "re,im\n" + "0.5,1\n" * 6)
    return path


@pytest.mark.parametrize(
    "field, changes",
    [("num_delay", {"num_delay": "-2", "num_doppler": "-3"}),  # -2 * -3 = 6 samples, as the body holds
     ("num_delay", {"num_delay": "0"}), ("num_doppler", {"num_doppler": "0"}), ("num_frames", {"num_frames": "0"}),
     ("num_doppler", {"num_doppler": "-3"}), ("num_delay", {"num_delay": "2.0"}),
     ("num_doppler", {"num_doppler": "x"}), ("num_frames", {"num_frames": "1.5"}),
     ("sample_interval", {"sample_interval": "0"}), ("sample_interval", {"sample_interval": "-1.0"}),
     ("sample_interval", {"sample_interval": "nan"}), ("sample_interval", {"sample_interval": "inf"}),
     ("sample_interval", {"sample_interval": "abc"}), ("seed", {"seed": "x"}), ("seed", {"seed": "1.5"})],
)
def test_malformed_frame_stream_header_names_the_file_and_the_field(tmp_path, field, changes):
    """Zero, negative and non-integer dims, a bad interval or a bad seed are refused, never made a stream."""
    path = _six_sample_stream_file(tmp_path / "s.csv", {**_GOOD_HEADER, **changes})
    with pytest.raises(ConfigurationError, match=f"header field {field} must be") as err:
        read_frame_stream(path)
    assert str(path) in str(err.value)


def test_frame_stream_header_seed_is_optional(tmp_path):
    assert read_frame_stream(_six_sample_stream_file(tmp_path / "a.csv", _GOOD_HEADER)).seed is None
    assert read_frame_stream(_six_sample_stream_file(tmp_path / "b.csv", {**_GOOD_HEADER, "seed": "None"})).seed is None
    assert read_frame_stream(_six_sample_stream_file(tmp_path / "c.csv", {**_GOOD_HEADER, "seed": "7"})).seed == 7


def _write_peak_bytes(path, frames):
    stream = generate_random_stream(VarianceProfile(np.ones((8, 64))), num_frames=frames, seed=0)
    tracemalloc.start()
    try:
        write_frame_stream(path, stream)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frame_stream_writer_memory_does_not_grow_with_rows(tmp_path):
    """16384 and 65536 rows peak alike: rows are formatted a bounded block at a time."""
    assert _write_peak_bytes(tmp_path / "4x.csv", 128) <= 1.05 * _write_peak_bytes(tmp_path / "1x.csv", 32)


def _read_peak_bytes(path, frames):
    """The read's ``tracemalloc`` peak and the size of the frames it returns."""
    stream = generate_random_stream(VarianceProfile(np.ones((8, 64))), num_frames=frames, seed=0)
    write_frame_stream(path, stream)
    tracemalloc.start()
    try:
        stream = read_frame_stream(path)
        return tracemalloc.get_traced_memory()[1], stream.frames.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("frames", [32, 128])
def test_frame_stream_reader_memory_is_the_array_plus_a_constant(tmp_path, frames):
    """16384 and 65536 rows: the body is parsed a row block at a time into one array, not held as text."""
    peak, returned = _read_peak_bytes(tmp_path / "s.csv", frames)
    assert peak <= 2 * returned + 2**21


def test_frame_stream_reader_keeps_signed_zeros_and_infinities(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# num_delay=1\n# num_doppler=2\n# sample_interval=1.0\n# num_frames=1\nre,im\n"
                    "-0.0,inf\n5e-324,-0.0\n")
    samples = read_frame_stream(path).frames[0]
    assert np.signbit(samples.real).tolist() == [True, False] and samples.real[1] == 5e-324
    assert samples.imag.tolist() == [np.inf, 0.0] and np.signbit(samples.imag[1])


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(alphabet="a,1\n\r\x0c\x1c\x85\u2028 "), read_chars=st.integers(1, 5))
@example(text="a\r\nb\r\n\r\n", read_chars=2)
def test_line_batches_split_as_splitlines_splits_the_whole_text(tmp_path, text, read_chars):
    """Reads of a few characters cut lines, and pairs like \\r\\n, everywhere."""
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    with mock.patch.object(fileio, "_READ_CHARS", read_chars):
        lines = [line for batch in fileio._line_batches(path) for line in batch]
    assert lines == path.read_text().splitlines()


def _split_table(path, block):
    """Write eight one-row blocks as a one-column table cut into two row ranges, one per process."""
    with mock.patch.object(fileio, "_ROW_BLOCK", 1), mock.patch.object(fileio, "_SPLIT_ROW_BLOCKS", 1), \
            mock.patch.object(fileio, "_cpu_count", lambda: 2):
        return fileio._write_table(path, {"format": "test"}, ["n"], [1] * 8, block)


@pytest.mark.parametrize(
    "bad_block, error", [(0, ValueError), (7, OSError)], ids=["in-this-process", "in-the-child"]
)
def test_a_failing_row_range_raises_and_leaves_no_process_or_file(tmp_path, bad_block, error):
    """A block that cannot be built, among this process's rows or the forked child's."""
    failing = []

    def block(index):
        if index in failing:
            raise ValueError(f"block {index} cannot be built")
        return (np.array([index]),)

    good = _split_table(tmp_path / "good.csv", block).read_text()
    assert good == "# format=test\nn\n" + "".join(f"{n}\n" for n in range(8))
    failing.append(bad_block)
    spills = []

    def temporary_file(*args, **kwargs):
        spills.append(make_temporary_file(*args, **kwargs))
        return spills[-1]

    make_temporary_file = tempfile.TemporaryFile
    with mock.patch.object(fileio.tempfile, "TemporaryFile", temporary_file), pytest.raises(error):
        _split_table(tmp_path / "bad.csv", block)
    assert len(spills) == 1 and spills[0].closed
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.csv", "good.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("value", [1j, np.int64(3), {1.5}])
def test_metrics_with_a_value_that_is_not_json_are_rejected_unwritten(tmp_path, value):
    path = tmp_path / "m.json"
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_metrics(path, [{"metric": "x", "value": value, "config_hash": "h"}])
    assert not path.exists()


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


@pytest.mark.parametrize("row_block", [1, 5])
def test_tables_split_into_row_blocks_write_the_same_rows(tmp_path, row_block):
    """Row blocks that cut through subcarriers and through the stream change no byte."""
    precoders = build_precoders(decompose_mask([1, 2, 5, 9, 11], 3, 4), "systematic")
    stream = generate_random_stream(VarianceProfile(np.ones((3, 4))), num_frames=5, seed=11)
    with mock.patch.object(fileio, "_ROW_BLOCK", row_block):
        text = write_precoder_set(tmp_path / "p.csv", precoders).read_text()
        stream_path = write_frame_stream(tmp_path / "s.csv", stream)
    assert text.split("subcarrier,row,col,re,im\n", 1)[1] == _entry_rows_by_loop(precoders)
    assert_array_equal(read_frame_stream(stream_path).frames, stream.frames)


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
