import json
import os
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from otfspectrum import io as fileio
from otfspectrum import presets
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
from otfspectrum.presets import preset_config
from otfspectrum.psd import PsdCurve
from otfspectrum.waveform import FrameStream, VarianceProfile, generate_random_stream


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
    [("", "holds no samples"),
     ("0.5\n", "line 6: '0.5' is not 2 comma-separated numbers"),
     ("0.5,x\n", "line 6: '0.5,x' is not 2 comma-separated numbers"),
     ("\n0.5,1\n\n0.5\n1,2,3\n", "line 9: '0.5' is not 2 comma-separated numbers"),
     ("x,1\n0.5\n", "line 6: 'x,1' is not 2 comma-separated numbers"),
     ("1,2,3\n1,2,3\n", "line 6: '1,2,3' is not 2 comma-separated numbers")],
)
def test_malformed_frame_stream_body_names_the_file(tmp_path, body, message):
    """A header-only file, a short or wide row and a cell that is not a number: the message names
    the first bad line by its number in the file, counting the header, blank and ``#`` lines."""
    path = tmp_path / "s.csv"
    path.write_text("# num_delay=1\n# num_doppler=1\n# sample_interval=1.0\n# num_frames=1\nre,im\n" + body)
    with pytest.raises(ConfigurationError, match=message) as err:
        read_frame_stream(path)
    assert str(path) in str(err.value)


def test_a_bad_row_deep_in_the_body_is_named_by_its_file_line(tmp_path):
    """Past the first row block, after blank, ``#`` and commented lines: lines 6-5005 and 5009-5018 are good."""
    body = "0.5,1\n" * 5000 + "\n\n# a note\n" + "0.5,1 # a note\n" * 10 + "\n0.5,y\n0.5\n"
    path = tmp_path / "s.csv"
    path.write_text("# num_delay=1\n# num_doppler=1\n# sample_interval=1.0\n# num_frames=5010\nre,im\n" + body)
    with pytest.raises(ConfigurationError) as err:
        read_frame_stream(path)
    assert str(err.value) == f"frame-stream file {path}, line 5020: '0.5,y' is not 2 comma-separated numbers"


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
    _write_peak_bytes(tmp_path / "warm.csv", 1)  # modules imported on a first write are not its memory
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
    """16384 and 65536 rows: ``np.loadtxt`` parses the body into one array, never holding it as text."""
    peak, returned = _read_peak_bytes(tmp_path / "s.csv", frames)
    assert peak <= 2 * returned + 2**21


def test_frame_stream_reader_keeps_signed_zeros_and_infinities(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# num_delay=1\n# num_doppler=2\n# sample_interval=1.0\n# num_frames=1\nre,im\n"
                    "-0.0,inf\n5e-324,-0.0\n")
    samples = read_frame_stream(path).frames[0]
    assert np.signbit(samples.real).tolist() == [True, False] and samples.real[1] == 5e-324
    assert samples.imag.tolist() == [np.inf, 0.0] and np.signbit(samples.imag[1])


def _same_doubles(got, expected):
    """Bit for bit, where any nan matches any nan."""
    got, expected = np.ravel(got), np.ravel(expected)
    nan = np.isnan(expected)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == expected[~nan].tobytes()


#: Any double: hypothesis's floats (+-0, subnormals, +-inf, nan) and uniform random bit patterns.
_DOUBLES = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))))


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(samples=st.lists(st.tuples(_DOUBLES, _DOUBLES), min_size=1, max_size=12),
       points=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=12, unique_by=lambda point: point[0]))
def test_tables_read_back_every_double_bit_for_bit(tmp_path, samples, points):
    """A frame stream of any doubles and a PSD curve of finite ones, written then read."""
    parts = np.array(samples)
    stream = FrameStream(parts.view(np.complex128).reshape(1, -1), 1, len(samples), 1.0)
    assert _same_doubles(read_frame_stream(write_frame_stream(tmp_path / "s.csv", stream)).frames.view(float), parts)
    freqs, values = np.array(sorted(points)).T
    curve = read_psd_curve(write_psd_curve(tmp_path / "c.csv", PsdCurve(freqs, values)))
    assert _same_doubles(curve.freqs, freqs) and _same_doubles(curve.values, values)


@contextmanager
def _tables_split(cpus, row_block=1):
    """``row_block``-row row blocks and no minimum share, so even small tables are cut into one range per CPU."""
    with mock.patch.object(fileio, "_ROW_BLOCK", row_block), mock.patch.object(fileio, "_SPLIT_ROW_BLOCKS", 1), \
            mock.patch.object(fileio, "_cpu_count", lambda: cpus):
        yield


def _split_table(path, block, cpus=2):
    """Write eight one-row blocks as a one-column table cut into row ranges, one per CPU."""
    with _tables_split(cpus):
        return fileio._write_table(path, {"format": "test"}, ["n"], [1] * 8, block)


_EIGHT_ROWS = "# format=test\nn\n" + "".join(f"{n}\n" for n in range(8))


def test_a_table_is_written_by_one_process_while_another_thread_runs(tmp_path):
    """A fork copies only the forking thread, so a lock another thread holds would stay held in the child."""
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with mock.patch.object(fileio, "_fork_rows", wraps=fileio._fork_rows) as fork_rows:
            text = _split_table(tmp_path / "t.csv", lambda index: (np.array([index]),)).read_text()
            with mock.patch.object(fileio, "_cpu_count", lambda: 2):
                assert fileio._row_ranges(1 << 30) == [(0, 1 << 30)]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and fork_rows.call_count == 0
    assert text == _EIGHT_ROWS
    assert len(fileio._row_ranges(1 << 30)) == fileio._cpu_count()


@contextmanager
def _spills():
    """The list of every spill file ``_fork_rows`` opens in the block, kept to check that each is closed."""
    files, make = [], tempfile.TemporaryFile

    def opened(*args, **kwargs):
        files.append(make(*args, **kwargs))
        return files[-1]

    with mock.patch.object(fileio.tempfile, "TemporaryFile", opened):
        yield files


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "bad_block, cpus, error, spills",
    [(0, 2, OSError, 2), (7, 2, OSError, 2), (5, 3, OSError, 3), (3, 1, ValueError, 0)],
    ids=["first-writer", "last-writer", "middle-writer", "inline"],
)
def test_a_failing_row_range_raises_and_leaves_no_process_or_file(tmp_path, bad_block, cpus, error, spills):
    """A block that cannot be built, in any forked writer's rows or, with one CPU, in this process's."""
    failing = []

    def block(index):
        if index in failing:
            raise ValueError(f"block {index} cannot be built")
        return (np.array([index]),)

    assert _split_table(tmp_path / "good.csv", block, cpus).read_text() == _EIGHT_ROWS
    failing.append(bad_block)
    with _spills() as opened, pytest.raises(error):
        _split_table(tmp_path / "bad.csv", block, cpus)
    assert len(opened) == spills and all(spill.closed for spill in opened)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.csv", "good.csv"]
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_started_table_is_written_while_this_process_works_and_threads_run(tmp_path, cpus):
    """The writers fork at the start; a thread started before the finish does not change the bytes."""
    path = tmp_path / "t.csv"
    with _tables_split(cpus), _spills() as opened:
        with fileio._start_table(path, {"format": "test"}, ["n"], [1] * 8, lambda i: (np.array([i]),)) as finish:
            assert len(opened) == (cpus if cpus > 1 else 0) and not path.exists()
            worker = threading.Thread(target=lambda: None)
            worker.start()
            worker.join()
            assert finish() == path
    assert path.read_text() == _EIGHT_ROWS and all(spill.closed for spill in opened)
    _assert_no_child_left()


@pytest.mark.parametrize("abandon", [KeyboardInterrupt, ValueError, None])
def test_an_abandoned_table_leaves_no_process_spill_or_file(tmp_path, abandon):
    """An exception between the start and the finish, or no finish at all: the writers are killed and reaped."""
    raised = pytest.raises(abandon) if abandon else nullcontext()
    with _tables_split(2), _spills() as opened, raised:
        with fileio._start_table(tmp_path / "t.csv", {"format": "test"}, ["n"], [3] * 2000, lambda i: (np.full(3, i),)):
            if abandon:
                raise abandon()
    assert len(opened) == 2 and all(spill.closed for spill in opened)
    _assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "body, message",
    [(b"# normalization=weird\nfreq_hz,psd_value\n0,1\n", "unknown normalization 'weird'"),
     (b"freq_hz,psd_value\n1,1\n0,1\n", "frequency grid must be strictly increasing"),
     (b"freq_hz,psd_value\n0,1\n1,inf\n", "PSD values must be finite"),
     (b"freq_hz,psd_value\n0,1\xff\n", "'utf-8' codec can't decode byte 0xff")],
)
def test_a_psd_file_that_is_no_curve_names_the_file(tmp_path, body, message):
    path = tmp_path / "c.csv"
    path.write_bytes(b"# format=otfspectrum-psd-v1\n" + body)
    with pytest.raises(ConfigurationError, match=message) as err:
        read_psd_curve(path)
    assert str(path) in str(err.value)


def test_a_table_of_another_format_is_refused(tmp_path):
    """A frame stream read as a PSD curve, and back; a file without a format line is still read."""
    stream = write_frame_stream(tmp_path / "s.csv", generate_random_stream(VarianceProfile(np.ones((1, 2))), 1, seed=4))
    curve = write_psd_curve(tmp_path / "c.csv", PsdCurve(np.arange(2.0), np.ones(2)))
    for read, path, what, found, expected in [
        (read_psd_curve, stream, "PSD", "otfspectrum-framestream-v1", "otfspectrum-psd-v1"),
        (read_frame_stream, curve, "frame-stream", "otfspectrum-psd-v1", "otfspectrum-framestream-v1"),
    ]:
        with pytest.raises(ConfigurationError) as err:
            read(path)
        assert str(err.value) == f"{what} file {path} holds format {found!r}, not {expected!r}"
    curve.write_text(curve.read_text().replace("# format=otfspectrum-psd-v1\n", ""))
    assert_array_equal(read_psd_curve(curve).values, np.ones(2))


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


# ---------------------------------------------------------------------------
# the NSLP precoder dump, formatted by forked writers while the estimate runs
# ---------------------------------------------------------------------------

_NSLP_SMALL = {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": 24}}
_NSLP_FILES = ("lte_nslp_psd.csv", "lte_nslp_precoders.csv", "lte_nslp_mask.json", "lte_nslp_metrics.json")


@pytest.mark.parametrize(
    "cpus, foreign, writers", [(1, False, 0), (2, False, 4), (3, False, 6), (2, True, 0)],
    ids=["one-cpu", "two-cpus", "three-cpus", "foreign-thread"],
)
def test_nslp_files_keep_their_bytes_however_the_dump_is_written(tmp_path, cpus, foreign, writers):
    """Forked writers for each CPU, or inline with one CPU or another thread alive: the files of one process.

    The precoder dump and then the PSD curve fork one writer per CPU each,
    every fork while this thread is the only one: the dump's before the
    estimate's producer thread starts, the curve's after it is joined.
    """
    config = preset_config("lte-otfs-nslp", _NSLP_SMALL)
    presets.run_scenario(config, tmp_path / "reference")
    threads_at_forks, fork_rows = [], fileio._fork_rows

    def forked(*args):
        threads_at_forks.append(threading.active_count())
        return fork_rows(*args)

    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if foreign:
        other.start()
    try:
        with _tables_split(cpus, 16), mock.patch.object(fileio, "_fork_rows", forked), _spills() as opened:
            presets.run_scenario(config, tmp_path / "run")
    finally:
        release.set()
        if foreign:
            other.join(timeout=10)
    assert threads_at_forks == [1] * writers and len(opened) == writers
    assert all(spill.closed for spill in opened)
    _assert_no_child_left()
    for name in _NSLP_FILES:
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


def test_an_interrupted_nslp_run_leaves_no_writer_spill_or_precoder_file(tmp_path):
    """Ctrl-C from the block source while the writers format: they are killed and reaped, and no dump is made."""
    precoded_blocks = presets._precoded_blocks

    def interrupted(*args):
        blocks = precoded_blocks(*args)
        yield next(blocks)
        raise KeyboardInterrupt

    config = preset_config("lte-otfs-nslp", _NSLP_SMALL)
    with _tables_split(2, 16), _spills() as opened, mock.patch.object(presets, "_precoded_blocks", interrupted), \
            pytest.raises(KeyboardInterrupt):
        presets.run_scenario(config, tmp_path)
    assert len(opened) == 2 and all(spill.closed for spill in opened)
    _assert_no_child_left()
    assert not (tmp_path / "lte_nslp_precoders.csv").exists()


def test_an_nslp_run_leaving_no_payload_is_refused_before_any_writer_forks(tmp_path):
    """The all-null mask is refused first: no writer, no spill, and an empty outdir."""
    config = preset_config("lte-otfs-nslp", {**_NSLP_SMALL, "mask": {"pass_bands_hz": [[1e9, 2e9]]}})
    with _tables_split(2, 16), _spills() as opened, pytest.raises(ConfigurationError, match="no payload"):
        presets.run_scenario(config, tmp_path)
    assert opened == []
    _assert_no_child_left()
    assert list(tmp_path.iterdir()) == []
