"""File formats: every artifact's bytes are laid out here, and only here.

A CSV table (frame streams, PSD curves, precoder dumps, the CEP convergence
table) is ``# key=value`` header lines, the first naming the format, one
column-name row, then comma-separated rows.  Integers are written as
``str`` writes them and floats as ``float.__repr__`` does, so re-reading a
file reproduces the exact doubles (and so byte-identical metric records).
``_numfmt.format_rows`` lays out those bytes for a whole row block at once
with numpy, about 0.3 us per float where a ``float.__repr__`` call per
float took 0.8-1.5 us; the few values it cannot decide go to
``float.__repr__`` itself.  A large table (at least 64 row blocks of 4096
rows per process, so never a PSD curve) is formatted by contiguous row
range in forked writer processes, one per CPU, and the ranges are joined
in order: the bytes are those one process would write.  A table is
started now and finished later (``_start_table``): the writers fork when
it is started, so the caller can go on with other work while they format
(the NSLP preset runs its estimate), and the finisher waits for them,
then creates the file and joins their rows.  A table abandoned by an
exception, or whose rows fail, leaves no writer, no spill file and no
file.  A table is read back by one pass over its header lines and one
``np.loadtxt`` call on the rest of the same open file, which gives back
every double written, bit for bit.

Every process the package forks, a table's writers and the estimate's
fold workers (``presets._Relay``), is forked by ``_forked`` under one
policy (``_processes``): one process a CPU, and only while no other
thread runs (a fork copies only the forking thread) and this process has
no other child.  The package starts no thread, so only a caller's own
threads keep them from forking.

A JSON record (metric records, masks, the LTE bandwidth report, scenario
manifests) is one JSON value with sorted keys, a two-space indent and a
final newline; a value that is not JSON is rejected, never stringified.
Every file a scenario writes embeds the scenario's config hash, except a
mask (``write_mask``), which holds only the mask and its sample interval.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pickle
import select
import shutil
import signal
import tempfile
import threading
import traceback
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import IO, Callable, ContextManager, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._numfmt import format_rows
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


def _write_header(handle: IO[bytes], fields: Dict[str, object]) -> None:
    for key, value in fields.items():
        if value is not None:
            handle.write(f"# {key}={value}\n".encode())


#: Rows laid out and written at a time: about one 64x512 precoder subcarrier.  Formatting a
#: block of 4096 two-float rows holds about 2 MB of numpy temporaries.
_ROW_BLOCK = 4096

#: Row blocks each process must get before a table is split across processes.  Formatting
#: costs about 0.6 us per two-float row (0.7 us per precoder row), so 64 blocks take about
#: 0.16 s, well over the 10-20 ms of a fork and wait; PSD curves (at most 16384 rows) are
#: never split.
_SPLIT_ROW_BLOCKS = 64


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_ranges(rows: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` row ranges, one per forked writer, or one range written inline.

    There are as many as ``_processes`` gives for ``_SPLIT_ROW_BLOCKS`` row blocks a process.
    """
    parts = _processes(rows, _SPLIT_ROW_BLOCKS * _ROW_BLOCK)
    bounds = [rows * part // parts for part in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _has_children() -> bool:
    """Whether this process has a child, running or not yet reaped, which is left as it is."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def _processes(work: int, share: int) -> int:
    """How many processes to split ``work`` units of work across: one a CPU, each taking at least ``share`` units.

    1, this process alone, where ``os.pidfd_open`` or ``os.memfd_create``
    is missing (``_forked`` waits on the one and reports errors in the
    other), while another thread runs (a fork copies only the forking
    thread, so a lock another thread holds would stay held in the child),
    or while this process has another child (``_has_children``).  Such a
    child is the NSLP preset's precoder dump writers: they keep every CPU
    busy while the estimate runs, and workers forked beside them only
    compete for the CPUs.  The 64x512 NSLP run took 0.56-0.64 s folded in
    this process, against 0.63-0.70 s with two fold workers (medians of 8
    and 10 runs).
    """
    processes = min(_cpu_count(), work // share)
    forkable = hasattr(os, "pidfd_open") and hasattr(os, "memfd_create") and threading.active_count() == 1
    return processes if processes > 1 and forkable and not _has_children() else 1


class _WorkerTraceback(Exception):
    """The traceback of an error raised in a forked child, the cause of the error raised for it here."""


@contextmanager
def _forked(jobs: Sequence[Callable[[], object]]) -> Iterator[Callable[[], None]]:
    """Fork a child for each of ``jobs`` and give back the call that waits for them all.

    Ctrl-C is held off while the children are forked and recorded, so none
    is left unrecorded to run on.  A child runs its job and leaves by
    ``os._exit``, status 0 once the job returns and 1 on any error, so it
    runs none of this process's cleanup; its job must flush what it writes.
    The wait (``join()``) polls each child's pidfd, not ``select.select``,
    which takes no descriptor from FD_SETSIZE (1024) on.  A child's error
    is raised there with its type and message, and its traceback as the
    cause (``_WorkerTraceback``); an error its own pickle cannot rebuild is
    raised as ``RuntimeError("Name: message")``.  Leaving the ``with``
    block, by a return or by any exception, ``KeyboardInterrupt`` included,
    kills and reaps every child not yet reaped and closes every descriptor
    opened here.
    """
    running: Dict[int, int] = {}  # pid -> the descriptor it reports its error in, for the children not yet reaped
    exits: Dict[int, int] = {}  # pidfd -> pid: readable once the child has exited
    reports: List[int] = []
    waiting = select.poll()

    def join() -> None:
        while running:
            for ready, _ in waiting.poll():
                waiting.unregister(ready)
                pid = exits.pop(ready)
                os.close(ready)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                report = running.pop(pid)
                if status:
                    try:
                        error, text = pickle.loads(os.pread(report, os.fstat(report).st_size, 0))
                    except Exception:  # killed, or stopped before its report was whole
                        raise RuntimeError(f"a forked process exited with status {status}") from None
                    raise error from _WorkerTraceback(text)

    try:
        unmasked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for job in jobs:
                reports.append(os.memfd_create("error"))
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        signal.pthread_sigmask(signal.SIG_SETMASK, unmasked)
                        job()
                        status = 0
                    except BaseException as error:
                        text = traceback.format_exc()
                        try:
                            report = pickle.dumps((error, text))
                            pickle.loads(report)
                        except Exception:
                            report = pickle.dumps((RuntimeError(f"{type(error).__name__}: {error}"), text))
                        os.write(reports[-1], report)
                    finally:
                        os._exit(status)
                running[pid] = reports[-1]
                pidfd = os.pidfd_open(pid)
                exits[pidfd] = pid
                waiting.register(pidfd, select.POLLIN)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, unmasked)
        yield join
    finally:
        for pid in running:  # left only when a child failed or the block was left before ``join()`` returned
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in [*exits, *reports]:
            os.close(fd)


def _write_rows(
    handle: IO[bytes], sizes: Sequence[int], block: Callable[[int], Sequence[np.ndarray]], start: int, stop: int
) -> None:
    """Write rows ``start`` to ``stop`` of the table, ``_ROW_BLOCK`` at a time, one ``write`` each, and flush.

    Only the blocks holding some of those rows are built.  ``format_rows``
    lays out each row block's bytes in one numpy pass.  The flush is for a
    forked writer, which leaves by ``os._exit``.
    """
    end = 0
    for index, size in enumerate(sizes):
        begin, end = end, end + size
        first, last = max(start, begin) - begin, min(stop, end) - begin  # the block's rows in range
        if first >= last:
            continue
        columns = block(index)
        for lo in range(first, last, _ROW_BLOCK):
            hi = min(lo + _ROW_BLOCK, last)
            handle.write(format_rows([column[lo:hi] for column in columns]))
    handle.flush()


@contextmanager
def _start_table(
    path: Union[str, Path],
    header: Dict[str, object],
    names: Sequence[str],
    sizes: Sequence[int],
    block: Callable[[int], Sequence[np.ndarray]],
) -> Iterator[Callable[[], Path]]:
    """Start writing a CSV table now and give back the call that finishes it.

    The table is the header, the ``names`` row, then the rows of
    ``block(0)``, ``block(1)``, ...  Block ``i`` is a sequence of
    ``sizes[i]``-row numpy columns, int or float, one per name.  It is built
    only when its rows are written, and rows are formatted ``_ROW_BLOCK`` at
    a time, so memory is bounded by that, not by the table.  A large table
    is cut into contiguous row ranges, one per process (see ``_row_ranges``),
    and starting it forks a writer for each range (``_forked``), which
    writes its rows into a new unnamed temporary file (its spill), so the
    rows are formatted while this process goes on with other work.  Every
    fork happens here; threads started between the start and the finish do
    not reach the writers.  ``block`` must make no BLAS call: forked writers
    that ran the precoders' small matrix products made the ``nslp-precode``
    benchmark take 4.6 s instead of 2.2 s.  The finisher waits for every
    writer, raising the error of the first that fails, then creates
    ``path``, writes the header and the names row and appends the spills in
    order; with one range nothing is forked and it writes the rows itself.
    The bytes are those of one process writing every row.  A failed writer
    raises before ``path`` is created, and a file whose rows fail to be
    written is removed, so a failed table leaves no file.  Leaving the
    ``with`` block, by a return or by any exception, ``KeyboardInterrupt``
    included, kills and reaps every writer not yet reaped and closes every
    spill; ``path`` is created only by the finisher.
    """
    path = Path(path)
    ranges = _row_ranges(sum(sizes))
    spills: List[IO[bytes]] = []
    try:
        if len(ranges) > 1:
            for _ in ranges:
                spills.append(tempfile.TemporaryFile(dir=path.parent))
        writers = [partial(_write_rows, spill, sizes, block, *rows) for spill, rows in zip(spills, ranges)]
        with _forked(writers) as join:

            def finish() -> Path:
                join()
                try:
                    with path.open("wb") as handle:
                        _write_header(handle, header)
                        handle.write(",".join(names).encode() + b"\n")
                        if not spills:
                            _write_rows(handle, sizes, block, *ranges[0])
                        for spill in spills:
                            spill.seek(0)
                            shutil.copyfileobj(spill, handle)
                except BaseException:
                    path.unlink(missing_ok=True)
                    raise
                return path

            yield finish
    finally:
        for spill in spills:
            spill.close()


def _write_table(
    path: Union[str, Path],
    header: Dict[str, object],
    names: Sequence[str],
    sizes: Sequence[int],
    block: Callable[[int], Sequence[np.ndarray]],
) -> Path:
    """Write a CSV table at once: ``_start_table``, then its finisher."""
    with _start_table(path, header, names, sizes, block) as finish:
        return finish()


def _read_table(path: Union[str, Path], what: str, width: int, fmt: str) -> Tuple[Dict[str, str], np.ndarray]:
    """The header fields and the ``(rows, width)`` float array of a CSV table in format ``fmt``.

    The line after the header is the column-name row; ``np.loadtxt`` parses
    the rest of the open file, skipping blank and ``#`` lines.  A ``format``
    field other than ``fmt`` (a table need not have one), bytes that are not
    UTF-8, an empty body, or a body line that is not ``width`` numbers raises
    ``ConfigurationError`` naming the file, and the line by its number (from 1,
    header included), which only a refused table is read again to find.
    """
    fields: Dict[str, str] = {}
    names_line = 0
    try:
        with open(path, encoding="utf-8") as handle, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data": refused below
            for names_line, line in enumerate(handle, 1):
                if not line.startswith("#"):
                    break  # the column-name row
                key, equals, value = line[1:].partition("=")
                if equals:
                    fields[key.strip()] = value.strip()
            if fields.get("format", fmt) != fmt:
                raise ConfigurationError(f"{what} file {path} holds format {fields['format']!r}, not {fmt!r}")
            data = _rows(handle, width)
            if data is None:  # the first refused block of the body, then its first refused line
                handle.seek(0)
                lines = enumerate(itertools.islice(handle, names_line, None), names_line + 1)
                blocks = iter(lambda: list(itertools.islice(lines, _ROW_BLOCK)), [])
                block = next(block for block in blocks if _rows([line for _, line in block], width) is None)
                number, line = next((number, line) for number, line in block if _rows([line], width) is None)
                refused = f"line {number}: {line.strip()[:80]!r} is not {width} comma-separated numbers"
                raise ConfigurationError(f"{what} file {path}, {refused}")
    except UnicodeDecodeError as err:  # found by the header pass or the search for a refused line
        raise ConfigurationError(f"{what} file {path}: {err}") from None
    if not data.size:
        raise ConfigurationError(f"{what} file {path} holds no samples")
    return fields, data


def _rows(lines: Iterable[str], width: int) -> Optional[np.ndarray]:
    """``np.loadtxt`` of ``lines``; ``None`` if it refuses them or reads other than ``width`` columns."""
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:  # a cell that is not a number, a ragged row, or bytes that are not UTF-8
        return None
    return data if not data.size or data.shape[1] == width else None


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
    return _write_table(path, header, ("re", "im"), [flat.size], lambda _: (flat.real, flat.imag))


def _stream_field(fields: Dict[str, str], path: Union[str, Path], name: str, parse: Callable, rule: Rule):
    """Header field ``name`` of a frame-stream file, parsed; a ``ConfigurationError`` names the file and field."""
    if name not in fields:
        raise ConfigurationError(f"frame-stream file {path} lacks header field {name!r}")
    try:
        value = parse(fields[name])
    except ValueError:
        value = fields[name]  # the rule refuses it, quoting the text
    for problem in rule_problem(name, rule, value):
        raise ConfigurationError(f"frame-stream file {path}: header field {problem}")
    return value


def read_frame_stream(path: Union[str, Path]) -> FrameStream:
    fields, data = _read_table(path, "frame-stream", 2, "otfspectrum-framestream-v1")
    dims = ("num_delay", "num_doppler", "num_frames")
    num_delay, num_doppler, num_frames = (_stream_field(fields, path, name, int, POSITIVE_INT) for name in dims)
    sample_interval = _stream_field(fields, path, "sample_interval", float, POSITIVE_REAL)
    seed = fields.get("seed", "None")
    seed = None if seed == "None" else _stream_field(fields, path, "seed", int, (_is_int, "an integer"))
    samples = data.view(np.complex128)  # each (re, im) row is one complex, exactly and without a copy
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
    columns = (curve.freqs, curve.values)
    return _write_table(path, header, ("freq_hz", "psd_value"), [len(curve.freqs)], lambda _: columns)


def read_psd_curve(path: Union[str, Path]) -> PsdCurve:
    fields, data = _read_table(path, "PSD", 2, "otfspectrum-psd-v1")
    meta: Dict[str, object] = {k: v for k, v in fields.items() if k not in ("format", "normalization")}
    try:
        return PsdCurve(data[:, 0], data[:, 1], fields.get("normalization", "absolute"), meta)
    except ValueError as err:
        raise ConfigurationError(f"PSD file {path}: {err}") from None


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
    spec = _mask_spec(source)
    if "null_bins" in spec:
        return decompose_mask(spec["null_bins"], spec["num_delay"], spec["num_doppler"])
    bands = [tuple(band) for band in spec["pass_bands_hz"]]
    return mask_from_pass_bands(bands, spec["num_delay"], spec["num_doppler"], float(spec["sample_interval"]))


def _mask_spec(source: Union[str, Path, dict]) -> dict:
    """A mask's JSON fields with the aliases resolved, checked before any mask is built."""
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
    return spec


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
    with _start_precoder_set(path, precoders, extra_header) as finish:
        return finish()


def _start_precoder_set(
    path: Union[str, Path],
    precoders: PrecoderSet,
    extra_header: Optional[Dict[str, object]] = None,
) -> ContextManager[Callable[[], Path]]:
    """``write_precoder_set``'s table, started now and finished later (``_start_table``)."""
    mask = precoders.mask
    header: Dict[str, object] = {
        "format": "otfspectrum-precoders-v1",
        "form": precoders.form,
        "num_delay": mask.num_delay,
        "num_doppler": mask.num_doppler,
        "null_bins": ",".join(str(int(b)) for b in mask.null_bins),
        **(extra_header or {}),
    }

    def subcarrier(k: int) -> Sequence[np.ndarray]:
        matrix = precoders.matrices[k]
        rows, cols = np.indices(matrix.shape)
        return np.full(matrix.size, k), rows.ravel(), cols.ravel(), matrix.real.ravel(), matrix.imag.ravel()

    sizes = [matrix.size for matrix in precoders.matrices]
    return _start_table(path, header, ("subcarrier", "row", "col", "re", "im"), sizes, subcarrier)


def write_convergence_table(
    path: Union[str, Path],
    rows: Sequence[Tuple[int, float, float]],
    extra_header: Optional[Dict[str, object]] = None,
) -> Path:
    """num_frames,nmse_db,cosine_similarity CSV: the CEP sum-vs-whole match per frame count."""
    counts, nmse, cosine = zip(*rows)
    columns = (np.asarray(counts), np.asarray(nmse, dtype=float), np.asarray(cosine, dtype=float))
    header = {"format": "otfspectrum-convergence-v1", **(extra_header or {})}
    names = ("num_frames", "nmse_db", "cosine_similarity")
    return _write_table(path, header, names, [len(rows)], lambda _: columns)
