"""Empirical PSD estimation and curve-comparison metrics.

The estimator is a plain averaged periodogram: non-overlapping
rectangular-window segments, per-segment ``|DFT|^2 / (segment_len * rate)``,
arithmetic mean across segments, grid shifted to ``[-rate/2, rate/2)``.
A DAC's output is estimated from its symbol-rate input through the DFT of
an interpolated sequence (Oppenheim & Schafer, *Discrete-Time Signal
Processing*), with a short edge correction for the truncated sinc.  A
random or precoded stream's one-frame estimate through a memoryless DAC
(dirac_delta, rect) goes further back, to the delay-Doppler grids: each
frame's DFT is an M-point FFT a subcarrier of its weighted grid
(``waveform._frame_spectra``), folded in by
``PeriodogramAverager._add_spectra``, so no frame is built.
It is within 1e-12 of the peak of ``periodogram(reconstruct(...))`` (the
Dirac's frames give those bits exactly), and bit for bit the same under
any blocking and batch size, as every estimate is.  Comparisons against
analytic curves are done after peak-one normalization of both curves over
a common (optionally band-restricted) grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dac import OversampledSignal, _stream_samples, sinc_kernel
from .psd import PsdCurve
from .waveform import FrameStream

__all__ = [
    "periodogram",
    "PeriodogramAverager",
    "nmse_db",
    "cosine_similarity",
    "compare_curves",
    "cyclo_autocorr",
    "CycloAutocorrResult",
    "empirical_mean",
]

#: Reported when two curves are numerically identical (the true value is -inf).
NMSE_FLOOR_DB = -300.0

#: DFT bins per batch of segments in ``PeriodogramAverager``.  Its buffers are kept between
#: batches, so the heap is not trimmed and faulted in again: 24 bytes a bin for the hold, 64
#: for the sinc at L=2, whose 2048-frame 16x128 estimate faults 3.9-7.6 k pages at 2**14-2**20.
_BATCH_SAMPLES = 2**14


def _signal_parts(signal: Union[OversampledSignal, FrameStream, np.ndarray], sample_rate: Optional[float]):
    if isinstance(signal, OversampledSignal):
        samples = signal.samples
        # Align segments to the signal's time origin: a reconstruction that
        # begins with a filter pre-ring (origin_time < 0) is segmented from
        # time zero, so segments tile whole frames of the underlying stream.
        # Cutting segments across frame boundaries would smear each frame's
        # tones over neighbouring bins (the stream is only frame-periodically
        # stationary, not stationary).  The post-ring after the stream's end,
        # as long as the pre-ring, is dropped too: it holds only the decaying
        # ring of the last frames, and must not form a segment of its own.
        skip = int(round(-signal.origin_time * signal.sample_rate))
        if skip > 0:
            samples = samples[skip : samples.size - skip]
        return samples, signal.sample_rate, signal.samples_per_frame
    samples, interval, per_frame = _stream_samples(signal)
    if interval is not None:
        return samples, 1.0 / interval, per_frame
    if sample_rate is None or not (sample_rate > 0):
        raise ValueError("a positive sample_rate is required for raw sample arrays")
    return samples, float(sample_rate), None


def _centered_grid(segment_len: int, rate: float) -> np.ndarray:
    idx = np.arange(segment_len) - segment_len // 2
    return idx * (rate / segment_len)


def periodogram(
    signal: Union[OversampledSignal, FrameStream, np.ndarray],
    segment_len: Optional[int] = None,
    sample_rate: Optional[float] = None,
) -> PsdCurve:
    """Averaged periodogram of a sample stream.

    ``segment_len`` defaults to one frame of samples when the input knows
    its frame size (``M*N`` for a frame stream, ``M*N*L`` for an
    oversampled reconstruction).  A trailing partial segment is discarded;
    fewer than one full segment is an error.
    """
    samples, rate, per_frame = _signal_parts(signal, sample_rate)
    if segment_len is None:
        if per_frame is None:
            raise ValueError("segment_len is required when the input has no frame size")
        segment_len = int(per_frame)
    averager = PeriodogramAverager(segment_len, rate)
    averager.add(samples)
    return averager.result()


class PeriodogramAverager:
    """Running averaged periodogram of a DAC's output, for streams processed in chunks.

    ``add`` takes the DAC's input samples, concatenated logically across
    calls; a segment of ``segment_len`` outputs (n = ``segment_len // hold``
    inputs) is folded in once its inputs are there, and the rest waits in a
    carry.  Spectra are taken in batches of about ``_BATCH_SAMPLES`` bins,
    and each batch is folded in by one axis-0 sum whose row 0 is the running
    total: rows are added strictly in order, so any chunking gives the bits
    of the one-shot ``periodogram``.

    With ``order == 0`` the DAC is the zero-order hold of ``hold`` outputs
    per input (the Dirac at 1): ``add`` sums the n-point ``|DFT|^2``, and
    ``result`` tiles the sum ``hold`` times and multiplies it once by
    ``|fft(ones(hold), segment_len)|^2``.  With ``order >= 1`` it is
    ``reconstruct``'s sinc at oversampling ``hold``, from time zero to the end.
    A segment's S-point DFT (S = n*hold) is ``X[q mod n] * G[q] + E[q]``: X
    is the n-point DFT of its inputs and G the DFT of the taps folded modulo
    S, the reconstruction of the inputs repeated periodically; E is the DFT
    of the ``2*order`` inputs just outside the segment (zeros outside the
    stream) minus the repeats standing in for them, through the taps that
    reach into it.  Moving the time origin ``order*hold`` samples back, a
    phase common to both terms, puts that correction in the first
    ``min(S, 2*order*hold)`` samples.

    ``_on_spectra``, when set, is called with each batch's segment DFTs,
    before they are squared in place, and with the index of the batch's
    first segment, so it sees each segment once and in order.  The rows are
    a buffer of the next batch: it may read them only during the call.  The
    sinc's last segments, which ``result`` folds from the end-of-stream
    zeros into a copy at each call, are not handed on.  Ready spectra
    (``_add_spectra``) are handed on as they come, as ``(segments, N*M)``
    rows in their (k, m) order.

    A stream may be cut into spans folded apart (``presets._streamed_estimates``
    folds them in forked workers).  An averager starts a span at its first
    segment with the ``order`` inputs before it (``_start``), and may keep
    its squared rows (``_keep``) until the running sums of the segments
    before the span arrive (``_take_sums``), which then adds them in order,
    as one averager over the whole stream adds them.
    """

    def __init__(self, segment_len: int, sample_rate: float, hold: int = 1, order: int = 0) -> None:
        if segment_len < 1:
            raise ValueError(f"segment_len must be >= 1, got {segment_len}")
        if not (sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        if int(hold) != hold or hold < 1 or segment_len % hold:
            raise ValueError(f"hold must be an integer >= 1 dividing segment_len {segment_len}, got {hold}")
        if int(order) != order or order < 0:
            raise ValueError(f"order must be an integer >= 0, got {order}")
        self.segment_len, self.sample_rate = int(segment_len), float(sample_rate)
        self.hold, self.order = int(hold), int(order)
        n = self._len = self.segment_len // self.hold  # inputs per segment
        self._bins = self.segment_len if order else n  # the length of a squared row
        self._acc = np.zeros(self._bins)
        self._carry = np.zeros(self.order, dtype=np.complex128)  # the history before time zero
        self._scratch: dict = {}
        self._on_spectra: Optional[Callable[[np.ndarray, int], object]] = None
        self._layout: Optional[Tuple[int, ...]] = None  # (N, M) of a stream given as ready spectra (``_start``)
        self._kept: Optional[_KeptRows] = None  # squared rows waiting for the running sums (``_keep``)
        # Per result asked for while rows are kept: the rows kept before it, whom to hand it, its closing rows
        # and its segment count.
        self._marks: List[Tuple[int, Callable[[PsdCurve], None], _KeptRows, int]] = []
        self.num_segments = 0
        if order:
            kernel, bins = sinc_kernel(self.hold, self.order), self.segment_len
            self._kernel_dft = np.fft.fft(np.bincount(np.arange(kernel.size) % bins, kernel, bins))
            # Inputs i < 0 and i >= n, as window columns, and the repeats x[i mod n] standing in for them.
            outside = np.concatenate([np.arange(-order, 0), n + np.arange(order)])
            self._outside, self._repeats = order + outside, order + outside % n
            # Correction column c is output t = (c - order*hold) mod S, which input i reaches
            # through tap order*hold + t - hold*i, if there is one.
            self._edge_cols = min(bins, 2 * order * hold)
            t = (np.arange(self._edge_cols) - order * hold) % bins
            taps = order * hold + t - hold * outside[:, None]
            reach = (taps >= 0) & (taps < kernel.size)
            self._edge_taps = np.where(reach, kernel[np.where(reach, taps, 0)], 0.0).T.copy()

    def add(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.complex128).ravel()
        carry, n, edge = self._carry, self._len, 2 * self.order
        count = max(0, (carry.size + samples.size - edge) // n)  # segments with all their inputs
        into = self._acc if self._kept is None else self._kept
        # Those whose window starts in the carry are folded from a short copy, the rest in place.
        head = min(count, -(-carry.size // n))
        if head:
            window = np.concatenate([carry, samples[: head * n + edge - carry.size]])
            self._fold(window, head, into, self.num_segments)
        if count > head:
            window = samples[head * n - carry.size : count * n + edge - carry.size]
            self._fold(window, count - head, into, self.num_segments + head)
        rest = count * n - carry.size
        self._carry = samples[rest:].copy() if rest >= 0 else np.concatenate([carry[count * n :], samples])
        self.num_segments += count

    def _buffer(self, name: str, rows: int, cols: int, dtype=np.complex128, fill=None) -> np.ndarray:
        """``rows`` rows of a buffer kept for later batches (and ``_averagers``), new rows set to ``fill``."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != cols:
            buf = self._scratch[name] = np.empty((rows, cols), dtype)
            if fill is not None:
                buf[:] = fill
        return buf[:rows]

    def _window_columns(self, rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per segment of a batch of ``rows``: the window columns of its outside inputs and of their repeats.

        Made once and kept with the buffers, as a smaller batch takes their first rows.
        """
        columns = self._scratch.get("columns")
        if columns is None or len(columns[0]) < rows:
            at = self._len * np.arange(rows)[:, None]
            columns = self._scratch["columns"] = (at + self._outside, at + self._repeats)
        return columns

    def _fold(
        self, window: np.ndarray, count: int, into: Union[np.ndarray, _KeptRows], first: Optional[int] = None
    ) -> None:
        """Add ``|DFT|^2`` of the ``count`` segments in ``window``, after its first ``order`` inputs, to ``into``.

        ``first`` is the index of the first of them in the stream, for
        ``_on_spectra``; None keeps them from it.  ``into`` is a sum, or
        rows kept (``_sum_squares``).
        """
        n, order, bins = self._len, self.order, self._bins
        batch = min(count, max(1, _BATCH_SAMPLES // bins))
        spectra_buf = self._buffer("spectra", batch, n)
        if order:
            outside_at, repeats_at = self._window_columns(batch)
        for lo in range(0, count, batch):
            b, part = min(batch, count - lo), window[lo * n :]
            spectra = np.fft.fft(part[order : order + b * n].reshape(b, n), axis=1, out=spectra_buf[:b])
            if order:
                # The inputs outside each segment minus their repeats, through the taps: per segment
                # one (cols, 2*order) @ (2*order, 2) real product, rounded alike in any batch.
                outside = np.take(part, outside_at[:b], mode="clip", out=self._buffer("outside", b, 2 * order))
                outside -= np.take(part, repeats_at[:b], mode="clip", out=self._buffer("repeats", b, 2 * order))
                edges, cols = self._buffer("edges", b, bins), self._edge_cols
                edges[:, cols:] = 0.0
                out = edges[:, :cols].view(np.float64).reshape(b, cols, 2)
                np.matmul(self._edge_taps, outside.view(np.float64).reshape(b, 2 * order, 2), out=out)
                dense = np.fft.fft(edges, axis=1, out=self._buffer("dense", b, bins))
                # Then X[q mod n] * G[q] in the edges' buffer: numpy allocates for an operand it broadcasts.
                np.copyto(edges.reshape(b, self.hold, n), spectra[:, None, :])
                edges *= self._buffer("kernel_dft", b, bins, fill=self._kernel_dft)
                spectra = np.add(dense, edges, out=dense)
            if self._on_spectra is not None and first is not None:
                self._on_spectra(spectra, first + lo)
            self._sum_squares(spectra, into)

    def _sum_squares(self, spectra: np.ndarray, into: Union[np.ndarray, _KeptRows]) -> None:
        """Add ``|DFT|^2`` of the ``spectra`` rows to the sum ``into`` row after row, or keep them in ``into``.

        The rows are squared in place.
        """
        kept = isinstance(into, _KeptRows)
        rows = into.take(len(spectra)) if kept else self._buffer("rows", len(spectra) + 1, into.size, float)
        # re*re + im*im: both parts squared in place in one pass, then each pair added; no batch-sized temporary.
        parts = spectra.view(np.float64)
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=rows if kept else rows[1:])
        if not kept:
            rows[0] = into
            _running_sum(rows, into)

    def _add_spectra(self, spectra: np.ndarray) -> None:
        """Fold in ready DFTs of whole segments of a memoryless DAC's input, as ``(segments, N, M)`` rows.

        Entry ``[s, k, m]`` is bin ``m*N + k`` of segment s's n-point DFT
        (n = M*N, ``waveform._frame_spectra``).  The sum is kept in that
        (k, m) order, and ``result`` permutes it into bin order once; the
        hold's response is applied there, as for ``add``.  The rows go to
        ``_on_spectra`` first, then are folded in batches of about
        ``_BATCH_SAMPLES`` bins and squared in place.  An averager takes its
        segments from ``add`` or from here, not both, and takes these only
        of the ``(N, M)`` layout ``_start`` gave it.
        """
        if self.order or spectra.shape[1:] != self._layout or spectra[0].size != self._len:
            raise ValueError(
                f"ready spectra are DFTs of a memoryless DAC's {self._len}-input segments, laid out as {self._layout}"
            )
        rows = spectra.reshape(len(spectra), -1)
        if self._on_spectra is not None:
            self._on_spectra(rows, self.num_segments)
        into = self._acc if self._kept is None else self._kept
        batch = max(1, _BATCH_SAMPLES // self._len)
        for lo in range(0, len(rows), batch):
            self._sum_squares(rows[lo : lo + batch], into)
        self.num_segments += len(rows)

    def _start(self, segments: int, history: np.ndarray, layout: Optional[Tuple[int, int]] = None) -> None:
        """Take a stream from its segment ``segments`` on, whose inputs before that end with ``history``.

        The carry is seeded with the last ``order`` inputs of ``history``,
        zeros standing in for any it lacks (before the stream's start).
        ``layout`` is the ``(N, M)`` shape of each segment's ready spectrum,
        for a stream given as those (``_add_spectra``).
        """
        self.num_segments, self._layout = segments, layout
        self._carry = np.zeros(self.order, dtype=np.complex128)
        seeded = min(self.order, history.size)
        if seeded:
            self._carry[self.order - seeded :] = history[history.size - seeded :]

    def _keep(self, kept: _KeptRows) -> None:
        """Keep the squared rows in ``kept`` from here on, adding none, until ``_take_sums`` brings the sums."""
        kept.count = 0
        self._kept, self._marks = kept, []

    def _take_sums(self, acc: np.ndarray) -> None:
        """Take ``acc``, the running sums of the segments before the kept ones, and add to it from here on.

        The kept rows are added to it in order, and each result asked for
        while they were kept (``_snapshot``) is handed on once the rows
        before it are in.
        """
        kept, done = self._kept, 0
        if kept is not None:
            for count, record, closing, segments in self._marks:
                kept.add_to(acc, done, count)
                done = count
                record(self._curve(closing.add_to(acc.copy(), 0, closing.count), segments))
            kept.add_to(acc, done, kept.count)
        self._acc, self._kept, self._marks = acc, None, []

    def _ending(self) -> Tuple[int, int]:
        """The sinc's segments still waiting for inputs after them, which the stream's end closes with zeros, and
        the segment count with them."""
        tail = (self._carry.size - self.order) // self._len
        if self.num_segments + tail < 1:
            raise ValueError(
                f"need at least one full segment of {self.segment_len} samples, "
                f"got {(self._carry.size - self.order) * self.hold}"
            )
        return tail, self.num_segments + tail

    def _close(self, tail: int, into: Union[np.ndarray, _KeptRows]) -> None:
        """Fold the ``tail`` segments of ``_ending`` into ``into``: the stream has ended, so the inputs after them
        are zeros."""
        if tail:
            self._fold(np.concatenate([self._carry, np.zeros(self.order)]), tail, into)

    def _snapshot(self, record: Callable[[PsdCurve], None]) -> None:
        """Hand ``record`` the ``result()`` of the stream so far: now, or, while rows are kept, from ``_take_sums``."""
        if self._kept is None:
            record(self.result())
            return
        tail, segments = self._ending()
        closing = _KeptRows(tail, self._bins)
        self._close(tail, closing)
        self._marks.append((self._kept.count, record, closing, segments))

    def result(self) -> PsdCurve:
        tail, segments = self._ending()
        acc = self._acc
        if tail:
            acc = acc.copy()
            self._close(tail, acc)
        return self._curve(acc, segments)

    def _curve(self, acc: np.ndarray, segments: int) -> PsdCurve:
        """The averaged periodogram of ``segments`` segments whose squared rows sum to ``acc``."""
        if self._layout is not None:  # ready spectra were summed in (k, m) order
            acc = acc.reshape(self._layout).T.ravel()
        held = self.segment_len // acc.size  # the sinc's response is in each segment's DFT already
        if held > 1:  # a hold of one has the all-ones response
            response = np.fft.fft(np.ones(held), self.segment_len)
            acc = np.tile(acc, held) * (response.real**2 + response.imag**2)
        power = acc / (segments * self.segment_len * self.sample_rate)
        return _periodogram_curve(np.fft.fftshift(power), self.segment_len, self.sample_rate, segments)


def _periodogram_curve(values: np.ndarray, segment_len: int, sample_rate: float, segments: int) -> PsdCurve:
    """The curve of an averaged periodogram's centered ``values``: ``PeriodogramAverager.result``'s, field by field."""
    return PsdCurve(
        freqs=_centered_grid(segment_len, sample_rate),
        values=values,
        normalization="absolute",
        meta={"segment_len": segment_len, "sample_rate": sample_rate, "num_segments": segments},
    )


def _running_sum(rows: np.ndarray, out: np.ndarray) -> None:
    """``out = rows[0] + rows[1] + ...``, added row after row."""
    # Summing along axis 0 adds row after row, except that a lone
    # column is summed pairwise: accumulate that one explicitly.
    if rows.shape[1] > 1:
        np.sum(rows, axis=0, out=out)
    else:
        out[:] = np.cumsum(rows[:, 0])[-1:]


class _KeptRows:
    """Squared segment rows kept in order, for running sums not yet at hand, behind a free first row.

    ``take(count)`` gives the next ``count`` rows to square into.
    ``add_to(acc, lo, hi)`` adds rows ``lo + 1`` to ``hi`` to ``acc``, in
    order, by one axis-0 sum whose row ``lo``, free or added already, is set
    to ``acc``: the additions of one averager adding those rows.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.buffer = np.empty((rows + 1, cols))
        self.count = 0

    def take(self, count: int) -> np.ndarray:
        self.count += count
        return self.buffer[self.count + 1 - count : self.count + 1]

    def add_to(self, acc: np.ndarray, lo: int, hi: int) -> np.ndarray:
        if hi > lo:
            self.buffer[lo] = acc
            _running_sum(self.buffer[lo : hi + 1], acc)
        return acc


def _averagers(count: int, *args, **kwargs) -> List[PeriodogramAverager]:
    """``count`` averagers of one geometry sharing their batch buffers, for streams fed one at a time."""
    averagers = [PeriodogramAverager(*args, **kwargs) for _ in range(count)]
    for averager in averagers[1:]:
        averager._scratch = averagers[0]._scratch
    return averagers


def _aligned_values(curve: PsdCurve, reference: PsdCurve) -> Tuple[np.ndarray, np.ndarray]:
    if curve.freqs.size == reference.freqs.size and np.array_equal(curve.freqs, reference.freqs):
        return curve.values, reference.values
    return curve.values, reference.resampled_onto(curve.freqs).values


def nmse_db(curve: PsdCurve, reference: PsdCurve) -> float:
    """10*log10(||a - b||^2 / ||b||^2) with ``reference`` as b.

    The reference is linearly resampled onto the curve's grid when the
    grids differ.  Identical curves return the -300 dB floor (stand-in
    for -inf).  No normalization is applied here; normalize first if the
    curves are on different scales.
    """
    a, b = _aligned_values(curve, reference)
    denom = float(np.sum(b * b))
    if denom == 0.0:
        raise ValueError("reference curve has zero energy")
    num = float(np.sum((a - b) ** 2))
    if num == 0.0:
        return NMSE_FLOOR_DB
    return max(float(10.0 * np.log10(num / denom)), NMSE_FLOOR_DB)


def cosine_similarity(curve: PsdCurve, reference: PsdCurve) -> float:
    """<a, b> / (||a|| ||b||) over the curve's grid (reference resampled if needed)."""
    a, b = _aligned_values(curve, reference)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero curve")
    return float(np.dot(a, b) / (na * nb))


def compare_curves(
    estimated: PsdCurve,
    reference: PsdCurve,
    band: Optional[Tuple[float, float]] = None,
) -> dict:
    """Peak-one-normalized NMSE/cosine comparison, optionally band-restricted.

    The estimate is restricted to ``band`` ([lo, hi), when given; the
    overlap of the two frequency spans otherwise), the reference is
    resampled onto the restricted grid, both are scaled to peak 1, and
    the two metrics are computed on the result.
    """
    if band is None:
        lo = max(estimated.freqs[0], reference.freqs[0])
        hi = min(estimated.freqs[-1], reference.freqs[-1])
        if lo > hi:
            raise ValueError("the two curves' frequency spans do not overlap")
        band = (lo, np.nextafter(hi, np.inf))
    estimated = estimated.restrict(*band)
    reference = reference.resampled_onto(estimated.freqs)
    est, ref = estimated.peak_one(), reference.peak_one()
    return {
        "nmse_db": nmse_db(est, ref),
        "cosine_similarity": cosine_similarity(est, ref),
    }


@dataclass(frozen=True)
class CycloAutocorrResult:
    """Monte-Carlo autocorrelation probes and their frame-shifted twins."""

    probes: Tuple[Tuple[int, int], ...]
    shift: int
    base: np.ndarray  # E[conj(s[eta]) * s[eta_hat]]
    shifted: np.ndarray  # same with both indices advanced by `shift`
    base_se: np.ndarray
    shifted_se: np.ndarray
    diff_se: np.ndarray  # standard error of (base - shifted), per probe
    num_blocks: int

    def max_deviation_in_se(self) -> float:
        """Largest |base - shifted| measured in units of its standard error."""
        dev = np.abs(self.base - self.shifted)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self.diff_se > 0, dev / self.diff_se, np.where(dev > 0, np.inf, 0.0))
        return float(np.max(ratio))


def _complex_se(values: np.ndarray) -> float:
    n = values.size
    return float(np.sqrt((values.real.var(ddof=1) + values.imag.var(ddof=1)) / n))


def cyclo_autocorr(
    stream: FrameStream,
    probes: Sequence[Tuple[int, int]],
    shift: Optional[int] = None,
) -> CycloAutocorrResult:
    """Estimate E[conj(s[eta]) s[eta_hat]] and its shift-by-one-frame twin.

    The stream is cut into disjoint blocks of whole frames large enough to
    contain every probe index plus the shift; block <-> realization, so the
    estimates come with honest standard errors.  A periodically correlated
    stream with frame period M*N keeps |base - shifted| within a few
    standard errors of zero.
    """
    frame_len = stream.samples_per_frame
    if shift is None:
        shift = frame_len
    if shift < 1:
        raise ValueError(f"shift must be >= 1, got {shift}")
    probes = tuple((int(a), int(b)) for a, b in probes)
    if not probes:
        raise ValueError("at least one probe pair is required")
    max_idx = max(max(a, b) for a, b in probes)
    if min(min(a, b) for a, b in probes) < 0:
        raise ValueError("probe indices must be non-negative")
    frames_per_block = -(-(max_idx + shift + 1) // frame_len)  # ceil
    num_blocks = stream.num_frames // frames_per_block
    if num_blocks < 2:
        raise ValueError(
            f"need >= 2 blocks of {frames_per_block} frames for standard errors, "
            f"got {stream.num_frames} frames"
        )
    blocks = stream.frames[: num_blocks * frames_per_block].reshape(num_blocks, -1)

    base = np.empty(len(probes), dtype=np.complex128)
    shifted = np.empty(len(probes), dtype=np.complex128)
    base_se = np.empty(len(probes))
    shifted_se = np.empty(len(probes))
    diff_se = np.empty(len(probes))
    for i, (eta, eta_hat) in enumerate(probes):
        p1 = np.conj(blocks[:, eta]) * blocks[:, eta_hat]
        p2 = np.conj(blocks[:, eta + shift]) * blocks[:, eta_hat + shift]
        base[i] = p1.mean()
        shifted[i] = p2.mean()
        base_se[i] = _complex_se(p1)
        shifted_se[i] = _complex_se(p2)
        diff_se[i] = _complex_se(p1 - p2)
    return CycloAutocorrResult(
        probes=probes,
        shift=int(shift),
        base=base,
        shifted=shifted,
        base_se=base_se,
        shifted_se=shifted_se,
        diff_se=diff_se,
        num_blocks=num_blocks,
    )


def empirical_mean(stream: FrameStream, positions: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-position sample mean across frames and its standard error."""
    positions = np.asarray(list(positions), dtype=np.intp)
    if np.any(positions < 0) or np.any(positions >= stream.samples_per_frame):
        raise ValueError("positions must lie within one frame")
    cols = stream.frames[:, positions]
    means = cols.mean(axis=0)
    ses = np.array([_complex_se(cols[:, j]) for j in range(cols.shape[1])])
    return means, ses
