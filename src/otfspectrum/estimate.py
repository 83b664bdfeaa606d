"""Empirical PSD estimation and curve-comparison metrics.

The estimator is a plain averaged periodogram: non-overlapping
rectangular-window segments, per-segment ``|DFT|^2 / (segment_len * rate)``,
arithmetic mean across segments, grid shifted to ``[-rate/2, rate/2)``.
A zero-order-held stream (each sample repeated ``hold`` times) is
estimated from its un-held samples: the DFT of a held segment of
``S*hold`` samples is ``X[k mod S] * sum_{p<hold} exp(-2j*pi*k*p/(S*hold))``,
with X the S-point DFT of the segment's underlying samples (Oppenheim &
Schafer, *Discrete-Time Signal Processing*, DFT of an interpolated
sequence), so only S-point DFTs are taken.
Comparisons against analytic curves are done after peak-one normalization
of both curves over a common (optionally band-restricted) grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .dac import OversampledSignal, _stream_samples
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

#: Samples per batch of segment spectra in ``PeriodogramAverager.add``.  A batch's
#: spectra and rows take 24 bytes a sample, 1.5 MB here.  With 2**20, a 2**18-sample
#: sinc block's add took 6 MB of them, malloc trimmed the heap after every block,
#: and a 2048-frame 16x128 sinc estimate at L=2 faulted 59 k pages against 7 k.
_BATCH_SAMPLES = 2**16


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
    """Running averaged periodogram for streams processed in chunks.

    Chunks are concatenated logically: leftover samples that do not fill a
    segment are carried into the next ``add`` call.  Segment spectra are
    taken in batches of about ``_BATCH_SAMPLES`` samples, and each batch is
    folded in by one axis-0 sum whose row 0 is the running total.  That sum
    adds the rows strictly in order, so every chunking of the same sample
    stream performs the identical sequence of additions and the result is
    bit-identical to the one-shot ``periodogram`` (which is this class fed
    a single chunk).

    With ``hold > 1`` the estimate is that of the stream with every added
    sample held ``hold`` times (a zero-order-hold DAC), on the same dense
    grid of ``segment_len`` bins, which must be a multiple of ``hold``:
    ``add`` takes the un-held samples and accumulates ``|DFT|^2`` of
    segments of ``segment_len // hold`` of them, and ``result`` tiles the
    sum ``hold`` times and multiplies it once by the hold's squared
    Dirichlet response ``|fft(ones(hold), segment_len)|^2``.  With
    ``hold == 1`` that response is exactly 1.
    """

    def __init__(self, segment_len: int, sample_rate: float, hold: int = 1) -> None:
        if segment_len < 1:
            raise ValueError(f"segment_len must be >= 1, got {segment_len}")
        if not (sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        if int(hold) != hold or hold < 1 or segment_len % hold:
            raise ValueError(f"hold must be an integer >= 1 dividing segment_len {segment_len}, got {hold}")
        self.segment_len = int(segment_len)
        self.sample_rate = float(sample_rate)
        self.hold = int(hold)
        self._len = self.segment_len // self.hold  # samples added per segment
        self._acc = np.zeros(self._len)
        self._carry = np.empty(0, dtype=np.complex128)
        self.num_segments = 0

    def add(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=np.complex128).ravel()
        if self._carry.size:
            # Complete the pending segment from the head of the new samples
            # and fold it first, so the rest is segmented in place, uncopied.
            head = self._len - self._carry.size
            self._carry = np.concatenate([self._carry, samples[:head]])
            samples = samples[head:]
            if self._carry.size < self._len:
                return
            self._fold(self._carry.reshape(1, self._len))
        full = samples.size // self._len
        self._fold(samples[: full * self._len].reshape(full, self._len))
        self._carry = samples[full * self._len :].copy()

    def _fold(self, segs: np.ndarray) -> None:
        """Add the ``|DFT|^2`` of each row of ``segs`` to the sum, in row order."""
        full = segs.shape[0]
        batch = max(1, _BATCH_SAMPLES // self._len)
        for lo in range(0, full, batch):
            spectra = np.fft.fft(segs[lo : lo + batch], axis=1)
            rows = np.empty((spectra.shape[0] + 1, self._len))
            rows[0] = self._acc
            # re*re + im*im, squared in place: no further block-sized temporaries.
            np.multiply(spectra.real, spectra.real, out=rows[1:])
            np.multiply(spectra.imag, spectra.imag, out=spectra.imag)
            rows[1:] += spectra.imag
            # Summing along axis 0 adds row after row, except that a lone
            # column is summed pairwise: accumulate that one explicitly.
            self._acc = rows.sum(axis=0) if self._len > 1 else np.cumsum(rows[:, 0])[-1:]
        self.num_segments += full

    def result(self) -> PsdCurve:
        if self.num_segments < 1:
            raise ValueError(
                f"need at least one full segment of {self.segment_len} samples, "
                f"got {self._carry.size * self.hold}"
            )
        response = np.fft.fft(np.ones(self.hold), self.segment_len)
        acc = np.tile(self._acc, self.hold) * (response.real**2 + response.imag**2)
        power = acc / (self.num_segments * self.segment_len * self.sample_rate)
        return PsdCurve(
            freqs=_centered_grid(self.segment_len, self.sample_rate),
            values=np.fft.fftshift(power),
            normalization="absolute",
            meta={
                "segment_len": self.segment_len,
                "sample_rate": self.sample_rate,
                "num_segments": self.num_segments,
            },
        )


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
