"""Interpolation-filter models for the DAC stage.

Three filter kinds are supported, each with a closed-form squared
magnitude response used by the analytic PSDs and a time-domain
``reconstruct`` that produces the dense-grid signal the empirical PSDs
are estimated from:

* ``dirac_delta`` - the discrete signal itself (no interpolation,
  oversampling must be 1, response identically 1);
* ``truncated_sinc`` - sin(pi*t/T)/(pi*t/T) hard-truncated to
  ``order`` sample intervals on each side (no taper); its *model*
  response is the ideal brick wall, so the truncation error is exactly
  what empirical-vs-analytic comparisons measure.  It is applied as a
  direct polyphase convolution (Crochiere & Rabiner, *Multirate Digital
  Signal Processing*, 1983): output phase p of the dense grid is the
  input convolved with the sub-filter ``kernel[p::L]``, so the L-fold
  zero-stuffed stream is never built.  The kernel is exactly zero at
  every nonzero multiple of L, so phase 0 is the input itself, and each
  of the other L - 1 phases is two real convolutions (real and imaginary
  part) with its ``2*order`` real taps: ``8*order*(L - 1)`` flops per
  input sample, growing linearly with ``order``;
* ``rect`` - zero-order hold (each sample repeated L times), response
  |sinc(f*T)|^2, which is 3.92 dB down at half the sample rate.

No filter needs dense samples to be estimated: ``estimate.PeriodogramAverager``
takes the symbol-rate stream, with ``hold=L`` and the sinc's ``order``, and
gets each segment's dense DFT from symbol-rate DFTs, exactly in discrete
time.  ``reconstruct`` is the time-domain path and the estimates' test
oracle; both check their arguments with ``check_reconstruction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError
from .waveform import FrameStream

__all__ = [
    "FILTER_KINDS",
    "InterpolationFilter",
    "OversampledSignal",
    "filter_response_sq",
    "reconstruct",
]

FILTER_KINDS = ("dirac_delta", "truncated_sinc", "rect")


@dataclass(frozen=True)
class InterpolationFilter:
    """DAC interpolation filter: kind, nominal sample interval, sinc order."""

    kind: str
    sample_interval: float
    order: int = 50

    def __post_init__(self) -> None:
        if self.kind not in FILTER_KINDS:
            raise ConfigurationError(
                f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}"
            )
        if not (self.sample_interval > 0):
            raise ConfigurationError("filter sample_interval must be positive")
        if self.kind == "truncated_sinc" and (int(self.order) != self.order or self.order < 1):
            raise ConfigurationError(f"truncated_sinc order must be an integer >= 1, got {self.order}")

    @classmethod
    def dirac(cls, sample_interval: float) -> "InterpolationFilter":
        return cls("dirac_delta", sample_interval)

    @classmethod
    def truncated_sinc(cls, sample_interval: float, order: int = 50) -> "InterpolationFilter":
        return cls("truncated_sinc", sample_interval, order)

    @classmethod
    def rect(cls, sample_interval: float) -> "InterpolationFilter":
        return cls("rect", sample_interval)

    def describe(self) -> str:
        """Short stable label used in file headers."""
        if self.kind == "truncated_sinc":
            return f"truncated_sinc:{int(self.order)}"
        return self.kind


@dataclass(frozen=True)
class OversampledSignal:
    """Dense-grid reconstruction: samples at ``sample_rate`` starting at ``origin_time``."""

    samples: np.ndarray
    sample_rate: float
    origin_time: float = 0.0
    samples_per_frame: Optional[int] = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("oversampled samples must be a 1-D array")
        if not (self.sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def num_samples(self) -> int:
        return self.samples.size


def filter_response_sq(filt: InterpolationFilter, freqs: np.ndarray) -> np.ndarray:
    """Squared magnitude of the filter's model frequency response |G(f)|^2.

    The truncated sinc is modeled by its ideal brick-wall limit: 1 inside
    |f| < 1/(2T), 1/4 at exactly |f| = 1/(2T) (the squared half-height
    boundary value), 0 outside.  The zero-order hold is |sinc(f*T)|^2 and
    the Dirac delta is identically 1.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    x = freqs * filt.sample_interval
    if filt.kind == "dirac_delta":
        return np.ones_like(x)
    if filt.kind == "truncated_sinc":
        resp = np.zeros_like(x)
        inside = np.abs(x) < 0.5
        boundary = np.abs(x) == 0.5
        resp[inside] = 1.0
        resp[boundary] = 0.25
        return resp
    # rect / zero-order hold
    return np.sinc(x) ** 2


def _stream_samples(stream: Union[FrameStream, np.ndarray]) -> tuple:
    """``(samples, sample interval, samples per frame)`` of a stream; an array has ``None`` for the last two."""
    if isinstance(stream, FrameStream):
        return stream.concatenated(), stream.sample_interval, stream.samples_per_frame
    samples = np.asarray(stream, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError("sample input must be a 1-D array")
    return samples, None, None


def sinc_kernel(oversampling: int, order: int) -> np.ndarray:
    """Truncated-sinc taps on the dense grid: sinc(i/L) for |i| <= order*L.

    The taps at the nonzero multiples of L are exact zeros (``np.sinc``
    leaves rounding residue there), so ``kernel[::L]`` is the unit impulse.
    """
    i = np.arange(-order * oversampling, order * oversampling + 1)
    kernel = np.sinc(i / oversampling)
    kernel[::oversampling] = 0.0
    kernel[order * oversampling] = 1.0
    return kernel


def check_reconstruction(
    filt: InterpolationFilter, oversampling: int, stream_interval: Optional[float] = None
) -> int:
    """The integer oversampling factor, or the ``ConfigurationError`` of an invalid reconstruction.

    Refused: an oversampling factor that is not an integer >= 1, a stream
    ``stream_interval`` (when known) other than the filter's, and
    ``dirac_delta`` with ``oversampling != 1``.
    """
    if int(oversampling) != oversampling or oversampling < 1:
        raise ConfigurationError(f"oversampling must be an integer >= 1, got {oversampling}")
    if stream_interval is not None and not np.isclose(
        stream_interval, filt.sample_interval, rtol=1e-12, atol=0.0
    ):
        raise ConfigurationError(
            f"stream sample_interval {stream_interval!r} does not match "
            f"filter sample_interval {filt.sample_interval!r}"
        )
    if filt.kind == "dirac_delta" and oversampling != 1:
        raise ConfigurationError("dirac_delta reconstruction requires oversampling == 1")
    return int(oversampling)


def reconstruct(
    stream: Union[FrameStream, np.ndarray],
    filt: InterpolationFilter,
    oversampling: int,
) -> OversampledSignal:
    """Interpolate a sample stream onto a dense grid with step T/L.

    ``dirac_delta`` requires ``oversampling == 1`` and returns the samples
    unchanged.  ``rect`` holds each sample for L dense steps.
    ``truncated_sinc`` convolves the zero-stuffed stream with the
    hard-truncated kernel, computed phase by phase: dense sample
    ``q*L + p`` is ``sum_i x[i] * kernel[(q - i)*L + p]``, the input
    convolved directly (``np.convolve``) with the sub-filter
    ``kernel[p::L]``.  Phase 0's sub-filter is the unit impulse, so that
    phase is the input copied to dense offset ``order*L``.  The other
    phases' sub-filters are real, so each convolves the real and the
    imaginary part apart with its ``2*order`` taps: ``4*order*(L - 1)``
    real multiply-adds per input sample, growing linearly with ``order``.
    Samples outside the stream are treated as zero, so the output grows by
    the kernel tail ``2*order*L`` and starts at ``origin_time = -order*T``;
    an empty stream gives those ``2*order*L`` zeros.
    """
    samples, stream_interval, per_frame = _stream_samples(stream)
    oversampling = check_reconstruction(filt, oversampling, stream_interval)
    interval = filt.sample_interval
    rate = oversampling / interval
    dense_per_frame = per_frame * oversampling if per_frame else None

    if filt.kind == "dirac_delta":
        return OversampledSignal(
            samples=samples.copy(),
            sample_rate=rate,
            origin_time=0.0,
            samples_per_frame=per_frame,
        )

    if filt.kind == "rect":
        return OversampledSignal(
            samples=np.repeat(samples, oversampling),
            sample_rate=rate,
            origin_time=0.0,
            samples_per_frame=dense_per_frame,
        )

    # truncated_sinc
    order = int(filt.order)
    kernel = sinc_kernel(oversampling, order)
    # Full zero-stuffed convolution length L*n + 2*order*L: each phase holds
    # n + 2*order samples, of which the sub-filters of phases p >= 1 (one tap
    # shorter) leave the last at zero.
    dense = np.zeros(samples.size * oversampling + 2 * order * oversampling, dtype=np.complex128)
    if samples.size:  # np.convolve rejects an empty input; its reconstruction is all zeros
        dense[order * oversampling :: oversampling][: samples.size] = samples
        # Contiguous once: np.convolve would copy each strided part once per phase.
        real, imag = samples.real.copy(), samples.imag.copy()
        for phase in range(1, oversampling):
            taps = kernel[phase::oversampling]
            out = dense[phase::oversampling][: samples.size + taps.size - 1]
            out.real = np.convolve(real, taps)
            out.imag = np.convolve(imag, taps)
    return OversampledSignal(
        samples=dense,
        sample_rate=rate,
        origin_time=-order * interval,
        samples_per_frame=dense_per_frame,
    )
