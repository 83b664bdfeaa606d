"""Closed-form power spectral densities of the modulated streams.

Every analytic curve is a weighted comb of squared Dirichlet kernels

    D2_N(x) = sin(pi*x)^2 / (N * sin(pi*x/N))^2,

period ``N``, peak value 1 at multiples of ``N``, times the interpolation
filter's squared response.  For an OTFS stream the kernel argument is
``k - f*M*N*T`` with per-subcarrier weights ``mean_l sigma2[l, k] / T``;
for OFDM it is ``k - f*N*T`` with the same weights; CEP component ``l``
uses the OTFS argument with weights ``sigma2[l, k] / (M*T)``, so the M
component curves sum exactly to the OTFS curve.  With the Dirac-delta
filter the OTFS curve is periodic in ``f`` with period ``1/(M*T)``.

The comb ``S(x) = sum_k w_k D2_N(k - x)`` is a trigonometric polynomial of
degree ``N - 1`` in ``x/N`` with coefficients ``c_d = (N - |d|)/N^2 * W_d``,
``W = N * ifft(w)``.  On a uniform grid ``x_i = x_0 + i*step`` it is evaluated
as one chirp-z transform (Rabiner, Schafer & Rader 1969; Bluestein 1970):
three FFTs of length ``>= F + N - 1``, so O((F + N) log(F + N)) time and
O(F + N) memory for F grid points.  Every phase is reduced exactly modulo a
full turn before it is multiplied out, so the comb at ``x_0 + i*step`` is
exact to a few ulps of its peak at any offset; the grid points themselves
differ from ``x_0 + i*step`` by rounding only.  Grids that are not uniform up
to rounding, which only direct callers pass, fall back to the O(N*F) sum of
the explicit Dirichlet matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .dac import InterpolationFilter, filter_response_sq
from .errors import ConfigurationError
from .waveform import VarianceProfile

__all__ = [
    "PsdCurve",
    "dirichlet_sq",
    "otfs_psd",
    "ofdm_psd",
    "cep_ofdm_psd",
]

#: |x mod N| below this counts as the removable singularity -> value 1.
_SINGULARITY_EPS = 1e-9

#: A grid within this many ulps of its largest endpoint of ``x[0] + i*step`` is
#: uniform; the rounding of ``linspace`` and of the frequency scaling stays inside it.
_UNIFORM_ULPS = 8


def dirichlet_sq(num_doppler: int, x) -> np.ndarray:
    """Squared Dirichlet kernel D2_N(x), clamped to [0, 1 + 1e-12].

    The removable singularity at x = 0 (mod N) is detected within 1e-9 of
    the nearest multiple and returns the peak value 1 exactly.
    """
    if num_doppler < 1:
        raise ValueError(f"kernel size must be >= 1, got {num_doppler}")
    n = num_doppler
    x = np.asarray(x, dtype=np.float64)
    r = np.mod(x, n)
    near_peak = (r < _SINGULARITY_EPS) | (n - r < _SINGULARITY_EPS)
    safe = np.where(near_peak, 0.25 * n, r)  # any argument away from the zeros
    num = np.sin(np.pi * safe) ** 2
    den = (n * np.sin(np.pi * safe / n)) ** 2
    out = np.where(near_peak, 1.0, num / den)
    return np.clip(out, 0.0, 1.0 + 1e-12)


@dataclass(frozen=True)
class PsdCurve:
    """PSD samples on an increasing frequency grid.

    ``normalization`` is ``"absolute"`` for raw formula/estimator output or
    ``"peak_one"`` after dividing by the curve maximum.  ``meta`` carries
    free-form provenance for file headers and does not affect equality.
    """

    freqs: np.ndarray
    values: np.ndarray
    normalization: str = "absolute"
    meta: Dict[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if freqs.ndim != 1 or values.ndim != 1 or freqs.size != values.size:
            raise ValueError("freqs and values must be 1-D arrays of equal length")
        if freqs.size < 1:
            raise ValueError("a PSD curve needs at least one point")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("PSD values must be finite")
        if self.normalization not in ("absolute", "peak_one"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "values", values)

    @property
    def num_points(self) -> int:
        return self.freqs.size

    def peak_one(self) -> "PsdCurve":
        """Scale so the maximum value is exactly 1."""
        peak = self.values.max()
        if peak <= 0:
            raise ValueError("cannot peak-normalize a curve with no positive values")
        return PsdCurve(self.freqs, self.values / peak, "peak_one", dict(self.meta))

    def restrict(self, f_lo: float, f_hi: float) -> "PsdCurve":
        """Keep grid points with f_lo <= f < f_hi."""
        keep = (self.freqs >= f_lo) & (self.freqs < f_hi)
        if not np.any(keep):
            raise ValueError(f"no grid points in [{f_lo}, {f_hi})")
        return PsdCurve(self.freqs[keep], self.values[keep], self.normalization, dict(self.meta))

    def resampled_onto(self, freqs: np.ndarray) -> "PsdCurve":
        """Linear interpolation onto another grid (must lie inside this one's span)."""
        freqs = np.asarray(freqs, dtype=np.float64)
        if freqs.min() < self.freqs.min() or freqs.max() > self.freqs.max():
            raise ValueError("target grid extends beyond this curve's frequency span")
        return PsdCurve(
            freqs, np.interp(freqs, self.freqs, self.values), self.normalization, dict(self.meta)
        )


def _check_filter(filt: InterpolationFilter, sample_interval: float) -> None:
    if not (sample_interval > 0):
        raise ConfigurationError("sample_interval must be positive")
    if not np.isclose(filt.sample_interval, sample_interval, rtol=1e-12, atol=0.0):
        raise ConfigurationError(
            f"filter sample_interval {filt.sample_interval!r} does not match "
            f"requested {sample_interval!r}"
        )


def _dense_comb(weights: np.ndarray, kernel_size: int, scaled_freqs: np.ndarray) -> np.ndarray:
    """The comb as an explicit (weights x grid) Dirichlet matrix: O(N*F) time and memory."""
    k = np.arange(weights.size)[:, None]
    return (weights[:, None] * dirichlet_sq(kernel_size, k - scaled_freqs[None, :])).sum(axis=0)


def _affine_fit(x: np.ndarray):
    """``(x[0], step)`` if the 1-D ``x`` equals ``x[0] + i*step`` up to rounding, else ``None``."""
    if x.ndim != 1 or x.size == 0:
        return None
    step = (x[-1] - x[0]) / (x.size - 1) if x.size > 1 else 0.0
    tol = _UNIFORM_ULPS * np.finfo(np.float64).eps * max(abs(x[0]), abs(x[-1]))
    uniform = (
        np.isfinite([tol, step]).all()
        and np.max(np.abs(x - (x[0] + step * np.arange(x.size)))) <= tol
    )
    return (float(x[0]), float(step)) if uniform else None


def _turns(t: float, m: np.ndarray, period: float) -> np.ndarray:
    """``(t*m mod period) / period`` for finite ``t`` and integer-valued ``0 <= m < 2**52``.

    ``t`` is cut into limbs short enough that every ``limb * m`` is exact, so
    the only rounding is in summing the reduced limbs (about 1 ulp of a turn).
    """
    bits = max(1, 53 - int(m.max()).bit_length())
    acc = np.zeros_like(m)
    while t:
        mantissa, exponent = np.frexp(t)
        limb = float(np.ldexp(np.trunc(np.ldexp(mantissa, bits)), exponent - bits))
        acc += np.fmod(limb * m, period)
        t -= limb
    return np.mod(acc, period) / period


def _chirp_z_comb(weights: np.ndarray, n: int, x0: float, step: float, count: int) -> np.ndarray:
    """The comb at ``x0 + i*step``, ``i < count``, as one chirp-z transform.

    The comb is ``2 Re sum_{d<n} a_d z**(d*i)`` with ``a_d = c_d exp(-2j pi d x0/n)``
    (``a_0`` halved) and ``z = exp(-2j pi step/n)``.  Bluestein's identity
    ``d*i = (d^2 + i^2 - (i-d)^2)/2`` turns the sum into one linear convolution
    with the chirp ``exp(-1j pi (step/n) m^2)``.
    """
    d = np.arange(n, dtype=np.float64)
    coeffs = (n - d) / n * np.fft.ifft(weights, n)
    coeffs[0] *= 0.5
    coeffs *= np.exp(-2j * np.pi * _turns(x0, d, n))
    m = np.arange(max(count, n), dtype=np.float64)
    chirp = np.exp(-2j * np.pi * _turns(step, m * m, 2 * n))
    size = 1 << (count + n - 2).bit_length()  # no wrap-around in the circular convolution
    kernel = np.concatenate([chirp[:count], np.zeros(size - count - n + 1), chirp[n - 1 : 0 : -1]])
    conv = np.fft.ifft(np.fft.fft(coeffs * chirp[:n], size) * np.fft.fft(kernel.conj()))
    return 2.0 * (chirp[:count] * conv[:count]).real


def _comb(
    weights: np.ndarray,
    kernel_size: int,
    scaled_freqs: np.ndarray,
    response: np.ndarray,
) -> np.ndarray:
    """``sum_k weights[k] * D2_N(k - x) * response`` on the grid ``x = scaled_freqs``."""
    grid = _affine_fit(scaled_freqs)
    if grid is None:
        comb = _dense_comb(weights, kernel_size, scaled_freqs)
    else:
        comb = _chirp_z_comb(weights, kernel_size, *grid, scaled_freqs.size)
    return np.maximum(comb, 0.0) * response  # rounding near the comb's zeros has either sign


def _analytic_psd(
    profile: VarianceProfile,
    sample_interval: float,
    filt: InterpolationFilter,
    freqs: np.ndarray,
    power: np.ndarray,
    rows: int,
    **meta: object,
) -> PsdCurve:
    """Comb with weights ``power / T`` and kernel argument ``k - f*rows*N*T``."""
    _check_filter(filt, sample_interval)
    freqs = np.asarray(freqs, dtype=np.float64)
    scaled = freqs * (rows * profile.num_doppler * sample_interval)
    values = _comb(power / sample_interval, profile.num_doppler, scaled, filter_response_sq(filt, freqs))
    shape = {"num_delay": profile.num_delay, "num_doppler": profile.num_doppler}
    meta = {**shape, "sample_interval": sample_interval, "filter": filt.describe(), **meta}
    return PsdCurve(freqs, values, "absolute", meta)


def otfs_psd(
    profile: VarianceProfile,
    sample_interval: float,
    filt: InterpolationFilter,
    freqs: np.ndarray,
) -> PsdCurve:
    """Analytic PSD of the OTFS stream on the given frequency grid.

    Value at f: sum_k (mean_l sigma2[l,k] / T) * D2_N(k - f*M*N*T) * |G(f)|^2.
    """
    power = profile.per_subcarrier_power()
    return _analytic_psd(profile, sample_interval, filt, freqs, power, profile.num_delay, waveform="otfs")


def ofdm_psd(
    profile: VarianceProfile,
    sample_interval: float,
    filt: InterpolationFilter,
    freqs: np.ndarray,
) -> PsdCurve:
    """Analytic PSD of the OFDM stream: sum_k (mean_l sigma2[l,k]/T) * D2_N(k - f*N*T) * |G(f)|^2."""
    power = profile.per_subcarrier_power()
    return _analytic_psd(profile, sample_interval, filt, freqs, power, 1, waveform="ofdm")


def cep_ofdm_psd(
    profile: VarianceProfile,
    delay_index: int,
    sample_interval: float,
    filt: InterpolationFilter,
    freqs: np.ndarray,
) -> PsdCurve:
    """Analytic PSD of CEP component l: sum_k (sigma2[l,k]/(M*T)) * D2_N(k - f*M*N*T) * |G(f)|^2.

    Summing the M component curves reproduces ``otfs_psd`` exactly.
    """
    if not 0 <= delay_index < profile.num_delay:
        raise IndexError(
            f"delay_index must be in [0, {profile.num_delay}), got {delay_index}"
        )
    power = profile.sigma2[delay_index] / profile.num_delay
    return _analytic_psd(
        profile, sample_interval, filt, freqs, power, profile.num_delay,
        waveform="cep_ofdm", delay_index=delay_index,
    )
