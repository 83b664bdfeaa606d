"""Discrete-spectrum shaping by per-subcarrier linear precoding.

The unitary DFT of one OTFS frame splits by subcarrier: spectrum bin
``m*N + k`` depends only on grid column k, through the M x M unitary map
``T_k = subcarrier_transform(k)`` (a size-M DFT times a unit-modulus
diagonal).  Nulling a set of bins is therefore N independent null-space
problems: precode column k inside the null space of its masked rows.

A ``SpectrumMask`` holds one table, ``kept[k, m]``: bin ``m*N + k``
carries payload.  Every precoder starts from one basis, the kept rows of
``T_k`` conjugate-transposed (orthonormal columns, annihilated exactly by
the masked rows).  ``nslp_precoder`` is that basis times an optional
mixing matrix; ``systematic_precoder`` makes it ``[I; F2 @ inv(F1)]``,
payload verbatim up front, then normalizes its power (which keeps the
nulls).  ``build_precoders`` makes either form from one DFT and one phase
table, bit for bit as those functions do.  With the identity mixing a
frame's unitary spectrum is the payload on the kept bins (k, then m
order): ``build_precoders`` records those bins, so ``precoded_stream``
makes each grid column with one M-point inverse FFT of its spectrum row,
while every other set goes through its matrices, as ``precode_grid`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError, SystematicInfeasibleError
from .waveform import DelayDopplerGrid, FrameStream, dft_matrix

__all__ = [
    "PRECODER_FORMS",
    "SpectrumMask",
    "PrecoderSet",
    "discrete_spectrum",
    "subcarrier_transform",
    "decompose_mask",
    "mask_from_pass_bands",
    "nslp_precoder",
    "systematic_precoder",
    "build_precoders",
    "precode_grid",
]

#: Precoder forms ``build_precoders`` can construct.
PRECODER_FORMS = ("null_space", "systematic")

#: Condition-number limit beyond which the systematic form is refused.
SYSTEMATIC_COND_LIMIT = 1e12


def discrete_spectrum(frames: Union[FrameStream, np.ndarray]) -> np.ndarray:
    """Unitary DFT of each frame (a stream's rows, or an array's last axis); one frame gives 1-D bins."""
    if isinstance(frames, FrameStream):
        frames = frames.frames[0] if len(frames) == 1 else frames.frames
    return np.fft.fft(np.asarray(frames, dtype=np.complex128), axis=-1, norm="ortho")


def subcarrier_transform(subcarrier: int, num_delay: int, num_doppler: int) -> np.ndarray:
    """Unitary M x M map from grid column k to its M spectrum bins.

    Row m gives spectrum bin ``m*N + k``; the matrix is the unitary DFT of
    size M times ``diag(exp(-2j*pi*l*k/(M*N)))``, so it stays unitary for
    every subcarrier.
    """
    if not 0 <= subcarrier < num_doppler:
        raise IndexError(f"subcarrier must be in [0, {num_doppler}), got {subcarrier}")
    return dft_matrix(num_delay) * _phases(num_delay, num_doppler, subcarrier)


def _phases(num_delay: int, num_doppler: int, subcarriers: Union[int, np.ndarray]) -> np.ndarray:
    """The diagonal ``exp(-2j*pi*l*k/(M*N))`` over l, for a subcarrier k or a column of them."""
    l = np.arange(num_delay)
    return np.exp(-2j * np.pi * l * subcarriers / (num_delay * num_doppler))


def _kept_basis(dft: np.ndarray, phase: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The null-space basis: the kept rows of the subcarrier transform ``dft * phase``, conjugate-transposed.

    The result is M x |J_k|.  The product is elementwise, so forming only
    the kept rows gives the whole transform's kept rows, bit for bit.
    """
    return (dft[kept] * phase).conj().T


def _subcarrier_basis(mask: SpectrumMask, subcarrier: int) -> np.ndarray:
    """``_kept_basis`` of one subcarrier of ``mask``, from its own DFT and phase."""
    kept = mask._kept_row(subcarrier)
    return _kept_basis(dft_matrix(mask.num_delay), _phases(mask.num_delay, mask.num_doppler, subcarrier), kept)


def _identity_mixed(base: np.ndarray) -> np.ndarray:
    """``base`` times the identity, bit for bit (-0.0 parts become +0.0) without a BLAS call, which can stall."""
    return base + 0j


@dataclass(frozen=True)
class SpectrumMask:
    """A set of discrete-spectrum bins (natural FFT order) forced to zero."""

    num_delay: int
    num_doppler: int
    null_bins: np.ndarray
    #: ``kept[k, m]`` is true when bin ``m*N + k`` carries payload (read-only, N x M).
    kept: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_delay < 1 or self.num_doppler < 1:
            raise ValueError("grid dimensions must be >= 1")
        bins = np.unique(np.asarray(self.null_bins, dtype=np.int64))
        if bins.size and (bins[0] < 0 or bins[-1] >= self.num_bins):
            raise ValueError(f"null bins must lie in [0, {self.num_bins}), got range [{bins[0]}, {bins[-1]}]")
        object.__setattr__(self, "null_bins", bins)
        kept = np.ones((self.num_doppler, self.num_delay), dtype=bool)
        kept[bins % self.num_doppler, bins // self.num_doppler] = False
        kept.flags.writeable = False
        object.__setattr__(self, "kept", kept)

    @property
    def num_bins(self) -> int:
        return self.num_delay * self.num_doppler

    def nulled_rows(self, subcarrier: int) -> np.ndarray:
        """Ascending spectral row indices m with bin m*N + k nulled."""
        return np.flatnonzero(~self._kept_row(subcarrier))

    def kept_rows(self, subcarrier: int) -> np.ndarray:
        """Ascending spectral row indices that stay usable for payload."""
        return np.flatnonzero(self._kept_row(subcarrier))

    def payload_sizes(self) -> np.ndarray:
        """Usable dimensions |J_k| per subcarrier."""
        return self.kept.sum(axis=1, dtype=np.int64)

    def _kept_row(self, subcarrier: int) -> np.ndarray:
        if not 0 <= subcarrier < self.num_doppler:
            raise IndexError(f"subcarrier must be in [0, {self.num_doppler}), got {subcarrier}")
        return self.kept[subcarrier]


def decompose_mask(null_bins: Sequence[int], num_delay: int, num_doppler: int) -> SpectrumMask:
    """Group masked spectrum bins by subcarrier: bin i belongs to column i mod N."""
    return SpectrumMask(num_delay=num_delay, num_doppler=num_doppler, null_bins=np.asarray(list(null_bins)))


def mask_from_pass_bands(
    pass_bands_hz: Sequence[Tuple[float, float]], num_delay: int, num_doppler: int, sample_interval: float
) -> SpectrumMask:
    """Mask every spectrum bin whose center frequency falls in no pass band.

    Bin centers sit on the M*N-point grid with spacing 1/(M*N*T), centered
    around DC.  Band edges are rounded to the nearest bin, ties toward
    -infinity, and each band covers the half-open index range [lo, hi).
    """
    if not (sample_interval > 0):
        raise ConfigurationError("sample_interval must be positive")
    total = num_delay * num_doppler
    spacing = 1.0 / (total * sample_interval)
    centered = np.arange(total) - total // 2  # grid index relative to DC
    passed = np.zeros(total, dtype=bool)
    for lo_hz, hi_hz in pass_bands_hz:
        if not (hi_hz > lo_hz):
            raise ConfigurationError(f"empty pass band [{lo_hz}, {hi_hz})")
        # nearest bin, ties toward -inf; an edge far off the grid (even +-inf) is clipped to it
        with np.errstate(over="ignore"):
            lo, hi = np.clip(np.ceil(np.array([lo_hz, hi_hz]) / spacing - 0.5), -total, total)
        passed |= (centered >= lo) & (centered < hi)
    return SpectrumMask(num_delay=num_delay, num_doppler=num_doppler, null_bins=np.mod(centered[~passed], total))


def nslp_precoder(subcarrier: int, mask: SpectrumMask, mixing: Optional[np.ndarray] = None) -> np.ndarray:
    """Null-space precoder for one subcarrier: M x |J_k|, orthonormal columns.

    The precoder is the conjugate transpose of the kept rows of the
    subcarrier transform, optionally times a mixing matrix whose Gram
    trace equals the payload dimension (the default identity satisfies
    this).  Masked rows of the transform annihilate it exactly and
    ``trace(P^H P)`` equals the payload dimension.  An empty payload
    (every row masked) yields the valid M x 0 precoder.
    """
    base = _subcarrier_basis(mask, subcarrier)
    payload_dim = base.shape[1]
    if mixing is None:
        return _identity_mixed(base)
    mixing = np.asarray(mixing, dtype=np.complex128)
    if mixing.ndim != 2 or mixing.shape[0] != payload_dim:
        raise ConfigurationError(
            f"mixing matrix must have {payload_dim} rows for subcarrier {subcarrier}, "
            f"got shape {mixing.shape}"
        )
    gram_trace = float(np.trace(mixing.conj().T @ mixing).real)
    if not np.isclose(gram_trace, payload_dim, rtol=1e-9, atol=1e-9):
        raise ConfigurationError(
            f"mixing matrix power must equal the payload dimension {payload_dim}, "
            f"got trace(U^H U) = {gram_trace!r}"
        )
    return base @ mixing


def systematic_precoder(subcarrier: int, mask: SpectrumMask) -> np.ndarray:
    """Systematic-form precoder: payload symbols appear verbatim up front.

    Built as ``[I; F2 @ inv(F1)]`` from the leading/trailing rows of the
    null-space solution, then scaled once to meet the power constraint
    (scaling cannot break the nulls).  Raises SystematicInfeasibleError
    when the leading block is simply too ill-conditioned to invert.
    """
    return _systematic(_subcarrier_basis(mask, subcarrier), subcarrier)


def _systematic(base: np.ndarray, subcarrier: int) -> np.ndarray:
    """The systematic form of one subcarrier's null-space basis."""
    payload_dim = base.shape[1]
    if payload_dim == 0:
        return base  # M x 0, nothing to invert
    lead, tail = base[:payload_dim], base[payload_dim:]
    cond = np.linalg.cond(lead)
    if not np.isfinite(cond) or cond > SYSTEMATIC_COND_LIMIT:
        raise SystematicInfeasibleError(
            f"systematic form infeasible for subcarrier {subcarrier}: leading "
            f"{payload_dim}x{payload_dim} block has condition number {cond:.3e} "
            f"(limit {SYSTEMATIC_COND_LIMIT:.1e}); use nslp_precoder instead"
        )
    parity = tail @ np.linalg.inv(lead) if tail.size else np.empty((0, payload_dim), dtype=np.complex128)
    precoder = np.vstack([np.eye(payload_dim, dtype=np.complex128), parity])
    power = float(np.trace(precoder.conj().T @ precoder).real)
    return precoder * np.sqrt(payload_dim / power)


@dataclass(frozen=True)
class PrecoderSet:
    """One precoder per subcarrier, all built from the same mask."""

    mask: SpectrumMask
    form: str
    matrices: Tuple[np.ndarray, ...]
    #: The spectrum bin of each payload entry, in (subcarrier, then row) order,
    #: when the precoded spectrum is exactly the payload on those bins and zero
    #: elsewhere.  Only ``build_precoders`` sets it (null-space form, whose
    #: mixing is the identity); it is ``None`` for every other set, hand-built
    #: ones included.
    spectral_bins: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.form not in PRECODER_FORMS:
            raise ValueError(f"unknown precoder form {self.form!r}")
        num_doppler = self.mask.num_doppler
        if len(self.matrices) != num_doppler:
            raise ValueError(f"need one precoder per subcarrier ({num_doppler}), got {len(self.matrices)}")
        object.__setattr__(self, "matrices", tuple(np.asarray(m, dtype=np.complex128) for m in self.matrices))

    @property
    def payload_sizes(self) -> np.ndarray:
        return np.array([m.shape[1] for m in self.matrices], dtype=np.int64)

    @property
    def total_payload(self) -> int:
        return int(self.payload_sizes.sum())


def build_precoders(mask: SpectrumMask, form: str = "null_space") -> PrecoderSet:
    """Construct the per-subcarrier precoders for a whole mask.

    Each matrix is the one ``nslp_precoder(k, mask)`` or
    ``systematic_precoder(k, mask)`` returns, bit for bit: the same basis
    and phase helpers, applied to one DFT and one phase table.  The
    null-space form also records its ``spectral_bins``, which lets
    ``precoded_stream`` synthesize it in closed form.
    """
    if form not in PRECODER_FORMS:
        raise ConfigurationError(f"unknown precoder form {form!r}")
    dft = dft_matrix(mask.num_delay)
    phases = _phases(mask.num_delay, mask.num_doppler, np.arange(mask.num_doppler)[:, None])
    bases = (_kept_basis(dft, phases[k], mask.kept[k]) for k in range(mask.num_doppler))  # each finished in turn
    if form == "systematic":
        return PrecoderSet(mask, form, tuple(_systematic(base, k) for k, base in enumerate(bases)))
    precoders = PrecoderSet(mask, form, tuple(map(_identity_mixed, bases)))
    subcarrier, row = np.nonzero(mask.kept)  # in (subcarrier, then row) order: the payload's
    object.__setattr__(precoders, "spectral_bins", row * mask.num_doppler + subcarrier)
    return precoders


def precode_grid(payloads: Sequence[np.ndarray], precoders: PrecoderSet) -> DelayDopplerGrid:
    """Map per-subcarrier payload vectors through the precoders into a grid.

    ``payloads[k]`` must have length equal to the subcarrier's payload
    dimension (possibly 0); column k of the result is ``P_k @ payloads[k]``,
    computed as a one-frame block of a precoded stream's matrix synthesis.
    """
    num_doppler = precoders.mask.num_doppler
    if len(payloads) != num_doppler:
        raise ConfigurationError(f"need one payload vector per subcarrier ({num_doppler}), got {len(payloads)}")
    vectors = [np.asarray(payload, dtype=np.complex128).ravel() for payload in payloads]
    for k, (vector, size) in enumerate(zip(vectors, precoders.payload_sizes)):
        if vector.size != size:
            raise ConfigurationError(f"subcarrier {k} expects a payload of length {size}, got {vector.size}")
    return DelayDopplerGrid(_precode_rows(precoders, np.concatenate(vectors)[None, :])[0])


def _precode_rows(precoders: PrecoderSet, payload: np.ndarray) -> np.ndarray:
    """Grids (frames x M x N) of payload rows (frames x total payload) through the precoder matrices.

    The grids are in (frame, k, l) memory, each grid column contiguous, the
    order ``waveform._frame_spectra`` reads.  A one-row product takes BLAS's
    matrix-vector path, which rounds differently from the matrix-matrix path
    of longer blocks: a lone frame is padded with a zero row, so every frame
    is computed alike whatever block it falls in, and a precoded stream
    stays prefix-stable.
    """
    mask = precoders.mask
    offsets = np.concatenate([[0], np.cumsum(precoders.payload_sizes)])
    rows = payload if len(payload) > 1 else np.vstack([payload, np.zeros_like(payload)])
    entries = np.zeros((len(rows), mask.num_doppler, mask.num_delay), dtype=np.complex128).transpose(0, 2, 1)
    for k, matrix in enumerate(precoders.matrices):
        entries[:, :, k] = rows[:, offsets[k] : offsets[k + 1]] @ matrix.T
    return entries[: len(payload)]
