"""Discrete-spectrum shaping by per-subcarrier linear precoding.

The unitary DFT of one OTFS frame splits by subcarrier: spectrum bin
``m*N + k`` depends only on grid column ``k`` through an M x M unitary
map (a DFT of size M times a unit-modulus diagonal).  Forcing a chosen
set of spectrum bins to zero therefore reduces to N independent
null-space problems, one per column: pick the payload-to-column precoder
inside the null space of the forbidden rows.

Two constructions are provided: ``nslp_precoder`` (conjugate-transposed
kept rows times an optional mixing matrix - always feasible, orthonormal
columns) and ``systematic_precoder`` (payload appears verbatim in the
first entries of the column; needs an invertible leading block and is
power-normalized afterwards, which preserves the nulls).

Without mixing the null-space form has a closed form: ``nslp_precoder(k)``
is ``T_k[kept]^H`` for the unitary subcarrier transform ``T_k``, so a
precoded frame's unitary spectrum is the payload itself, placed on the kept
bins ``m*N + k`` in (k, then m) order, with exact zeros on the masked bins.
``build_precoders`` records those bins, and ``presets.precoded_stream``
synthesizes such a set with one inverse FFT per frame instead of N matrix
products; every other set goes through its matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError, SystematicInfeasibleError
from .waveform import BasebandFrame, DelayDopplerGrid, dft_matrix

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


def discrete_spectrum(frame: Union[BasebandFrame, np.ndarray]) -> np.ndarray:
    """Unitary DFT of one frame's samples (length M*N spectrum bins)."""
    samples = frame.samples if isinstance(frame, BasebandFrame) else np.asarray(frame, dtype=np.complex128)
    if samples.ndim != 1:
        raise ValueError("frame samples must be 1-D")
    return np.fft.fft(samples, norm="ortho")


def subcarrier_transform(subcarrier: int, num_delay: int, num_doppler: int) -> np.ndarray:
    """Unitary M x M map from grid column k to its M spectrum bins.

    Row m gives spectrum bin ``m*N + k``; the matrix is the unitary DFT of
    size M times ``diag(exp(-2j*pi*l*k/(M*N)))``, so it stays unitary for
    every subcarrier.
    """
    if not 0 <= subcarrier < num_doppler:
        raise IndexError(f"subcarrier must be in [0, {num_doppler}), got {subcarrier}")
    total = num_delay * num_doppler
    l = np.arange(num_delay)
    phase = np.exp(-2j * np.pi * l * subcarrier / total)
    return dft_matrix(num_delay) * phase[None, :]


@dataclass(frozen=True)
class SpectrumMask:
    """A set of discrete-spectrum bins (natural FFT order) forced to zero."""

    num_delay: int
    num_doppler: int
    null_bins: np.ndarray

    def __post_init__(self) -> None:
        if self.num_delay < 1 or self.num_doppler < 1:
            raise ValueError("grid dimensions must be >= 1")
        bins = np.unique(np.asarray(self.null_bins, dtype=np.int64))
        total = self.num_delay * self.num_doppler
        if bins.size and (bins[0] < 0 or bins[-1] >= total):
            raise ValueError(f"null bins must lie in [0, {total}), got range [{bins[0]}, {bins[-1]}]")
        object.__setattr__(self, "null_bins", bins)

    @property
    def num_bins(self) -> int:
        return self.num_delay * self.num_doppler

    def nulled_rows(self, subcarrier: int) -> np.ndarray:
        """Ascending spectral row indices m with bin m*N + k nulled."""
        if not 0 <= subcarrier < self.num_doppler:
            raise IndexError(f"subcarrier must be in [0, {self.num_doppler}), got {subcarrier}")
        mine = self.null_bins[self.null_bins % self.num_doppler == subcarrier]
        return (mine // self.num_doppler).astype(np.int64)

    def kept_rows(self, subcarrier: int) -> np.ndarray:
        """Ascending spectral row indices that stay usable for payload."""
        nulled = self.nulled_rows(subcarrier)
        return np.setdiff1d(np.arange(self.num_delay, dtype=np.int64), nulled)

    def payload_sizes(self) -> np.ndarray:
        """Usable dimensions |J_k| per subcarrier."""
        return np.array([self.kept_rows(k).size for k in range(self.num_doppler)], dtype=np.int64)


def decompose_mask(null_bins: Sequence[int], num_delay: int, num_doppler: int) -> SpectrumMask:
    """Group masked spectrum bins by subcarrier: bin i belongs to column i mod N."""
    return SpectrumMask(num_delay=num_delay, num_doppler=num_doppler, null_bins=np.asarray(list(null_bins)))


def mask_from_pass_bands(
    pass_bands_hz: Sequence[Tuple[float, float]],
    num_delay: int,
    num_doppler: int,
    sample_interval: float,
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
    half = total // 2
    centered = np.arange(total) - half  # grid index relative to DC
    passed = np.zeros(total, dtype=bool)
    for lo_hz, hi_hz in pass_bands_hz:
        if not (hi_hz > lo_hz):
            raise ConfigurationError(f"empty pass band [{lo_hz}, {hi_hz})")
        # nearest bin, ties toward -inf; an edge far off the grid (even +-inf) is clipped to it
        with np.errstate(over="ignore"):
            lo, hi = np.clip(np.ceil(np.array([lo_hz, hi_hz]) / spacing - 0.5), -total, total)
        passed |= (centered >= lo) & (centered < hi)
    null_centered = centered[~passed]
    null_natural = np.mod(null_centered, total)
    return SpectrumMask(num_delay=num_delay, num_doppler=num_doppler, null_bins=null_natural)


def nslp_precoder(
    subcarrier: int,
    mask: SpectrumMask,
    mixing: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Null-space precoder for one subcarrier: M x |J_k|, orthonormal columns.

    The precoder is the conjugate transpose of the kept rows of the
    subcarrier transform, optionally times a mixing matrix whose Gram
    trace equals the payload dimension (the default identity satisfies
    this).  Masked rows of the transform annihilate it exactly and
    ``trace(P^H P)`` equals the payload dimension.  An empty payload
    (every row masked) yields the valid M x 0 precoder.
    """
    transform = subcarrier_transform(subcarrier, mask.num_delay, mask.num_doppler)
    kept = mask.kept_rows(subcarrier)
    base = transform[kept].conj().T  # M x |J_k|
    if mixing is None:
        mixing = np.eye(kept.size)
    else:
        mixing = np.asarray(mixing, dtype=np.complex128)
        if mixing.ndim != 2 or mixing.shape[0] != kept.size:
            raise ConfigurationError(
                f"mixing matrix must have {kept.size} rows for subcarrier {subcarrier}, "
                f"got shape {mixing.shape}"
            )
        gram_trace = float(np.trace(mixing.conj().T @ mixing).real)
        if not np.isclose(gram_trace, kept.size, rtol=1e-9, atol=1e-9):
            raise ConfigurationError(
                f"mixing matrix power must equal the payload dimension {kept.size}, "
                f"got trace(U^H U) = {gram_trace!r}"
            )
    return base @ mixing


def systematic_precoder(
    subcarrier: int,
    mask: SpectrumMask,
    cond_limit: float = SYSTEMATIC_COND_LIMIT,
) -> np.ndarray:
    """Systematic-form precoder: payload symbols appear verbatim up front.

    Built as ``[I; F2 @ inv(F1)]`` from the leading/trailing rows of the
    null-space solution, then scaled once to meet the power constraint
    (scaling cannot break the nulls).  Raises SystematicInfeasibleError
    when the leading block is simply too ill-conditioned to invert.
    """
    transform = subcarrier_transform(subcarrier, mask.num_delay, mask.num_doppler)
    kept = mask.kept_rows(subcarrier)
    payload_dim = kept.size
    base = transform[kept].conj().T  # M x |J_k|
    if payload_dim == 0:
        return base  # M x 0, nothing to invert
    lead = base[:payload_dim]
    tail = base[payload_dim:]
    cond = np.linalg.cond(lead)
    if not np.isfinite(cond) or cond > cond_limit:
        raise SystematicInfeasibleError(
            f"systematic form infeasible for subcarrier {subcarrier}: leading "
            f"{payload_dim}x{payload_dim} block has condition number {cond:.3e} "
            f"(limit {cond_limit:.1e}); use nslp_precoder instead"
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
    #: elsewhere.  Only ``build_precoders`` sets it (null-space form, no
    #: mixing); it is ``None`` for every other set, hand-built ones included.
    spectral_bins: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.form not in PRECODER_FORMS:
            raise ValueError(f"unknown precoder form {self.form!r}")
        if len(self.matrices) != self.mask.num_doppler:
            raise ValueError(
                f"need one precoder per subcarrier ({self.mask.num_doppler}), got {len(self.matrices)}"
            )
        object.__setattr__(self, "matrices", tuple(np.asarray(m, dtype=np.complex128) for m in self.matrices))

    @property
    def payload_sizes(self) -> np.ndarray:
        return np.array([m.shape[1] for m in self.matrices], dtype=np.int64)

    @property
    def total_payload(self) -> int:
        return int(self.payload_sizes.sum())


def build_precoders(
    mask: SpectrumMask,
    form: str = "null_space",
    mixing: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> PrecoderSet:
    """Construct the per-subcarrier precoders for a whole mask.

    The null-space form without mixing also records its ``spectral_bins``,
    which lets ``precoded_stream`` synthesize it in closed form.
    """
    if form == "null_space" and mixing is None:
        return _identity_null_space_precoders(mask)
    if form == "null_space":
        mats = [nslp_precoder(k, mask, mixing[k]) for k in range(mask.num_doppler)]
    elif form == "systematic":
        if mixing is not None:
            raise ConfigurationError("the systematic form takes no mixing matrices")
        mats = [systematic_precoder(k, mask) for k in range(mask.num_doppler)]
    else:
        raise ConfigurationError(f"unknown precoder form {form!r}")
    return PrecoderSet(mask=mask, form=form, matrices=tuple(mats))


def _identity_null_space_precoders(mask: SpectrumMask) -> PrecoderSet:
    """``nslp_precoder(k, mask)`` for every k, bit for bit, from one DFT and one phase table.

    The kept rows come from one pass over the null set.  Each matrix is
    formed with the same elementwise operations as ``subcarrier_transform``
    and the same trailing product with the identity, which settles the
    signs of zeros exactly as ``nslp_precoder`` does.
    """
    num_delay, num_doppler, total = mask.num_delay, mask.num_doppler, mask.num_bins
    kept = np.ones((num_doppler, num_delay), dtype=bool)  # [k, m]: bin m*N + k is usable
    kept[mask.null_bins % num_doppler, mask.null_bins // num_doppler] = False
    dft = dft_matrix(num_delay)
    l, k = np.arange(num_delay), np.arange(num_doppler)[:, None]
    phases = np.exp(-2j * np.pi * l * k / total)  # row k: subcarrier_transform's phase
    matrices = []
    for subcarrier in range(num_doppler):
        rows = np.flatnonzero(kept[subcarrier])
        base = (dft[rows] * phases[subcarrier]).conj().T  # M x |J_k|
        matrices.append(base @ np.eye(rows.size))
    precoders = PrecoderSet(mask=mask, form="null_space", matrices=tuple(matrices))
    subcarrier, row = np.nonzero(kept)  # in (subcarrier, then row) order: the payload's
    object.__setattr__(precoders, "spectral_bins", row * num_doppler + subcarrier)
    return precoders


def precode_grid(payloads: Sequence[np.ndarray], precoders: PrecoderSet) -> DelayDopplerGrid:
    """Map per-subcarrier payload vectors through the precoders into a grid.

    ``payloads[k]`` must have length equal to the subcarrier's payload
    dimension (possibly 0); column k of the result is ``P_k @ payloads[k]``.
    """
    mask = precoders.mask
    if len(payloads) != mask.num_doppler:
        raise ConfigurationError(
            f"need one payload vector per subcarrier ({mask.num_doppler}), got {len(payloads)}"
        )
    entries = np.zeros((mask.num_delay, mask.num_doppler), dtype=np.complex128)
    for k, (payload, matrix) in enumerate(zip(payloads, precoders.matrices)):
        payload = np.asarray(payload, dtype=np.complex128).ravel()
        if payload.size != matrix.shape[1]:
            raise ConfigurationError(
                f"subcarrier {k} expects a payload of length {matrix.shape[1]}, got {payload.size}"
            )
        if payload.size:
            entries[:, k] = matrix @ payload
    return DelayDopplerGrid(entries)
