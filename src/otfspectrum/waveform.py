"""Delay-Doppler grids and the time-domain modulators built on them.

Sample-layout conventions used throughout the package
-----------------------------------------------------

A grid ``X`` has shape ``(num_delay, num_doppler)``; row ``l`` is a delay
bin, column ``k`` a Doppler (equivalently, subcarrier) bin.  With
``M = num_delay`` and ``N = num_doppler``:

* the OTFS frame interleaves delay bins at sample stride ``M``: sample
  ``n*M + l`` carries the inverse-DFT value of row ``l`` at time index
  ``n``.  Equivalently ``s = kron(conj(F).T, I_M) @ vec(X)`` with ``F``
  the unitary DFT matrix of size ``N`` and ``vec`` column-major.
  ``_otfs_frames`` builds this layout, for one grid and for a stream's
  frame blocks alike; nothing else does.
* the OFDM frame concatenates the rows instead: sample ``l*N + n`` holds
  the same inverse-DFT value, i.e. ``M`` independent ``N``-point
  multicarrier symbols back to back.
* the constant-envelope-pilot (CEP) OFDM component ``l`` is the OTFS
  frame with every sample not congruent to ``l`` (mod ``M``) zeroed.
  Summing the ``M`` components reproduces the OTFS frame exactly,
  sample by sample.

A ``BasebandFrame`` is a ``FrameStream`` of one row: a frame is exactly
``M*N`` samples and never carries a cyclic prefix.
All streams are generated from a counter-based Philox generator so a
given ``(seed, frame, delay, doppler)`` bin always receives the same
draw no matter how many frames are requested.  The fixed 4096-frame
chunk is only the seeding schedule (chunk ``c`` draws from one generator
keyed by ``(seed, c)``); streams are produced in frame blocks of about
``_BLOCK_SAMPLES`` samples, drawn one after another from their chunk's
generator, so generation memory depends on the block, not the frame count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "CONSTELLATIONS",
    "DelayDopplerGrid",
    "VarianceProfile",
    "BasebandFrame",
    "FrameStream",
    "dft_matrix",
    "otfs_modulate",
    "ofdm_modulate",
    "cep_ofdm_component",
    "cep_component_stream",
    "constellation_points",
    "generate_random_stream",
    "stream_chunks",
]

#: Frames per generation chunk.  Fixed: it is part of the reproducibility
#: contract (chunk c of a given seed always holds frames [c*4096, (c+1)*4096)).
_CHUNK_FRAMES = 4096

#: Samples per frame block at the given oversampling; a block holds whole frames,
#: at least one, and never crosses a chunk boundary.  The estimate sizes its
#: symbol-rate blocks with ``min(L, 4)``, and builds the next block on a second
#: thread while it folds this one, so two blocks are alive.  2**17 keeps that
#: below one thread with 2**18-sample blocks: the ``sinc-estimate`` benchmark
#: peaks at 42.8-43.0 MB RSS, against 46.7 MB (46.9 MB at 2**18 on two threads).
_BLOCK_SAMPLES = 2**17

#: Built-in constellations, selectable by name in a scenario config.
CONSTELLATIONS = ("qpsk", "qam16")


def _power_of_two_sized(points: np.ndarray) -> np.ndarray:
    """``points``, refused unless their number is a power of two: a symbol's index is the top bits of a raw draw."""
    if points.size & (points.size - 1):
        raise ValueError(f"a constellation must hold a power-of-two number of points, got {points.size}")
    return points


_QPSK = _power_of_two_sized(np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0))
_QAM16_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0])
_QAM16 = _power_of_two_sized((_QAM16_LEVELS[:, None] + 1j * _QAM16_LEVELS[None, :]).ravel() / np.sqrt(10.0))


def dft_matrix(size: int) -> np.ndarray:
    """Unitary DFT matrix with entry (a, b) = exp(-2j*pi*a*b/size)/sqrt(size)."""
    if size < 1:
        raise ValueError(f"DFT size must be >= 1, got {size}")
    a = np.arange(size)
    return np.exp(-2j * np.pi * np.outer(a, a) / size) / np.sqrt(size)


@dataclass(frozen=True)
class DelayDopplerGrid:
    """Complex symbol grid of shape (num_delay, num_doppler)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError(
                f"grid entries must be a 2-D array with both dims >= 1, got shape {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def num_delay(self) -> int:
        return self.entries.shape[0]

    @property
    def num_doppler(self) -> int:
        return self.entries.shape[1]

    def vec(self) -> np.ndarray:
        """Column-major vectorization (column k contributes entries k*M .. k*M+M-1)."""
        return self.entries.ravel(order="F")


@dataclass(frozen=True)
class VarianceProfile:
    """Per-bin symbol variances sigma2[l, k] >= 0 on a delay-Doppler grid."""

    sigma2: np.ndarray

    def __post_init__(self) -> None:
        sigma2 = np.asarray(self.sigma2, dtype=np.float64)
        if sigma2.ndim != 2 or sigma2.shape[0] < 1 or sigma2.shape[1] < 1:
            raise ValueError(
                f"variance profile must be a 2-D array with both dims >= 1, got shape {sigma2.shape}"
            )
        if not np.all(np.isfinite(sigma2)) or np.any(sigma2 < 0):
            raise ValueError("variances must be finite and non-negative")
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def num_delay(self) -> int:
        return self.sigma2.shape[0]

    @property
    def num_doppler(self) -> int:
        return self.sigma2.shape[1]

    def per_subcarrier_power(self) -> np.ndarray:
        """Mean variance of each Doppler/subcarrier column, averaged over delay bins."""
        return self.sigma2.mean(axis=0)

    @classmethod
    def uniform(cls, num_delay: int, num_doppler: int, power: float = 1.0) -> "VarianceProfile":
        return cls(np.full((num_delay, num_doppler), float(power)))


@dataclass(frozen=True)
class FrameStream:
    """Ordered frames stacked as a (num_frames, num_delay*num_doppler) array."""

    frames: np.ndarray
    num_delay: int
    num_doppler: int
    sample_interval: float
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2:
            raise ValueError("frames must be a 2-D array (num_frames, samples_per_frame)")
        if self.num_delay < 1 or self.num_doppler < 1:
            raise ValueError("frame dimensions must be >= 1")
        if frames.shape[1] != self.num_delay * self.num_doppler:
            raise ValueError(
                f"each frame must hold num_delay*num_doppler = "
                f"{self.num_delay * self.num_doppler} samples, got {frames.shape[1]}"
            )
        if not (self.sample_interval > 0):
            raise ValueError("sample_interval must be positive")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def samples_per_frame(self) -> int:
        return self.frames.shape[1]

    def frame(self, index: int) -> "BasebandFrame":
        """Frame ``index`` as a one-row stream viewing this stream's samples."""
        row = self.frames[index][None]  # a view, negative ``index`` included
        return BasebandFrame(row, self.num_delay, self.num_doppler, self.sample_interval, self.seed)

    def concatenated(self) -> np.ndarray:
        """All frames back to back as one 1-D sample array."""
        return self.frames.reshape(-1)


@dataclass(frozen=True)
class BasebandFrame(FrameStream):
    """One modulated frame: a stream of exactly one row of num_delay*num_doppler samples."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_frames != 1:
            raise ValueError(f"a frame holds exactly one row, got {self.num_frames}")

    @property
    def samples(self) -> np.ndarray:
        return self.frames[0]

    @property
    def num_samples(self) -> int:
        return self.samples_per_frame


def _otfs_frames(grids: np.ndarray) -> np.ndarray:
    """``(F, M, N)`` grids as ``(F, M*N)`` OTFS frames: sample ``n*M + l`` is row l's inverse DFT at n."""
    frames = np.empty((grids.shape[0], grids.shape[2], grids.shape[1]), dtype=np.complex128)
    np.fft.ifft(grids, axis=-1, norm="ortho", out=frames.transpose(0, 2, 1))  # written in (F, N, M) layout
    return frames.reshape(len(grids), -1)


@lru_cache(maxsize=4)
def _bin_phases(num_delay: int, num_doppler: int) -> np.ndarray:
    """``sqrt(N) * exp(-2j*pi*l*k/(M*N))`` at ``[k, l]``: ``_frame_spectra``'s factor for unit variances.

    Conjugated and over ``sqrt(N)``, it is the factor of the inverse map, by
    which ``presets._precoded_blocks`` makes grids of their spectra.
    """
    k, l = np.arange(num_doppler)[:, None], np.arange(num_delay)
    phases = np.sqrt(num_doppler) * np.exp(-2j * np.pi * (k * l) / (num_delay * num_doppler))
    phases.flags.writeable = False
    return phases


def _frame_spectra(
    grids: np.ndarray, sigma: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The M*N-point DFT of each ``(F, M, N)`` grid's OTFS frame, from the symbols: ``(F, N, M)`` rows.

    Row ``[f, k]`` holds bins ``m*N + k``, m = 0 .. M-1.  Bin ``m*N + k`` is
    ``sqrt(N) * sum_l X[l, k] * exp(-2j*pi*l*(m*N + k)/(M*N))``: column k
    times the per-bin factor ``sqrt(N) * sigma[l, k] * exp(-2j*pi*l*k/(M*N))``
    (sigma None for 1), then an M-point DFT over l, the last stage of a
    Cooley-Tukey split of the frame's DFT.  It is
    ``sqrt(M*N) * subcarrier_transform(k) @ X[:, k]``.  Grids whose memory is
    in (frame, k, l) order (``_chunked_symbols(spectral=True)``, precoded
    grids) are read contiguously, and ``out`` may be their own memory.
    """
    phases = _bin_phases(*grids.shape[1:])
    spectra = np.multiply(grids.transpose(0, 2, 1), phases if sigma is None else phases * sigma.T, out=out)
    return np.fft.fft(spectra, axis=-1, out=spectra)


def otfs_modulate(grid: DelayDopplerGrid, sample_interval: float = 1.0) -> BasebandFrame:
    """Modulate a delay-Doppler grid into one OTFS frame.

    Sample ``n*M + l`` equals ``(1/sqrt(N)) * sum_k X[l, k] * exp(2j*pi*k*n/N)``:
    the delay bins are interleaved at stride ``M``, so each output sample
    advances the delay index first and the time index every ``M`` samples.
    No cyclic prefix is inserted.
    """
    return BasebandFrame(_otfs_frames(grid.entries[None]), grid.num_delay, grid.num_doppler, sample_interval)


def ofdm_modulate(grid: DelayDopplerGrid, sample_interval: float = 1.0) -> BasebandFrame:
    """Modulate the same grid as M back-to-back N-point multicarrier symbols.

    Sample ``l*N + n`` equals the same inverse-DFT value as the OTFS frame's
    sample ``n*M + l``; only the interleaving differs.  No cyclic prefix.
    """
    rows = _otfs_frames(grid.entries[:, None])  # row l: grid row l as a one-delay-bin OTFS frame
    return BasebandFrame(rows.reshape(1, -1), grid.num_delay, grid.num_doppler, sample_interval)


def cep_ofdm_component(
    grid: DelayDopplerGrid, delay_index: int, sample_interval: float = 1.0
) -> BasebandFrame:
    """Zero-stuffed single-delay-bin component of the OTFS frame.

    Component ``l`` keeps the OTFS samples at positions ``n*M + l`` and is
    zero elsewhere, so ``sum_l cep_ofdm_component(X, l) == otfs_modulate(X)``
    holds exactly (each position has one non-zero summand).
    """
    return cep_component_stream(otfs_modulate(grid, sample_interval), delay_index)


def cep_component_stream(stream: FrameStream, delay_index: int) -> FrameStream:
    """Per-frame CEP component of an OTFS stream (samples off the comb zeroed), of the stream's type."""
    if not 0 <= delay_index < stream.num_delay:
        raise IndexError(
            f"delay_index must be in [0, {stream.num_delay}), got {delay_index}"
        )
    frames = np.zeros_like(stream.frames)
    frames[:, delay_index :: stream.num_delay] = stream.frames[:, delay_index :: stream.num_delay]
    return replace(stream, frames=frames)


def constellation_points(name: str) -> np.ndarray:
    """Unit-average-power constellation for random streams: ``qpsk`` or ``qam16``."""
    key = name.lower()
    if key == "qpsk":
        return _QPSK.copy()
    if key == "qam16":
        return _QAM16.copy()
    raise ConfigurationError(f"unknown constellation {name!r}; expected one of 'qpsk', 'qam16'")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.random.SeedSequence([int(seed), int(chunk_index)]).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunked_symbols(
    num_frames: int, seed: int, points: np.ndarray, shape: Tuple[int, ...], frame_samples: int, spectral: bool = False
) -> Iterator[np.ndarray]:
    """Per frame block, the unscaled symbols drawn for its frames, of ``(frames, *shape)``.

    A block holds ``max(1, _BLOCK_SAMPLES // frame_samples)`` frames (the
    last block of a chunk may hold fewer), with ``frame_samples`` the dense
    samples per frame.  Chunk ``c`` holds frames ``[c*4096, (c+1)*4096)``,
    drawn block after block from the one generator ``_chunk_rng(seed, c)``.
    A frame's symbols have ``shape``: each takes one raw 64-bit draw,
    consumed in C order, whose top ``log2(points.size)`` bits index
    ``points`` (a power-of-two number of them), so drawing a chunk block by
    block gives the rows of one whole-chunk draw.  The index is
    ``int(u * points.size)`` of the uniform double ``u = (raw >> 11) * 2**-53``
    that ``Generator.random`` makes of the same draw, bit for bit, so a
    draw's consumption does not depend on the constellation.  ``spectral``
    gathers ``(M, N)`` grids into ``(frames, N, M)`` memory, the order
    ``_frame_spectra`` reads, and yields its ``(frames, M, N)`` view.
    """
    block_frames = max(1, _BLOCK_SAMPLES // frame_samples)
    shift = np.uint64(65 - points.size.bit_length())  # 64 - log2(size)
    for chunk_index in range(-(-num_frames // _CHUNK_FRAMES)):
        rng = _chunk_rng(seed, chunk_index)
        count = min(_CHUNK_FRAMES, num_frames - chunk_index * _CHUNK_FRAMES)
        for lo in range(0, count, block_frames):
            indices = rng.bit_generator.random_raw((min(block_frames, count - lo), *shape))
            np.right_shift(indices, shift, out=indices)
            indices = indices.view(np.intp)
            if spectral:
                yield np.take(points, indices.transpose(0, 2, 1)).transpose(0, 2, 1)
            else:
                yield np.take(points, indices)
            del indices  # not alive beside the next block's


def _chunked_frames(
    num_frames: int,
    seed: int,
    points: np.ndarray,
    shape: Tuple[int, ...],
    frame_samples: int,
    sigma: Optional[np.ndarray] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Per frame block of ``_chunked_symbols``: the ``(frames, M, N)`` grids drawn, and their OTFS frames.

    The symbols are scaled in place by ``sigma`` (of ``shape``; None for 1).
    """
    # complex * float runs numpy's complex loop on sigma + 0j: the same bits, without a cast per block.
    scale = None if sigma is None else np.asarray(sigma, dtype=np.complex128)
    for symbols in _chunked_symbols(num_frames, seed, points, shape, frame_samples):
        if scale is not None:
            np.multiply(symbols, scale, out=symbols)
        yield symbols, _otfs_frames(symbols)
        del symbols  # not alive beside the next block's


def _checked_stream(num_frames: int, seed: Optional[int]) -> None:
    if num_frames < 1:
        raise ConfigurationError(f"num_frames must be >= 1, got {num_frames}")
    if seed is None:
        raise ConfigurationError("a seed is required; wall-clock seeding is not supported")


def stream_chunks(
    profile: VarianceProfile,
    num_frames: int,
    seed: int,
    sample_interval: float = 1.0,
    constellation: str = "qpsk",
    oversampling: int = 1,
) -> Iterator[FrameStream]:
    """Yield the OTFS stream in frame blocks of about ``_BLOCK_SAMPLES`` dense samples.

    A block holds ``max(1, _BLOCK_SAMPLES // (M*N*oversampling))`` frames,
    except the last block of a 4096-frame generation chunk, which may hold
    fewer; no block crosses a chunk boundary.  The estimate passes
    ``min(L, 4)`` for a DAC's factor L.  Concatenating the blocks is
    bit-identical to ``generate_random_stream`` with the same arguments;
    memory is bounded by one block, not by ``num_frames``.
    """
    _checked_stream(num_frames, seed)
    frame_samples = profile.num_delay * profile.num_doppler * oversampling
    sigma = np.sqrt(profile.sigma2)
    # One draw per (frame, delay, doppler) bin; sigma == 0 bins still consume a draw but emit exact 0.
    for symbols, frames in _chunked_frames(
        num_frames, seed, constellation_points(constellation), sigma.shape, frame_samples, sigma
    ):
        del symbols  # a block keeps its frames only
        yield FrameStream(
            frames=frames,
            num_delay=profile.num_delay,
            num_doppler=profile.num_doppler,
            sample_interval=sample_interval,
            seed=seed,
        )


def _stream_symbols(
    profile: VarianceProfile, num_frames: int, seed: int, constellation: str = "qpsk", oversampling: int = 1
) -> Iterator[np.ndarray]:
    """The symbols of ``stream_chunks``'s blocks with these arguments, unscaled, in ``_frame_spectra``'s read order.

    Block b's symbols times ``sqrt(profile.sigma2)``, modulated, are block b
    of ``stream_chunks``: the same blocks and draws, with no frame built.
    """
    _checked_stream(num_frames, seed)
    frame_samples = profile.num_delay * profile.num_doppler * oversampling
    points = constellation_points(constellation)
    return _chunked_symbols(num_frames, seed, points, profile.sigma2.shape, frame_samples, spectral=True)


def generate_random_stream(
    profile: VarianceProfile,
    num_frames: int,
    seed: int,
    sample_interval: float = 1.0,
    constellation: str = "qpsk",
) -> FrameStream:
    """Generate an OTFS frame stream with i.i.d. per-bin symbols.

    Bin ``(frame, l, k)`` draws one point from the chosen unit-power
    constellation scaled by ``sqrt(sigma2[l, k])``; zero-variance bins are
    exactly zero.  Draws are indexed by ``(frame, l, k)`` within fixed
    4096-frame Philox chunks, so enlarging ``num_frames`` never changes
    earlier frames.
    """
    blocks = list(stream_chunks(profile, num_frames, seed, sample_interval, constellation))
    return replace(blocks[0], frames=np.concatenate([block.frames for block in blocks]))
