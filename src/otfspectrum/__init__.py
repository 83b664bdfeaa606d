"""Spectrum engineering for OTFS, OFDM, and CEP-OFDM waveforms.

The package covers the full loop from random frame generation through
DAC interpolation models to analytic and estimated power spectra, plus
linear precoding that confines the transmit spectrum to a mask:

- :mod:`otfspectrum.waveform` — delay-Doppler grids, OTFS/OFDM/CEP-OFDM
  modulation, reproducible random frame streams,
- :mod:`otfspectrum.dac` — interpolation filter models and oversampled
  reconstruction,
- :mod:`otfspectrum.psd` — closed-form power spectral densities,
- :mod:`otfspectrum.estimate` — averaged periodograms, curve metrics,
  cyclostationarity probes,
- :mod:`otfspectrum.precoding` — discrete spectrum algebra, masks, and
  null-space / systematic precoders,
- :mod:`otfspectrum.patterns` — named variance-profile layouts,
- :mod:`otfspectrum.config` — the config key schema, its validation, and
  the routing of given keys to the presets or subcommand that read them,
- :mod:`otfspectrum.presets` — end-to-end scenario runners behind the
  ``otfspectrum`` command line.
"""

from .config import ScenarioConfig
from .dac import FILTER_KINDS, InterpolationFilter, OversampledSignal, filter_response_sq, reconstruct
from .errors import ConfigurationError, SystematicInfeasibleError
from .estimate import (
    NMSE_FLOOR_DB,
    PeriodogramAverager,
    compare_curves,
    cosine_similarity,
    cyclo_autocorr,
    empirical_mean,
    nmse_db,
    periodogram,
)
from .patterns import PATTERN_NAMES, builtin_pattern, column_support_profile
from .precoding import (
    PrecoderSet,
    SpectrumMask,
    build_precoders,
    decompose_mask,
    discrete_spectrum,
    mask_from_pass_bands,
    nslp_precoder,
    precode_grid,
    subcarrier_transform,
    systematic_precoder,
)
from .presets import PRESET_NAMES, estimated_psd, precoded_stream, preset_config, run_presets, run_scenario
from .psd import PsdCurve, cep_ofdm_psd, dirichlet_sq, ofdm_psd, otfs_psd
from .waveform import (
    BasebandFrame,
    DelayDopplerGrid,
    FrameStream,
    VarianceProfile,
    cep_component_stream,
    cep_ofdm_component,
    constellation_points,
    dft_matrix,
    generate_random_stream,
    ofdm_modulate,
    otfs_modulate,
    stream_chunks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConfigurationError",
    "SystematicInfeasibleError",
    # waveforms
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
    # DAC models
    "FILTER_KINDS",
    "InterpolationFilter",
    "OversampledSignal",
    "filter_response_sq",
    "reconstruct",
    # analytic PSDs
    "PsdCurve",
    "dirichlet_sq",
    "otfs_psd",
    "ofdm_psd",
    "cep_ofdm_psd",
    # estimation and metrics
    "periodogram",
    "PeriodogramAverager",
    "nmse_db",
    "cosine_similarity",
    "compare_curves",
    "cyclo_autocorr",
    "empirical_mean",
    "NMSE_FLOOR_DB",
    # precoding
    "discrete_spectrum",
    "subcarrier_transform",
    "SpectrumMask",
    "decompose_mask",
    "mask_from_pass_bands",
    "nslp_precoder",
    "systematic_precoder",
    "PrecoderSet",
    "build_precoders",
    "precode_grid",
    # layouts and scenarios
    "PATTERN_NAMES",
    "builtin_pattern",
    "column_support_profile",
    "PRESET_NAMES",
    "ScenarioConfig",
    "preset_config",
    "run_scenario",
    "run_presets",
    "estimated_psd",
    "precoded_stream",
]
