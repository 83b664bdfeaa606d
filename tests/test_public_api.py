"""The public names, pinned: adding or dropping one shows up as a change to this file.

Each module's ``__all__`` (``None`` for a module without one) and the
package's ``__all__`` are compared, sorted, with the tuples below.
"""

import importlib
import pkgutil

import pytest

import otfspectrum

PACKAGE_ALL = (
    "BasebandFrame", "ConfigurationError", "DelayDopplerGrid", "FILTER_KINDS", "FrameStream",
    "InterpolationFilter", "NMSE_FLOOR_DB", "OversampledSignal", "PATTERN_NAMES", "PRESET_NAMES",
    "PeriodogramAverager", "PrecoderSet", "PsdCurve", "ScenarioConfig", "SpectrumMask",
    "SystematicInfeasibleError", "VarianceProfile", "__version__", "build_precoders", "builtin_pattern",
    "cep_component_stream", "cep_ofdm_component", "cep_ofdm_psd", "column_support_profile", "compare_curves",
    "constellation_points", "cosine_similarity", "cyclo_autocorr", "decompose_mask", "dft_matrix",
    "dirichlet_sq", "discrete_spectrum", "empirical_mean", "estimated_psd", "filter_response_sq",
    "generate_random_stream", "mask_from_pass_bands", "nmse_db", "nslp_precoder", "ofdm_modulate", "ofdm_psd",
    "otfs_modulate", "otfs_psd", "periodogram", "precode_grid", "precoded_stream", "preset_config",
    "reconstruct", "run_presets", "run_scenario", "stream_chunks", "subcarrier_transform", "systematic_precoder",
)

MODULE_ALL = {
    "__main__": None,
    "_numfmt": None,
    "cli": None,
    "config": ("CONFIG_KEYS", "ScenarioConfig"),
    "dac": ("FILTER_KINDS", "InterpolationFilter", "OversampledSignal", "filter_response_sq", "reconstruct"),
    "errors": None,
    "estimate": (
        "CycloAutocorrResult", "PeriodogramAverager", "compare_curves", "cosine_similarity", "cyclo_autocorr",
        "empirical_mean", "nmse_db", "periodogram",
    ),
    "io": (
        "config_hash", "load_mask", "read_frame_stream", "read_metrics", "read_psd_curve", "write_frame_stream",
        "write_mask", "write_metrics", "write_precoder_set", "write_psd_curve",
    ),
    "patterns": ("PATTERN_NAMES", "builtin_pattern", "column_support_profile"),
    "precoding": (
        "PRECODER_FORMS", "PrecoderSet", "SpectrumMask", "build_precoders", "decompose_mask", "discrete_spectrum",
        "mask_from_pass_bands", "nslp_precoder", "precode_grid", "subcarrier_transform", "systematic_precoder",
    ),
    "presets": (
        "PRESET_NAMES", "ScenarioConfig", "estimated_psd", "precoded_stream", "preset_config", "run_presets",
        "run_scenario",
    ),
    "psd": ("PsdCurve", "cep_ofdm_psd", "dirichlet_sq", "ofdm_psd", "otfs_psd"),
    "waveform": (
        "BasebandFrame", "CONSTELLATIONS", "DelayDopplerGrid", "FrameStream", "VarianceProfile",
        "cep_component_stream", "cep_ofdm_component", "constellation_points", "dft_matrix",
        "generate_random_stream", "ofdm_modulate", "otfs_modulate", "stream_chunks",
    ),
}


def test_the_package_names_are_pinned():
    assert tuple(sorted(otfspectrum.__all__)) == PACKAGE_ALL
    assert all(hasattr(otfspectrum, name) for name in otfspectrum.__all__)


def test_every_module_is_pinned():
    assert sorted(info.name for info in pkgutil.iter_modules(otfspectrum.__path__)) == sorted(MODULE_ALL)


@pytest.mark.parametrize("name", sorted(set(MODULE_ALL) - {"__main__"}))
def test_module_names_are_pinned(name):
    module = importlib.import_module(f"otfspectrum.{name}")
    public = getattr(module, "__all__", None)
    assert (None if public is None else tuple(sorted(public))) == MODULE_ALL[name]
    assert all(hasattr(module, attr) for attr in public or ())
