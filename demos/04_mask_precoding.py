"""Force spectral nulls with per-subcarrier linear precoding.

A spectrum mask names FFT bins that must carry zero energy.  Each OTFS
subcarrier owns a known subset of those bins, so a per-subcarrier
precoder whose columns span the null space of the masked rows keeps the
transmit spectrum clean for every payload, not just on average.
"""
import numpy as np

from otfspectrum import (
    build_precoders,
    decompose_mask,
    discrete_spectrum,
    mask_from_pass_bands,
)
from otfspectrum.presets import precoded_stream

# --- a small hand-made mask -------------------------------------------------
M, N = 3, 8
mask = decompose_mask([2, 9, 10, 17], M, N)
print(f"grid {M}x{N} ({mask.num_bins} bins), null bins {mask.null_bins.tolist()}")
for k in range(N):
    nulled = mask.nulled_rows(k)
    if nulled.size:
        print(f"  subcarrier {k}: nulls rows {nulled.tolist()}, keeps {mask.kept_rows(k).size}")
print(f"payload dims per subcarrier: {mask.payload_sizes().tolist()} "
      f"(total {int(mask.payload_sizes().sum())} of {mask.num_bins})")

for form in ("null_space", "systematic"):
    precoders = build_precoders(mask, form=form)
    stream, norms = precoded_stream(precoders, num_frames=64, seed=99)
    spectra = np.abs(discrete_spectrum(stream))  # one spectrum per frame
    worst = spectra[:, mask.null_bins].max() / norms.max()
    print(f"{form:>11}: worst relative leakage into a null bin over 64 frames = {worst:.2e}")

# --- an LTE-sized mask ------------------------------------------------------
RATE = 30.72e6
M, N = 16, 128
mask = mask_from_pass_bands([(-9e6, 9e6)], M, N, 1.0 / RATE)
spacing = RATE / (M * N)  # bin spacing of the M*N-point discrete spectrum
kept = mask.num_bins - mask.null_bins.size
print()
print(f"LTE-sized grid {M}x{N} at {RATE / 1e6:.2f} MHz, pass band +/-9 MHz:")
print(f"  {kept} of {mask.num_bins} bins pass ({mask.null_bins.size} nulled)")
print(f"  subcarrier spacing {spacing / 1e3:.0f} kHz -> occupied "
      f"{(kept + 1) * spacing / 1e6:.3f} MHz counting both edges")
precoders = build_precoders(mask, form="systematic")
print(f"  systematic form feasible, payload {int(precoders.payload_sizes.sum())} symbols/frame")
