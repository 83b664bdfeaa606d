"""End-to-end acceptance gates for the toolkit.

Each test checks one headline property at a stated tolerance and prints a
single PASS/FAIL line with the measured quantity, bypassing pytest's
capture so the summary is visible in a normal run.  Every Monte-Carlo
gate uses a fixed seed, so the printed numbers are reproducible.
"""

import json
import time

import numpy as np

from otfspectrum.dac import InterpolationFilter, reconstruct
from otfspectrum.estimate import (
    compare_curves,
    cyclo_autocorr,
    empirical_mean,
    periodogram,
)
from otfspectrum.patterns import column_support_profile
from otfspectrum.precoding import build_precoders, mask_from_pass_bands
from otfspectrum.presets import (
    _SUPPRESSION_CEILING_DB,
    _cep_split,
    estimated_psd,
    precoded_stream,
    preset_config,
    run_scenario,
)
from otfspectrum.psd import cep_ofdm_psd, otfs_psd
from otfspectrum.waveform import (
    DelayDopplerGrid,
    VarianceProfile,
    cep_component_stream,
    cep_ofdm_component,
    generate_random_stream,
    otfs_modulate,
)

SEED = 20260822

# The stock demo geometry used throughout: 4x8 grid, unit sample interval,
# five active Doppler columns split across the band edges.
DEMO_COLUMNS = [0, 1, 2, 6, 7]


def _demo_profile() -> VarianceProfile:
    return column_support_profile(DEMO_COLUMNS, 4, 8)


def _gate(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[gate {number}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"gate {number}: {detail}"


def _double_sum_oracle(entries: np.ndarray) -> np.ndarray:
    """Brute-force modulator: per output sample, sum over every (l, k) bin.

    Delay bin l only contributes to output positions congruent to l mod M
    (the comb indicator); the Doppler sum is a plain complex-exponential sum.
    """
    num_delay, num_doppler = entries.shape
    out = np.zeros(num_delay * num_doppler, dtype=np.complex128)
    for pos in range(out.size):
        time_idx, delay = divmod(pos, num_delay)
        acc = 0.0 + 0.0j
        for l in range(num_delay):
            if l != delay:  # comb indicator annihilates every other term
                continue
            for k in range(num_doppler):
                acc += entries[l, k] * np.exp(2j * np.pi * k * time_idx / num_doppler)
        out[pos] = acc
    return out / np.sqrt(num_doppler)


def test_gate1_modulator_matches_double_sum(capsys):
    rng = np.random.default_rng(SEED)
    sizes = np.array([1, 2, 4, 8])
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m, n = rng.choice(sizes), rng.choice(sizes)
        entries = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        grid = DelayDopplerGrid(entries)
        fast = otfs_modulate(grid).samples
        slow = _double_sum_oracle(entries)
        worst = max(worst, float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _gate(
        capsys, 1, ok,
        f"closed-form modulator vs double-sum oracle on 200 random grids: "
        f"max rel err {worst:.2e} (tol 1e-10), {elapsed:.1f} s (budget 5 s)",
    )


def test_gate2_component_split_is_exact(capsys):
    rng = np.random.default_rng(SEED + 1)
    # time domain: components of a random frame sum back bit-for-bit
    entries = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    grid = DelayDopplerGrid(entries)
    whole = otfs_modulate(grid).samples
    summed = sum(cep_ofdm_component(grid, l).samples for l in range(4))
    time_err = float(np.max(np.abs(summed - whole)))

    stream = generate_random_stream(_demo_profile(), 16, SEED, 1.0)
    stream_sum = sum(cep_component_stream(stream, l).frames for l in range(4))
    stream_err = float(np.max(np.abs(stream_sum - stream.frames)))

    # analytic: per-component PSDs sum to the whole-waveform PSD
    profile = _demo_profile()
    filt = InterpolationFilter.dirac(1.0)
    freqs = np.linspace(-0.5, 0.5, 4096, endpoint=False)
    whole_psd = otfs_psd(profile, 1.0, filt, freqs)
    psd_sum = sum(cep_ofdm_psd(profile, l, 1.0, filt, freqs).values for l in range(4))
    psd_err = float(np.max(np.abs(psd_sum - whole_psd.values)) / np.max(whole_psd.values))

    ok = time_err <= 1e-12 and stream_err <= 1e-12 and psd_err <= 1e-10
    _gate(
        capsys, 2, ok,
        f"component split: time-domain err {time_err:.1e} / {stream_err:.1e} "
        f"(tol 1e-12), analytic PSD sum rel err {psd_err:.1e} (tol 1e-10)",
    )


def test_gate3_sampled_psd_is_periodic(capsys):
    profile = _demo_profile()
    filt = InterpolationFilter.dirac(1.0)
    period = 1.0 / 4  # 1/(M*T) for M=4, T=1
    cell = np.linspace(-0.5, -0.5 + period, 1024, endpoint=False)
    base = otfs_psd(profile, 1.0, filt, cell).values
    scale = np.max(base)
    worst_shift = 0.0
    worst_cell = 0.0
    for j in range(1, 4):
        shifted = otfs_psd(profile, 1.0, filt, cell + j * period).values
        worst_cell = max(worst_cell, float(np.max(np.abs(shifted - base)) / scale))
    plus_one = otfs_psd(profile, 1.0, filt, cell + period).values
    worst_shift = float(np.max(np.abs(plus_one - base)) / scale)
    ok = worst_shift <= 1e-10 and worst_cell <= 1e-10
    _gate(
        capsys, 3, ok,
        f"sampled-signal PSD repeats every 1/(4T): shift rel err {worst_shift:.1e}, "
        f"4 Nyquist-zone cells agree to {worst_cell:.1e} (tol 1e-10)",
    )


def test_gate4_psd_match_table(capsys):
    """Estimated-vs-analytic PSD agreement for all three DAC filters.

    The reference pairs are the expected values for this geometry; the run
    must stay within +/-6 dB and -0.005 cosine of them, and inside the hard
    floors, since periodogram settings (segments, grid) are a free choice.
    """
    profile = _demo_profile()
    rows = [
        # label, filter, oversampling, frames, hard gates, reference values
        ("dirac_delta", InterpolationFilter.dirac(1.0), 1, 100_000,
         -40.0, 0.999, -48.99, 0.99999),
        ("rect", InterpolationFilter.rect(1.0), 16, 100_000,
         -40.0, 0.999, -47.61, 0.99999),
        ("truncated_sinc", InterpolationFilter.truncated_sinc(1.0, 50), 100, 1_000,
         -12.0, 0.98, -18.07, 0.99222),
    ]
    started = time.perf_counter()
    ok = True
    parts = []
    for label, filt, lift, frames, nmse_gate, cos_gate, nmse_ref, cos_ref in rows:
        est = estimated_psd(profile, frames, SEED, 1.0, filt, lift, 1)
        ref = otfs_psd(profile, 1.0, filt, est.freqs)
        metrics = compare_curves(est, ref)
        nmse, cos = metrics["nmse_db"], metrics["cosine_similarity"]
        row_ok = (
            nmse <= nmse_gate
            and cos >= cos_gate
            and abs(nmse - nmse_ref) <= 6.0
            and cos >= cos_ref - 0.005
        )
        ok = ok and row_ok
        parts.append(f"{label} {nmse:.2f} dB/{cos:.6f} (ref {nmse_ref}/{cos_ref})")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120.0
    _gate(capsys, 4, ok, "; ".join(parts) + f"; {elapsed:.1f} s (budget 120 s)")


def test_gate5_component_sum_converges_to_whole(capsys):
    profile = _demo_profile()
    filt = InterpolationFilter.truncated_sinc(1.0, 50)
    # One pass to 100 000 frames, read at each count.
    splits = _cep_split(profile, (100, 1_000, 10_000, 100_000), SEED, 1.0, filt, 2, 1, "qpsk")
    nmse = [split[3]["nmse_db"] for split in splits]
    cosine = [split[3]["cosine_similarity"] for split in splits]
    steps_down = all(b <= a + 1.0 for a, b in zip(nmse, nmse[1:]))
    cos_up = all(b >= a - 1e-9 for a, b in zip(cosine, cosine[1:]))
    ok = steps_down and cos_up
    trend = " -> ".join(f"{v:.1f}" for v in nmse)
    _gate(
        capsys, 5, ok,
        f"summed-component vs whole-stream PSD over 1e2..1e5 frames: "
        f"NMSE {trend} dB (monotone within +1 dB), cosine non-decreasing={cos_up}",
    )


def _lte_mask():
    return mask_from_pass_bands([(-9e6, 9e6)], 16, 128, 1.0 / 30.72e6)


def test_gate6_precoded_stream_nulls_masked_bins(capsys):
    mask = _lte_mask()
    precoders = build_precoders(mask)
    stream, payload_norms = precoded_stream(precoders, 100, SEED, 1.0 / 30.72e6)
    spectra = np.fft.fft(stream.frames, axis=1, norm="ortho")
    null_mag = np.abs(spectra[:, mask.null_bins])
    worst = float(np.max(null_mag / payload_norms[:, None]))

    curve = periodogram(stream)
    num_bins = mask.num_bins
    natural = np.mod(np.arange(num_bins) - num_bins // 2, num_bins)
    nulled = np.isin(natural, mask.null_bins)
    in_mean = float(curve.values[~nulled].mean())
    out_max = float(curve.values[nulled].max())
    suppression_db = np.inf if out_max == 0 else 10.0 * np.log10(in_mean / out_max)

    ok = worst <= 1e-9 and suppression_db >= 40.0
    # beyond the ceiling, out_max is rounding residue: report the capped figure, as the scenario does
    reported_db = min(suppression_db, _SUPPRESSION_CEILING_DB)
    _gate(
        capsys, 6, ok,
        f"masked-bin leakage {worst:.1e} of payload norm (tol 1e-9) over 100 frames; "
        f"out-of-band suppression {reported_db:.0f} dB (gate 40 dB)",
    )


def test_gate7_precoder_power_and_subspace(capsys):
    mask = _lte_mask()
    null_space = build_precoders(mask, "null_space")
    systematic = build_precoders(mask, "systematic")
    worst_trace = 0.0
    worst_proj = 0.0
    for k in range(mask.num_doppler):
        dim = null_space.payload_sizes[k]
        for precoders in (null_space, systematic):
            p = precoders.matrices[k]
            worst_trace = max(
                worst_trace, abs(float(np.trace(p.conj().T @ p).real) - dim)
            )
        a = null_space.matrices[k]
        b = systematic.matrices[k]
        proj_a = a @ np.linalg.pinv(a)
        proj_b = b @ np.linalg.pinv(b)
        worst_proj = max(worst_proj, float(np.max(np.abs(proj_a - proj_b))))
    ok = worst_trace <= 1e-10 and worst_proj <= 1e-8
    _gate(
        capsys, 7, ok,
        f"power constraint |trace - payload dim| {worst_trace:.1e} (tol 1e-10) "
        f"both forms; projector distance {worst_proj:.1e} (tol 1e-8)",
    )


def test_gate8_frame_periodic_second_order_stats(capsys):
    stream = generate_random_stream(VarianceProfile.uniform(2, 4), 10_000, SEED)
    probes = [(a, b) for a in range(4) for b in range(8)][:20]
    result = cyclo_autocorr(stream, probes)
    deviation = result.max_deviation_in_se()

    means, errors = empirical_mean(stream, range(8))
    mean_dev = float(np.max(np.abs(means) / errors))

    ok = deviation <= 5.0 and mean_dev <= 5.0
    _gate(
        capsys, 8, ok,
        f"lag products shift-invariant by one frame: max dev {deviation:.2f} SE "
        f"on 20 probes (gate 5); per-position mean within {mean_dev:.2f} SE",
    )


def test_gate9_lte_occupancy_report_is_exact(capsys, tmp_path):
    run_scenario(preset_config("lte-ofdm"), tmp_path)
    report = json.loads((tmp_path / "lte_ofdm_bandwidth.json").read_text())
    ok = (
        report["occupied_subcarriers"] == 1201
        and report["subcarrier_spacing_hz"] == 15000.0
        and report["occupied_bandwidth_hz"] == 18015000.0
    )
    _gate(
        capsys, 9, ok,
        f"occupied bandwidth {report['occupied_bandwidth_hz']:.1f} Hz == "
        f"1201 x 15000.0 Hz exactly",
    )
