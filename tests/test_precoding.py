from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from otfspectrum import presets, waveform
from otfspectrum.io import load_mask, read_metrics, read_psd_curve

from otfspectrum.errors import ConfigurationError, SystematicInfeasibleError
from otfspectrum.precoding import (
    PrecoderSet,
    _precode_rows,
    build_precoders,
    decompose_mask,
    discrete_spectrum,
    mask_from_pass_bands,
    nslp_precoder,
    precode_grid,
    subcarrier_transform,
    systematic_precoder,
)
from otfspectrum.presets import precoded_stream, preset_config
from otfspectrum.waveform import (
    _CHUNK_FRAMES,
    CONSTELLATIONS,
    DelayDopplerGrid,
    VarianceProfile,
    dft_matrix,
    generate_random_stream,
    otfs_modulate,
)

LTE_RATE = 30.72e6


def _random_grid(rng, m, n):
    return DelayDopplerGrid(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))


# ---------------------------------------------------------------------------
# discrete spectrum structure
# ---------------------------------------------------------------------------


def test_discrete_spectrum_closed_form():
    """Spectrum bin m*N + k depends on column k only, through a double phase."""
    rng = np.random.default_rng(0)
    m_dim, n_dim = 3, 5
    grid = _random_grid(rng, m_dim, n_dim)
    spec = discrete_spectrum(otfs_modulate(grid))
    total = m_dim * n_dim
    for m in range(m_dim):
        for k in range(n_dim):
            acc = 0.0 + 0j
            for l in range(m_dim):
                acc += (
                    grid.entries[l, k]
                    * np.exp(-2j * np.pi * l * k / total)
                    * np.exp(-2j * np.pi * l * m / m_dim)
                )
            assert spec[m * n_dim + k] == pytest.approx(acc / np.sqrt(m_dim), abs=1e-12)


def test_spectrum_stride_equals_subcarrier_transform():
    rng = np.random.default_rng(1)
    m_dim, n_dim = 4, 6
    grid = _random_grid(rng, m_dim, n_dim)
    spec = discrete_spectrum(otfs_modulate(grid))
    for k in range(n_dim):
        transform = subcarrier_transform(k, m_dim, n_dim)
        assert_allclose(spec[k::n_dim], transform @ grid.entries[:, k], atol=1e-12)


@given(
    m_dim=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16]),
    n_dim=st.sampled_from([1, 2, 3, 5, 8, 13, 32]),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_subcarrier_transform_maps_its_column_to_its_spectrum_bins(m_dim, n_dim, seed):
    """The paper's symbol-to-spectrum map: bin ``m*N + k`` is row m of ``subcarrier_transform(k) @ X[:, k]``."""
    grid = _random_grid(np.random.default_rng(seed), m_dim, n_dim)
    spec = discrete_spectrum(otfs_modulate(grid))
    for k in range(n_dim):
        mapped = subcarrier_transform(k, m_dim, n_dim) @ grid.entries[:, k]
        for m in range(m_dim):
            assert spec[m * n_dim + k] == pytest.approx(mapped[m], abs=1e-12)


def test_discrete_spectrum_of_a_stream_is_one_spectrum_per_frame():
    stream = generate_random_stream(VarianceProfile.uniform(3, 4), 5, seed=2)
    spectra = discrete_spectrum(stream)
    assert spectra.shape == (5, 12)
    for i in range(5):
        assert_array_equal(spectra[i], discrete_spectrum(stream.frame(i)))
        assert_array_equal(spectra[i], discrete_spectrum(stream.frames[i]))
    assert discrete_spectrum(stream.frame(-1)).shape == (12,)  # one frame keeps its 1-D spectrum
    assert_array_equal(discrete_spectrum(stream.frames), spectra)


def test_subcarrier_transform_is_unitary():
    for k in range(6):
        t = subcarrier_transform(k, 5, 6)
        assert_allclose(t.conj().T @ t, np.eye(5), atol=1e-12)


def test_subcarrier_transform_zero_is_plain_dft():
    assert_allclose(subcarrier_transform(0, 4, 8), dft_matrix(4), atol=1e-15)


def test_subcarrier_transform_index_range():
    with pytest.raises(IndexError):
        subcarrier_transform(8, 4, 8)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_mask_decomposition_oracle():
    # bins {3, 11, 19, 27} on a 4x8 grid all hit subcarrier 3, rows 0..3
    mask = decompose_mask([3, 11, 19, 27], 4, 8)
    assert_array_equal(mask.nulled_rows(3), [0, 1, 2, 3])
    assert mask.kept_rows(3).size == 0
    for k in [0, 1, 2, 4, 5, 6, 7]:
        assert mask.nulled_rows(k).size == 0
        assert_array_equal(mask.kept_rows(k), [0, 1, 2, 3])
    assert_array_equal(mask.payload_sizes(), [4, 4, 4, 0, 4, 4, 4, 4])


def test_mask_deduplicates_and_sorts():
    mask = decompose_mask([5, 1, 5, 3], 2, 4)
    assert_array_equal(mask.null_bins, [1, 3, 5])


def test_mask_rejects_out_of_range_bins():
    with pytest.raises(ValueError):
        decompose_mask([8], 2, 4)
    with pytest.raises(ValueError):
        decompose_mask([-1], 2, 4)


def test_pass_band_mask_half_open_edges():
    # 8 bins at spacing 1/8 centered on DC: centers -0.5 .. 0.375
    mask = mask_from_pass_bands([(-0.25, 0.25)], 2, 4, 1.0)
    # pass indices -2..1 -> centered grid keeps 4 bins, nulls the other 4
    assert mask.null_bins.size == 4
    natural_null = set(int(b) for b in mask.null_bins)
    assert natural_null == {2, 3, 4, 5}


def test_pass_band_edges_far_off_the_grid_are_clipped():
    # the edges divided by the 1e-301 Hz bin spacing overflow to +-inf
    assert mask_from_pass_bands([(-1e300, 1e300)], 2, 4, 1e300).null_bins.size == 0
    assert_array_equal(mask_from_pass_bands([(1e300, 2e300)], 2, 4, 1e300).null_bins, np.arange(8))


def test_pass_band_mask_rejects_empty_band():
    with pytest.raises(ConfigurationError):
        mask_from_pass_bands([(1.0, 1.0)], 2, 4, 1.0)


def test_lte_mask_subcarrier_zero_layout():
    """The +/-9 MHz LTE mask on the 16x128 grid, subcarrier 0.

    Bin m*128 sits at centered frequency 128*m*15 kHz for m <= 7 and
    (128*m - 2048)*15 kHz above, so rows 0-4 and 12-15 land inside
    [-9 MHz, 9 MHz) and rows 5-11 are the nulled band edges.
    """
    mask = mask_from_pass_bands([(-9e6, 9e6)], 16, 128, 1.0 / LTE_RATE)
    assert mask.num_bins - mask.null_bins.size == 1200
    assert_array_equal(mask.nulled_rows(0), [5, 6, 7, 8, 9, 10, 11])
    assert mask.kept_rows(0).size == 9
    assert int(mask.payload_sizes().sum()) == 1200


# ---------------------------------------------------------------------------
# precoders
# ---------------------------------------------------------------------------


def test_nslp_precoder_two_by_two_oracle():
    # null the spectrum bin of row 1 on subcarrier 0 -> P_0 = (1/sqrt 2)[1, 1]^T
    mask = decompose_mask([2], 2, 2)
    p = nslp_precoder(0, mask)
    assert_allclose(p, np.array([[1.0], [1.0]]) / np.sqrt(2), atol=1e-15)


def test_systematic_matches_nslp_direction_in_two_by_two():
    mask = decompose_mask([2], 2, 2)
    p = systematic_precoder(0, mask)
    assert_allclose(p, np.array([[1.0], [1.0]]) / np.sqrt(2), atol=1e-12)


def test_nslp_nulls_are_exact():
    rng = np.random.default_rng(4)
    mask = decompose_mask([0, 3, 5, 9, 10], 4, 3)
    for k in range(3):
        transform = subcarrier_transform(k, 4, 3)
        p = nslp_precoder(k, mask)
        nulled = mask.nulled_rows(k)
        payload = rng.normal(size=p.shape[1]) + 1j * rng.normal(size=p.shape[1])
        leak = transform[nulled] @ (p @ payload) if nulled.size else np.zeros(0)
        assert np.all(np.abs(leak) < 1e-12 * max(np.linalg.norm(payload), 1.0))


def test_systematic_nulls_survive_normalization():
    rng = np.random.default_rng(5)
    mask = decompose_mask([1, 4, 10], 4, 3)
    for k in range(3):
        p = systematic_precoder(k, mask)
        nulled = mask.nulled_rows(k)
        transform = subcarrier_transform(k, 4, 3)
        payload = rng.normal(size=p.shape[1])
        if nulled.size:
            assert np.max(np.abs(transform[nulled] @ (p @ payload))) < 1e-10


def test_precoder_power_equals_payload_dimension():
    mask = decompose_mask([0, 5, 6, 11], 4, 3)
    for k in range(3):
        for p in (nslp_precoder(k, mask), systematic_precoder(k, mask)):
            dim = p.shape[1]
            assert np.trace(p.conj().T @ p).real == pytest.approx(dim, abs=1e-10)


def test_nslp_and_systematic_span_the_same_subspace():
    mask = decompose_mask([2, 7], 4, 3)
    for k in range(3):
        a = nslp_precoder(k, mask)
        b = systematic_precoder(k, mask)
        if a.shape[1] == 0:
            continue
        proj_a = a @ np.linalg.pinv(a)
        proj_b = b @ np.linalg.pinv(b)
        assert_allclose(proj_a, proj_b, atol=1e-8)


def test_systematic_payload_appears_verbatim_up_to_scale():
    mask = decompose_mask([9], 3, 4)  # subcarrier 1, one nulled row
    p = systematic_precoder(1, mask)
    assert p.shape == (3, 2)
    scale = p[0, 0]
    assert_allclose(p[:2], np.eye(2) * scale, atol=1e-12)


def test_fully_masked_subcarrier_yields_empty_precoder():
    mask = decompose_mask([3, 11, 19, 27], 4, 8)
    p = nslp_precoder(3, mask)
    assert p.shape == (4, 0)
    assert systematic_precoder(3, mask).shape == (4, 0)


def test_mixing_matrix_power_validated():
    mask = decompose_mask([2], 2, 2)
    ok = nslp_precoder(0, mask, mixing=np.array([[1.0]]))
    assert ok.shape == (2, 1)
    with pytest.raises(ConfigurationError):
        nslp_precoder(0, mask, mixing=np.array([[2.0]]))  # trace(U^H U) = 4 != 1
    with pytest.raises(ConfigurationError):
        nslp_precoder(0, mask, mixing=np.ones((3, 1)))  # wrong row count


def test_systematic_infeasible_for_clustered_rows():
    """Nulling a dense run of spectral rows makes the leading block singular
    in floating point; the systematic form must refuse rather than emit junk."""
    bins = [2 * m for m in range(32)]  # rows 0..31 of subcarrier 0 on a 64x2 grid
    mask = decompose_mask(bins, 64, 2)
    with pytest.raises(SystematicInfeasibleError, match="nslp_precoder"):
        systematic_precoder(0, mask)
    # the null-space form handles the same mask exactly
    p = nslp_precoder(0, mask)
    transform = subcarrier_transform(0, 64, 2)
    leak = transform[mask.nulled_rows(0)] @ p
    assert np.max(np.abs(leak)) < 1e-12


def test_build_precoders_set_shape():
    mask = decompose_mask([3, 11, 19, 27], 4, 8)
    precoders = build_precoders(mask)
    assert precoders.form == "null_space"
    assert len(precoders.matrices) == 8
    assert precoders.total_payload == 28
    assert_array_equal(precoders.payload_sizes, [4, 4, 4, 0, 4, 4, 4, 4])


def test_build_precoders_rejects_unknown_form():
    mask = decompose_mask([0], 2, 2)
    with pytest.raises(ConfigurationError):
        build_precoders(mask, form="unitary")


def test_precode_grid_end_to_end_nulls():
    rng = np.random.default_rng(6)
    mask = mask_from_pass_bands([(-0.2, 0.2)], 4, 8, 1.0)
    precoders = build_precoders(mask)
    payloads = [
        rng.normal(size=s) + 1j * rng.normal(size=s) for s in precoders.payload_sizes
    ]
    grid = precode_grid(payloads, precoders)
    spec = discrete_spectrum(otfs_modulate(grid))
    norm = np.linalg.norm(np.concatenate([p for p in payloads if p.size]))
    assert np.max(np.abs(spec[mask.null_bins])) < 1e-12 * norm


def test_precode_grid_validates_payload_lengths():
    mask = decompose_mask([2], 2, 2)
    precoders = build_precoders(mask)
    with pytest.raises(ConfigurationError):
        precode_grid([np.ones(2), np.ones(2)], precoders)  # k=0 expects length 1
    with pytest.raises(ConfigurationError):
        precode_grid([np.ones(1)], precoders)  # one vector per subcarrier


def test_precoder_set_validation():
    mask = decompose_mask([0], 2, 2)
    with pytest.raises(ValueError):
        PrecoderSet(mask=mask, form="null_space", matrices=(np.eye(2),))  # needs 2
    with pytest.raises(ValueError):
        PrecoderSet(mask=mask, form="weird", matrices=(np.eye(2), np.eye(2)))
    with pytest.raises(TypeError):  # only build_precoders may claim the closed form
        PrecoderSet(mask=mask, form="null_space", matrices=(np.eye(2), np.eye(2)), spectral_bins=np.arange(3))


@pytest.mark.parametrize("form", ["null_space", "systematic"])
def test_precoded_stream_is_prefix_stable_across_a_full_chunk(form):
    """A partial chunk draws only its frames, and those are a full chunk's first rows."""
    precoders = build_precoders(mask_from_pass_bands([(-0.25, 0.25)], 2, 4, 1.0), form)
    short, short_norms = precoded_stream(precoders, 7, seed=3)
    full, full_norms = precoded_stream(precoders, _CHUNK_FRAMES + 1, seed=3)
    assert_array_equal(short.frames, full.frames[:7])
    assert_array_equal(short_norms, full_norms[:7])


@pytest.mark.parametrize("form", ["null_space", "systematic"])
def test_a_lone_frame_is_precoded_like_the_frames_of_a_longer_block(form):
    """A one-frame block (or chunk tail) rounds like the first row of a two-frame one."""
    precoders = build_precoders(decompose_mask([1, 6], 4, 4), form)
    one, one_norms = precoded_stream(precoders, 1, seed=0)
    two, two_norms = precoded_stream(precoders, 2, seed=0)
    assert_array_equal(one.frames, two.frames[:1])
    assert_array_equal(one_norms, two_norms[:1])


def test_a_lone_lte_frame_is_synthesized_like_the_first_of_nine():
    mask = preset_config("lte-otfs-nslp", {"grid": {"num_delay": 16, "num_doppler": 128}}).mask()
    precoders = build_precoders(mask)
    assert precoders.spectral_bins is not None  # the closed-form path
    one, _ = precoded_stream(precoders, 1, seed=5)
    nine, _ = precoded_stream(precoders, 9, seed=5)
    assert_array_equal(one.frames, nine.frames[:1])


@st.composite
def _masks(draw):
    """A random mask on a grid of at most 4x6 that leaves at least one payload bin."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    bins = draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=m * n - 1))
    return decompose_mask(bins, m, n)


@given(mask=_masks(), frames=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_null_space_precoded_stream_nulls_the_masked_bins(mask, frames, seed):
    stream, norms = precoded_stream(build_precoders(mask, "null_space"), frames, seed)
    spectra = np.fft.fft(stream.frames, axis=1, norm="ortho")
    leak = np.abs(spectra[:, mask.null_bins]).max(axis=1, initial=0.0)
    assert np.all(leak <= 1e-9 * norms)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike ``array_equal``, this tells -0.0 from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@example(mask=decompose_mask([], 4, 6), frames=7, seed=0, constellation="qpsk")
@example(mask=decompose_mask([0, 6, 12, 18], 4, 6), frames=_CHUNK_FRAMES + 1, seed=1, constellation="qam16")
@given(
    mask=_masks(),
    frames=st.integers(1, 9) | st.just(_CHUNK_FRAMES + 2),
    seed=st.integers(0, 2**32 - 1),
    constellation=st.sampled_from(CONSTELLATIONS),
)
def test_closed_form_synthesis_matches_the_matrix_path(mask, frames, seed, constellation):
    """The spectral scatter against the matrix path run on the same matrices."""
    built = build_precoders(mask, "null_space")
    for k, matrix in enumerate(built.matrices):
        assert _same_bits(matrix, nslp_precoder(k, mask))
    hand_built = PrecoderSet(mask=mask, form="null_space", matrices=built.matrices)
    assert hand_built.spectral_bins is None
    scattered, norms = precoded_stream(built, frames, seed, constellation=constellation)
    reference, reference_norms = precoded_stream(hand_built, frames, seed, constellation=constellation)
    assert _same_bits(norms, reference_norms)
    error = np.abs(scattered.frames - reference.frames).max(axis=1)
    assert np.all(error <= 1e-12 * reference_norms)
    # Hand-built sets take the matrix path: doubled matrices double its frames
    # exactly (a power-of-two scale), where the scatter would ignore them.
    doubled = PrecoderSet(mask=mask, form="null_space", matrices=[2 * m for m in built.matrices])
    assert_array_equal(precoded_stream(doubled, frames, seed, constellation=constellation)[0].frames,
                       2 * reference.frames)


def _oracle_rows(mask, k):
    """The nulled and kept rows of subcarrier k by filtering the null bins, as ``SpectrumMask`` once did."""
    mine = mask.null_bins[mask.null_bins % mask.num_doppler == k]
    nulled = (mine // mask.num_doppler).astype(np.int64)
    return nulled, np.setdiff1d(np.arange(mask.num_delay, dtype=np.int64), nulled)


def _built_or_refused(build, *args):
    try:
        return build(*args)
    except SystematicInfeasibleError:
        return SystematicInfeasibleError


#: Rows 0-31 of subcarrier 0 on a 64x2 grid: the systematic form refuses subcarrier 0, so the whole set.
_CLUSTERED = decompose_mask([2 * m for m in range(32)], 64, 2)


@example(mask=_CLUSTERED, frames=2, seed=0)
@given(mask=_masks(), frames=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_the_kept_table_and_the_set_builder_agree_with_the_per_subcarrier_definitions(mask, frames, seed):
    """The one kept table, the spectral bins, both set forms and ``precode_grid``, against their definitions."""
    subcarriers = range(mask.num_doppler)
    oracle = [_oracle_rows(mask, k) for k in subcarriers]
    for k, (nulled, kept) in enumerate(oracle):
        assert_array_equal(mask.nulled_rows(k), nulled)
        assert_array_equal(mask.kept_rows(k), kept)
        assert_array_equal(mask.kept[k], np.isin(np.arange(mask.num_delay), kept))
    assert_array_equal(mask.payload_sizes(), [kept.size for _, kept in oracle])
    null_space = build_precoders(mask, "null_space")
    payload_bins = [m * mask.num_doppler + k for k, (_, kept) in enumerate(oracle) for m in kept]
    assert_array_equal(null_space.spectral_bins, payload_bins)
    for k in subcarriers:
        assert _same_bits(null_space.matrices[k], nslp_precoder(k, mask))
    # The systematic set is refused exactly when some subcarrier is refused alone.
    alone = [_built_or_refused(systematic_precoder, k, mask) for k in subcarriers]
    systematic = _built_or_refused(build_precoders, mask, "systematic")
    refused = systematic is SystematicInfeasibleError
    assert refused == any(matrix is SystematicInfeasibleError for matrix in alone)
    for k in subcarriers if not refused else ():
        assert _same_bits(systematic.matrices[k], alone[k])
    # precode_grid is the one-frame case of the block synthesis: each frame of a block, bit for bit.
    rng = np.random.default_rng(seed)
    for precoders in [null_space] + ([] if refused else [systematic]):
        shape = (frames, precoders.total_payload)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        offsets = np.cumsum(precoders.payload_sizes)[:-1]
        for row, grid in zip(rows, _precode_rows(precoders, rows)):
            assert _same_bits(precode_grid(np.split(row, offsets), precoders).entries, grid)


def _nslp_run(outdir, swap):
    """Metrics of a small ``lte-otfs-nslp`` run whose precoder set is ``swap(build_precoders(...))``."""
    config = preset_config(
        "lte-otfs-nslp", {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": 16}}
    )
    with mock.patch.object(presets, "build_precoders", lambda mask, form: swap(build_precoders(mask, form))):
        presets.run_scenario(config, outdir)
    return {record["metric"]: record["value"] for record in read_metrics(outdir / "lte_nslp_metrics.json")}


def test_nslp_files_do_not_depend_on_the_frame_block(tmp_path):
    """One-frame blocks (each spectrum block a single row) write the bytes of the default blocks."""
    config = preset_config(
        "lte-otfs-nslp", {"grid": {"num_delay": 8, "num_doppler": 32}, "stream": {"num_frames": 5}}
    )
    presets.run_scenario(config, tmp_path / "default")
    with mock.patch.object(waveform, "_BLOCK_SAMPLES", 1):
        presets.run_scenario(config, tmp_path / "single")
    for name in ("lte_nslp_psd.csv", "lte_nslp_metrics.json", "lte_nslp_precoders.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()


def test_nslp_suppression_of_exact_nulls_is_the_same_on_both_synthesis_paths(tmp_path):
    """Both paths null exactly, so both read rounding residue: the metric must not tell them apart."""
    scattered = _nslp_run(tmp_path / "scatter", lambda built: built)
    hand_built = lambda built: PrecoderSet(mask=built.mask, form=built.form, matrices=built.matrices)
    through_matrices = _nslp_run(tmp_path / "matrices", hand_built)
    assert scattered["suppression_db"] == through_matrices["suppression_db"]
    assert scattered["suppression_db"] == presets._SUPPRESSION_CEILING_DB


def test_nslp_suppression_of_a_leaking_set_is_reported_uncapped(tmp_path):
    """Precoders perturbed by about 1e-6 leak that much into the nulls: the metric reads the leak."""
    rng = np.random.default_rng(5)

    def leaking(built):
        matrices = [m + 1e-6 * rng.standard_normal(m.shape) for m in built.matrices]
        return PrecoderSet(mask=built.mask, form=built.form, matrices=matrices)

    metrics = _nslp_run(tmp_path, leaking)
    curve = read_psd_curve(tmp_path / "lte_nslp_psd.csv")
    mask = load_mask(tmp_path / "lte_nslp_mask.json")
    natural = np.mod(np.arange(mask.num_bins) - mask.num_bins // 2, mask.num_bins)
    nulled = np.isin(natural, mask.null_bins)
    expected = 10 * np.log10(curve.values[~nulled].mean() / curve.values[nulled].max())
    assert 40.0 < expected < presets._SUPPRESSION_CEILING_DB
    assert metrics["suppression_db"] == pytest.approx(expected, rel=1e-12)
    assert 1e-8 < metrics["worst_null_bin_leak"] < 1e-4
