"""The bytes of each public writer's output, pinned by sha256 on small fixed inputs.

Byte-identical reruns are a contract of every artifact, so a change to how
any of them is laid out (header order, float formatting, row layout, JSON
indentation) must show here.  The digests were recorded before the CSV and
JSON writers were merged into one table writer and one JSON writer.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from otfspectrum import io as fileio
from otfspectrum.precoding import build_precoders, decompose_mask
from otfspectrum.presets import preset_config, run_scenario
from otfspectrum.psd import PsdCurve
from otfspectrum.waveform import VarianceProfile, generate_random_stream

HASH = "0123456789ab"


def _frame_stream(path):
    profile = VarianceProfile(np.array([[1.0, 0.5, 0.0, 2.0], [0.25, 1.0, 1.0, 0.0]]))
    stream = generate_random_stream(profile, num_frames=3, seed=7, sample_interval=0.5)
    return fileio.write_frame_stream(path, stream, {"config_hash": HASH})


def _psd_curve(path):
    """Signed zeros, subnormals and exponents at both ends of the float64 range."""
    freqs = [-1e300, -2.5, -5e-324, -0.0, 1e-310, 0.1, 7.0, 1.7976931348623157e308]
    values = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0 / 3.0, 6.02e23, 1.7976931348623157e308]
    meta = {"waveform": "otfs", "sample_rate": 2.0, "num_segments": 4, "not_a_header_key": 1}
    return fileio.write_psd_curve(path, PsdCurve(freqs, values, meta=meta), {"config_hash": HASH})


def _precoders(form):
    def write(path):
        precoders = build_precoders(decompose_mask([1, 2, 5, 9, 11], 3, 4), form)
        return fileio.write_precoder_set(path, precoders, {"config_hash": HASH})

    return write


def _metrics(path):
    records = [
        {"metric": "nmse_db", "value": -41.5, "config_hash": HASH},
        {"metric": "cosine_similarity", "value": 0.1 + 0.2, "config_hash": HASH},
        {"metric": "payload_dimensions", "value": 3, "config_hash": HASH},
        {"metric": "tiny", "value": 5e-324, "config_hash": HASH},
    ]
    return fileio.write_metrics(path, records)


def _mask(path):
    return fileio.write_mask(path, decompose_mask([3, 11, 19], 4, 8), sample_interval=0.25)


#: The rows of ``scenario --preset cep-convergence``: (frames, NMSE dB, cosine).
CEP_CONVERGENCE_ROWS = [
    (100, -36.642976671872766, 0.9999115674333451),
    (1000, -46.37592267871969, 0.9999886507359057),
    (10000, -55.84570389449212, 0.9999986991068195),
]
CEP_CONVERGENCE_HASH = "ce111b23ab89"

#: A convergence table as that scenario once wrote it: real rows, so these
#: bytes pin the writer, not the DAC's last bits.
CONVERGENCE_TABLE_ROWS = [
    (100, -36.655424941559154, 0.9999119441989427),
    (1000, -46.37560892450821, 0.9999886496398633),
    (10000, -55.84760676116966, 0.9999986996714628),
]


def _cep_convergence(path):
    return fileio.write_convergence_table(path, CONVERGENCE_TABLE_ROWS, {"config_hash": "78834527dcc0"})


GOLDEN = {
    "frame_stream": (
        _frame_stream,
        "3a34acbbf96ce41f5e56144e9cf684310441ade9b28c2e05ab99fb8c89b5ef29",
    ),
    "psd_curve": (
        _psd_curve,
        "4ed8d07a456c2a48ae290a54b5eef1c8565cdac87a30e81d031e14555b64ee97",
    ),
    "precoders_null_space": (
        _precoders("null_space"),
        "ded0aeef379fd8e185742e29aa28a091264bbe5c843e954cec776d6164e48e16",
    ),
    "precoders_systematic": (
        _precoders("systematic"),
        "9f5cb3674627efff21cc0427924b38445de8965534f12183769f78de3568abcc",
    ),
    "metrics": (
        _metrics,
        "40006b717de2bd11c5ba939d46c61f60b53673889e867c0ae760c9b8718177e7",
    ),
    "mask": (
        _mask,
        "afa484fd37733c14cb775b6dfabb9946808f024ac753520ebfac57a4736f6aaa",
    ),
    "cep_convergence": (
        _cep_convergence,
        "ef1463cb00f58a0a9171e9a8a9f85b65357f7b647e192eb90db7ffa3475a77fe",
    ),
}


@pytest.mark.parametrize("artifact", GOLDEN)
def test_writer_bytes_are_pinned(tmp_path, artifact):
    write, digest = GOLDEN[artifact]
    path = write(tmp_path / "artifact")
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == digest


#: The CSV tables, written by one process above and split across processes below.
TABLES = ["frame_stream", "psd_curve", "precoders_null_space", "precoders_systematic", "cep_convergence"]


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("artifact", TABLES)
def test_tables_split_across_processes_keep_their_bytes(tmp_path, artifact, processes):
    """One-row row blocks and no minimum share, so even these small tables are cut into row ranges."""
    write, digest = GOLDEN[artifact]
    with mock.patch.object(fileio, "_ROW_BLOCK", 1), mock.patch.object(fileio, "_SPLIT_ROW_BLOCKS", 1), \
            mock.patch.object(fileio, "_cpu_count", lambda: processes), \
            mock.patch.object(fileio, "_fork_rows", wraps=fileio._fork_rows) as fork_rows:
        path = write(tmp_path / "artifact")
    assert fork_rows.call_count >= processes - 1
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == digest


def test_cep_convergence_scenario_gives_the_pinned_rows(tmp_path):
    """The scenario end to end, to rounding: the sinc DAC's arithmetic may move the last bits."""
    manifest = run_scenario(preset_config("cep-convergence"), tmp_path)
    assert manifest["config_hash"] == CEP_CONVERGENCE_HASH
    header, table = fileio._read_table(manifest["files"]["table"], "convergence table", 3)
    assert header["config_hash"] == CEP_CONVERGENCE_HASH
    assert_allclose(table, CEP_CONVERGENCE_ROWS, rtol=1e-12, atol=0)
