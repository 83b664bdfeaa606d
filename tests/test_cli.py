"""End-to-end checks of the ``otfspectrum`` command line via ``main(argv)``."""

import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import otfspectrum
from otfspectrum import io as fileio
from otfspectrum import presets
from otfspectrum.cli import _overrides, build_parser, main
from otfspectrum.dac import FILTER_KINDS
from otfspectrum.errors import ConfigurationError
from otfspectrum.io import read_frame_stream, read_metrics, read_psd_curve
from otfspectrum.patterns import PATTERN_NAMES
from otfspectrum.precoding import PRECODER_FORMS
from otfspectrum.presets import PRESET_NAMES, run_presets
from otfspectrum.waveform import CONSTELLATIONS


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_writes_stream(tmp_path, capsys):
    out = tmp_path / "stream.csv"
    code = run(
        "generate", "--seed", 7, "--num-delay", 2, "--num-doppler", 4,
        "--sample-interval", 1.0, "--uniform", 1.0, "--frames", 3, "--out", out,
    )
    assert code == 0
    assert "wrote 3 frames" in capsys.readouterr().out
    stream = read_frame_stream(out)
    assert stream.frames.shape == (3, 8)
    assert stream.seed == 7


def test_generate_is_deterministic(tmp_path):
    args = [
        "generate", "--seed", 42, "--num-delay", 2, "--num-doppler", 2,
        "--sample-interval", 1.0, "--uniform", 1.0, "--frames", 4,
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_seed_is_usage_error(tmp_path, capsys):
    code = run(
        "generate", "--num-delay", 2, "--num-doppler", 2,
        "--sample-interval", 1.0, "--uniform", 1.0, "--out", tmp_path / "s.csv",
    )
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 1,
        "grid": {"num_delay": 2, "num_doppler": 4, "sample_interval": 1.0},
        "profile": {"uniform": 1.0},
        "stream": {"num_frames": 2},
    }))
    out = tmp_path / "s.csv"
    assert run("generate", "--config", config, "--frames", 5, "--out", out) == 0
    assert read_frame_stream(out).num_frames == 5


def test_bad_config_json_is_exit_2(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run("generate", "--config", config, "--out", tmp_path / "s.csv") == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 1,
        "grid": {"num_delay": 2, "num_doppler": 2, "sample_interval": 1.0},
        "profile": {"uniform": 1.0},
        "turbo": True,
    }))
    assert run("generate", "--config", config, "--out", tmp_path / "s.csv") == 2
    assert "turbo" in capsys.readouterr().err


def test_psd_analytic_then_estimate_and_compare(tmp_path, capsys):
    base = [
        "--seed", 5, "--num-delay", 2, "--num-doppler", 8,
        "--sample-interval", 1.0, "--uniform", 1.0,
    ]
    ref = tmp_path / "ref.csv"
    assert run("psd-analytic", *base, "--waveform", "otfs", "--points", 256, "--out", ref) == 0
    curve = read_psd_curve(ref)
    assert curve.freqs.size == 256
    np.testing.assert_allclose(curve.values, 1.0, atol=1e-12)  # uniform profile is flat

    est = tmp_path / "est.csv"
    metrics_path = tmp_path / "metrics.json"
    code = run(
        "psd-estimate", *base, "--frames", 600, "--out", est,
        "--reference", ref, "--metrics-out", metrics_path,
    )
    assert code == 0
    records = read_metrics(metrics_path)
    by_name = {r["metric"]: r["value"] for r in records}
    assert by_name["nmse_db"] < -20.0
    assert by_name["cosine_similarity"] > 0.999
    assert all(r["config_hash"] == records[0]["config_hash"] for r in records)

    # compare subcommand prints the same metric values to stdout as JSON
    capsys.readouterr()
    assert run("compare", "--estimated", est, "--reference", ref) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["nmse_db"] == pytest.approx(by_name["nmse_db"])
    assert printed["cosine_similarity"] == pytest.approx(by_name["cosine_similarity"])
    assert run("compare", "--estimated", est, "--reference", ref, "--out",
               tmp_path / "cmp.json") == 0
    cmp_records = read_metrics(tmp_path / "cmp.json")
    assert {r["metric"] for r in cmp_records} == {"nmse_db", "cosine_similarity"}


@pytest.mark.parametrize(
    "body",
    [None, "freq_hz,psd\n0.0,oops\n", "freq_hz,psd\n10.0,1.0\n11.0,1.0\n"],
    ids=["missing", "malformed", "disjoint_span"],
)
def test_bad_estimate_reference_is_exit_2_and_writes_nothing(tmp_path, capsys, body):
    ref = tmp_path / "ref.csv"
    if body is not None:
        ref.write_text(body)
    est = tmp_path / "est.csv"
    code = run(
        "psd-estimate", "--seed", 1, "--num-delay", 4, "--num-doppler", 8,
        "--sample-interval", 1, "--uniform", 1, "--frames", 3, "--reference", ref, "--out", est,
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not est.exists()


def test_precode_requires_mask(tmp_path, capsys):
    code = run(
        "precode", "--seed", 1, "--num-delay", 2, "--num-doppler", 4,
        "--sample-interval", 1.0, "--out", tmp_path / "p.csv",
    )
    assert code == 2
    assert "mask" in capsys.readouterr().err


def test_precode_with_mask_file(tmp_path, capsys):
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps({"M": 2, "N": 4, "null_bins": [2, 6]}))
    out = tmp_path / "precoders.csv"
    stream_out = tmp_path / "coded.csv"
    code = run(
        "precode", "--seed", 9, "--num-delay", 2, "--num-doppler", 4,
        "--sample-interval", 1.0, "--frames", 4,
        "--mask-file", mask_file, "--out", out, "--stream-out", stream_out,
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "null_space" in text
    stream = read_frame_stream(stream_out)
    assert stream.frames.shape == (4, 8)
    # the masked bins really are dark in every frame
    spectra = np.fft.fft(stream.frames, axis=1, norm="ortho")
    assert np.max(np.abs(spectra[:, [2, 6]])) < 1e-12


@pytest.mark.parametrize("source", [{"null_bins": [1]}, {"pass_bands_hz": [[-0.25, 0.25]], "T_s": 1.0}])
def test_a_mask_file_too_large_to_hold_is_exit_2(tmp_path, capsys, source):
    """The file's declared grid is refused before its 1e18-bin mask is built: the grid message, exit 2."""
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps({"M": 10**9, "N": 10**9, **source}))
    code = run(
        "precode", "--seed", 1, "--num-delay", 2, "--num-doppler", 4,
        "--sample-interval", 1.0, "--mask-file", mask_file, "--out", tmp_path / "p.csv",
    )
    assert code == 2
    assert "mask file grid 1000000000x1000000000 does not match scenario grid 2x4" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_precode_refuses_a_stream_with_no_payload_before_writing(tmp_path, capsys):
    """An all-null mask makes precoders but no stream: exit 2, and neither output file is written."""
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps({"M": 2, "N": 4, "null_bins": list(range(8))}))
    out, stream_out = tmp_path / "p.csv", tmp_path / "s.csv"
    code = run(
        "precode", "--seed", 1, "--num-delay", 2, "--num-doppler", 4, "--sample-interval", 1.0,
        "--frames", 4, "--mask-file", mask_file, "--out", out, "--stream-out", stream_out,
    )
    assert code == 2
    assert "no payload dimensions" in capsys.readouterr().err
    assert not out.exists() and not stream_out.exists()


def test_precode_whose_stream_cannot_be_written_leaves_neither_file(tmp_path, capsys):
    """The precoders are written first, then the stream's directory is missing: exit 2, and no file is left."""
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps({"M": 2, "N": 4, "null_bins": [2, 6]}))
    out, stream_out = tmp_path / "p.csv", tmp_path / "nodir" / "s.csv"
    code = run(
        "precode", "--seed", 1, "--num-delay", 2, "--num-doppler", 4, "--sample-interval", 1.0,
        "--frames", 4, "--mask-file", mask_file, "--out", out, "--stream-out", stream_out,
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "wrote" not in captured.out
    assert not out.exists() and not stream_out.exists()


def test_psd_estimate_whose_metrics_cannot_be_written_leaves_neither_file(tmp_path, capsys):
    """The estimate is written first, then the metrics' directory is missing: exit 2, and no file is left."""
    base = ["--seed", 5, "--num-delay", 2, "--num-doppler", 8, "--sample-interval", 1.0, "--uniform", 1.0]
    ref = tmp_path / "ref.csv"
    assert run("psd-analytic", *base, "--points", 64, "--out", ref) == 0
    capsys.readouterr()
    est, metrics = tmp_path / "est.csv", tmp_path / "nodir" / "m.json"
    code = run("psd-estimate", *base, "--frames", 4, "--out", est, "--reference", ref, "--metrics-out", metrics)
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "wrote" not in captured.out
    assert not est.exists() and not metrics.exists()


def test_systematic_infeasible_exit_code(tmp_path, capsys):
    mask_file = tmp_path / "mask.json"
    mask_file.write_text(json.dumps({
        "M": 64, "N": 2, "null_bins": [2 * m for m in range(32)],
    }))
    code = run(
        "precode", "--seed", 1, "--num-delay", 64, "--num-doppler", 2,
        "--sample-interval", 1.0,
        "--precoder-form", "systematic",
        "--mask-file", mask_file, "--out", tmp_path / "p.csv",
    )
    assert code == 3
    assert "nslp_precoder" in capsys.readouterr().err


def test_scenario_list(capsys):
    assert run("scenario", "--list") == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_scenario_requires_selection(capsys):
    assert run("scenario") == 2
    assert "--preset" in capsys.readouterr().err


def test_scenario_unknown_preset(capsys):
    assert run("scenario", "--preset", "no-such-preset") == 2


@pytest.mark.parametrize("selection", [["--all"], ["--preset", "example1"]])
@pytest.mark.parametrize("jobs", [0, -3])
def test_scenario_jobs_below_one_is_exit_2(tmp_path, capsys, selection, jobs):
    assert run("scenario", *selection, "--jobs", jobs, "--outdir", tmp_path / "run") == 2
    assert f"--jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_run_presets_rejects_jobs_that_are_not_a_positive_integer(tmp_path, jobs):
    with pytest.raises(ConfigurationError, match="jobs must be an integer >= 1"):
        run_presets(["example1"], tmp_path / "run", jobs=jobs)
    assert not (tmp_path / "run").exists()


def _tree(root):
    """Every file under ``root`` by relative path; the manifests, which hold output paths, with ``root`` masked."""
    return {str(path.relative_to(root)): path.read_bytes().replace(str(root).encode(), b"<root>")
            if path.name.endswith("_manifest.json") else path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_a_preset_pool_writes_the_bytes_of_one_process(tmp_path):
    """``jobs=2`` runs the presets in a process pool: the same hashes, files and bytes as ``jobs=1``."""
    names, overrides = ["example1", "lte-ofdm", "cep-split"], {"stream": {"num_frames": 8}}
    serial = run_presets(names, tmp_path / "serial", jobs=1, overrides=overrides)
    with mock.patch("concurrent.futures.ProcessPoolExecutor", wraps=ProcessPoolExecutor) as pool:
        pooled = run_presets(names, tmp_path / "pooled", jobs=2, overrides=overrides)
    assert pool.call_args.kwargs == {"max_workers": 2}
    assert pooled == serial
    tree = _tree(tmp_path / "serial")
    assert len(tree) == 15 and _tree(tmp_path / "pooled") == tree


def test_fold_workers_write_the_bytes_of_one_process(tmp_path):
    """Every preset at 64 frames (counts 16, 32 and 64 for ``cep-convergence``), folded here and by three workers.

    The workers take groups of 2**10 kept bins, from a few frames to a few
    segments of ``lte-otfs-columns``' sinc: five presets fork them.
    """
    overrides = {"stream": {"num_frames": 64, "frame_counts": [16, 32, 64]}}
    trees = {}
    for cpus in (1, 3):
        with mock.patch.object(fileio, "_cpu_count", lambda: cpus), mock.patch.object(
            presets, "_SPLIT_GROUPS", 1
        ), mock.patch.object(presets, "_GROUP_BINS", 2**10), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            run_presets(PRESET_NAMES, tmp_path / str(cpus), overrides=overrides)
        assert fork.call_count == (0 if cpus == 1 else 5 * 3)
        trees[cpus] = _tree(tmp_path / str(cpus))
    assert len(trees[1]) == 35 and trees[3] == trees[1]


def test_an_nslp_pass_band_holding_no_bin_is_exit_2(tmp_path, capsys):
    """The refusal is raised before any fold worker or writer of the precoder dump forks."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mask": {"pass_bands_hz": [[1.0, 2.0]]}}))
    with mock.patch.object(fileio, "_cpu_count", lambda: 2), mock.patch.object(
        presets, "_SPLIT_GROUPS", 1
    ), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        code = run(
            "scenario", "--preset", "lte-otfs-nslp", "--config", config, "--num-delay", 4, "--num-doppler", 8,
            "--outdir", tmp_path / "run",
        )
    assert code == 2 and fork.call_count == 0
    assert "the mask leaves no payload dimensions at all" in capsys.readouterr().err


def test_scenario_single_preset_writes_manifest(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = run(
        "scenario", "--preset", "example1", "--outdir", outdir, "--points", 512,
    )
    assert code == 0
    manifest = json.loads((outdir / "example1_manifest.json").read_text())
    assert manifest["preset"] == "example1"
    assert set(manifest["files"]) == {"dirac_delta", "truncated_sinc", "rect"}
    for path in manifest["files"].values():
        assert Path(path).exists()


def test_scenario_rerun_is_byte_identical(tmp_path):
    args = ["scenario", "--preset", "cep-split", "--frames", 8, "--outdir", tmp_path / "run"]
    assert run(*args) == 0
    snapshot = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert run(*args) == 0
    again = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert again == snapshot


#: Blocks scipy, imports the package, checks no scipy module got in, then runs the CLI.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import otfspectrum
from otfspectrum import cli
loaded = [name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None]
assert not loaded, loaded
sys.exit(cli.main(sys.argv[1:]))
"""


def test_scenario_runs_without_scipy_and_reruns_byte_identical_across_processes(tmp_path):
    """Two fresh interpreters, with scipy blocked, write the same bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(otfspectrum.__file__).parent.parent)}
    trees = []
    for name in ("first", "second"):
        cwd = tmp_path / name
        cwd.mkdir()
        # A relative outdir, so the manifests' output paths are the same in both runs.
        argv = ["scenario", "--preset", "cep-split", "--frames", "8", "--outdir", "run"]
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in (cwd / "run").iterdir()})
    assert trees[0] and trees[0] == trees[1]


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "otfspectrum" in capsys.readouterr().out


@pytest.mark.parametrize("index", [9, -1])
def test_cep_delay_index_out_of_range_is_exit_2(tmp_path, capsys, index):
    out = tmp_path / "cep.csv"
    code = run(
        "psd-analytic", "--seed", 1, "--num-delay", 4, "--num-doppler", 8,
        "--sample-interval", 1.0, "--uniform", 1.0,
        "--waveform", "cep-ofdm", "--delay-index", index, "--out", out,
    )
    assert code == 2
    assert "--delay-index must be in [0, 4)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("waveform", ["otfs", "ofdm"])
def test_delay_index_without_cep_ofdm_is_exit_2(tmp_path, capsys, waveform):
    out = tmp_path / "psd.csv"
    code = run(
        "psd-analytic", "--seed", 1, "--num-delay", 2, "--num-doppler", 8, "--sample-interval", 1.0,
        "--uniform", 1.0, "--waveform", waveform, "--delay-index", 7, "--out", out,
    )
    assert code == 2
    assert "--delay-index is only read with --waveform cep-ofdm" in capsys.readouterr().err
    assert not out.exists()


def test_cep_ofdm_without_a_delay_index_is_component_0(tmp_path):
    base = ["psd-analytic", "--seed", 1, "--num-delay", 2, "--num-doppler", 8, "--sample-interval", 1.0,
            "--uniform", 1.0, "--points", 64, "--waveform", "cep-ofdm"]
    assert run(*base, "--out", tmp_path / "default.csv") == 0
    assert run(*base, "--delay-index", 0, "--out", tmp_path / "zero.csv") == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()


def test_metrics_out_without_reference_is_exit_2(tmp_path, capsys):
    out, metrics = tmp_path / "est.csv", tmp_path / "metrics.json"
    code = run(
        "psd-estimate", "--seed", 1, "--num-delay", 2, "--num-doppler", 4, "--sample-interval", 1.0,
        "--uniform", 1.0, "--frames", 2, "--out", out, "--metrics-out", metrics,
    )
    assert code == 2
    assert "--metrics-out needs --reference" in capsys.readouterr().err
    assert not out.exists() and not metrics.exists()


@pytest.mark.parametrize(
    "selection", [["--preset", "example1"], ["--preset", "example1", "--preset", "example2"]]
)
def test_scenario_writes_under_the_configs_output_directory_unless_outdir_is_given(
    tmp_path, monkeypatch, capsys, selection
):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"output": {"directory": "mine"}}))
    assert run("scenario", *selection, "--points", 16, "--config", config) == 0
    assert "mine" in capsys.readouterr().out
    assert (tmp_path / "mine").is_dir() and not (tmp_path / "otfspectrum-out").exists()
    assert run("scenario", *selection, "--points", 16, "--config", config, "--outdir", "flag") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "flag", "mine"]
    assert run("scenario", *selection, "--points", 16) == 0
    assert (tmp_path / "otfspectrum-out").is_dir()


def test_non_string_output_directory_is_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"output": {"directory": 5}}))
    assert run("scenario", "--all", "--config", config) == 2
    assert "output.directory must be a string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_sigma2_shape_mismatch_is_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 1,
        "grid": {"num_delay": 4, "num_doppler": 8, "sample_interval": 1.0},
        "profile": {"sigma2": [[1.0, 1.0], [1.0, 1.0]]},
    }))
    out = tmp_path / "psd.csv"
    assert run("psd-analytic", "--config", config, "--out", out) == 2
    assert "sigma2 has shape (2, 2), but the grid is 4x8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("selection", [["--all"], ["--preset", "example2"]], ids=["all", "one"])
def test_a_grid_a_preset_profile_does_not_fit_is_exit_2_and_makes_nothing(tmp_path, capsys, selection):
    """example2's columns on 12 Doppler bins: refused before any preset runs or makes a directory."""
    outdir = tmp_path / "run"
    assert run("scenario", *selection, "--num-doppler", 12, "--outdir", outdir) == 2
    assert "columns must lie in [0, 12)" in capsys.readouterr().err
    assert not outdir.exists()


def test_dirac_with_oversampling_is_exit_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run(
        "psd-estimate", "--seed", 1, "--num-delay", 2, "--num-doppler", 4, "--uniform", 1, "--frames", 2,
        "--filter", "dirac_delta", "--oversampling", 2, "--out", out,
    )
    assert code == 2
    assert "filter.oversampling must be 1 for the dirac_delta filter" in capsys.readouterr().err
    assert not out.exists()


def _analytic_exit_code(tmp_path, **overrides):
    raw = {
        "seed": 1,
        "grid": {"num_delay": 4, "num_doppler": 8, "sample_interval": 1.0},
        "profile": {"uniform": 1.0},
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**raw, **overrides}))
    out = tmp_path / "psd.csv"
    code = run("psd-analytic", "--config", config, "--out", out)
    assert not out.exists()
    return code


def test_non_table_mask_is_exit_2(tmp_path, capsys):
    assert _analytic_exit_code(tmp_path, mask=5) == 2
    assert "section 'mask' must be a table" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, body",
    [
        ("precode", "mask", {"null_bins": 5}),
        ("precode", "mask", {"pass_bands_hz": 5}),
        ("precode", "mask", {"path": 5}),
        ("precode", "mask", {"null_bins": [1.5]}),
        ("psd-analytic", "profile", {"columns": 5}),
        ("psd-analytic", "profile", {"columns": [1.7]}),
        ("psd-analytic", "profile", {"columns": [True, 2]}),
    ],
)
def test_malformed_list_key_is_exit_2(tmp_path, capsys, command, section, body):
    raw = {
        "seed": 1,
        "grid": {"num_delay": 4, "num_doppler": 8, "sample_interval": 1.0},
        "profile": {"uniform": 1.0},
        section: body,
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out.csv"
    assert run(command, "--config", config, "--out", out) == 2
    (key,) = body
    assert f"{section}.{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_bool_uniform_power_is_exit_2(tmp_path, capsys):
    assert _analytic_exit_code(tmp_path, profile={"uniform": True}) == 2
    assert "profile.uniform must be a finite number" in capsys.readouterr().err


def test_bool_pattern_budget_is_exit_2(tmp_path, capsys):
    profile = {"pattern": "head_tail_columns", "budget": True}
    assert _analytic_exit_code(tmp_path, profile=profile) == 2
    assert "profile.budget must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"grid": {"num_delay": 4, "num_doppler": 8, "sample_interval": 5e-324}}, "grid.sample_interval"),
        ({"psd": {"band": [-1e300, 1e308]}}, "psd.band"),
        ({"profile": {"uniform": 1e308}}, "profile.uniform"),
        ({"grid": {"num_delay": 4, "num_doppler": 8, "sample_rate": 1e308}}, "grid.sample_rate"),
    ],
)
def test_overflowing_derived_value_is_exit_2_naming_the_key(tmp_path, capsys, overrides, key):
    assert _analytic_exit_code(tmp_path, **overrides) == 2
    assert f"- {key}" in capsys.readouterr().err


def test_flag_onto_a_non_table_section_is_exit_2_for_scenario(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"grid": 5}))
    code = run(
        "scenario", "--preset", "example1", "--config", config, "--num-delay", 4,
        "--outdir", tmp_path / "run",
    )
    assert code == 2
    assert "section 'grid' must be a table" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_flag_onto_a_non_table_section_is_exit_2_for_psd_analytic(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": 1, "grid": 5, "profile": {"uniform": 1}}))
    out = tmp_path / "psd.csv"
    code = run(
        "psd-analytic", "--config", config, "--num-delay", 4, "--num-doppler", 8,
        "--sample-interval", 1, "--out", out,
    )
    assert code == 2
    assert "section 'grid' must be a table" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "dest, choices",
    [
        ("filter.kind", FILTER_KINDS),
        ("profile.pattern", PATTERN_NAMES),
        ("stream.constellation", CONSTELLATIONS),
        ("precoder.form", PRECODER_FORMS),
    ],
)
def test_flag_choices_are_the_module_tuples(dest, choices):
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    for name in ("generate", "psd-analytic", "psd-estimate", "precode", "scenario"):
        (flag,) = [a for a in subparsers.choices[name]._actions if a.dest == dest]
        assert flag.choices == choices, name


def test_every_override_flag_sets_its_config_key():
    args = build_parser().parse_args([
        "psd-estimate", "--out", "psd.csv", "--seed", "3", "--num-delay", "2", "--num-doppler", "4",
        "--sample-interval", "0.5", "--sample-rate", "2", "--filter", "rect", "--order", "7",
        "--oversampling", "3", "--frames", "9", "--constellation", "qam16", "--uniform", "1.5",
        "--columns", "0", "1", "--pattern", "head_tail_rows", "--budget", "5", "--points", "64",
        "--band", "-1", "1", "--segment-frames", "2", "--mask-file", "mask.json",
        "--precoder-form", "systematic",
    ])
    assert _overrides(args) == {
        "seed": 3,
        "grid": {"num_delay": 2, "num_doppler": 4, "sample_interval": 0.5, "sample_rate": 2.0},
        "filter": {"kind": "rect", "order": 7, "oversampling": 3},
        "stream": {"num_frames": 9, "constellation": "qam16"},
        "profile": {"uniform": 1.5, "columns": [0, 1], "pattern": "head_tail_rows", "budget": 5},
        "psd": {"num_points": 64, "band": [-1.0, 1.0], "segment_frames": 2},
        "mask": {"path": "mask.json"},
        "precoder": {"form": "systematic"},
    }
    no_flags = build_parser().parse_args(["psd-estimate", "--out", "psd.csv"])
    assert _overrides(no_flags) == {}
