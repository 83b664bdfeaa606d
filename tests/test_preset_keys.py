"""Every config key a preset or subcommand accepts shapes its output; every other given key is refused.

Each preset declares the keys its runner reads, and each subcommand
(``generate``, ``psd-analytic``, ``psd-estimate``, ``precode``) has one
read set, given its own flags.  A given key outside that set is a
``ConfigurationError`` (exit 2) naming the preset or subcommand and the
key, whether it comes through the API, a config file or a flag.  A run of
several presets sends each given key only to the presets that read it.
And each key a preset or subcommand reads is no silent no-op: on a small
base config, changing it to another valid value either changes some
artifact byte or is refused by an existing rule (a second profile source,
a rate that contradicts the preset's sample interval, a pattern without
its budget).
"""

import json
import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfspectrum.cli import _PRECODE_DEFAULTS, _load, _reads, build_parser, main
from otfspectrum.config import CONFIG_KEYS, ScenarioConfig, _deep_merge, _in_read_set
from otfspectrum.errors import ConfigurationError
from otfspectrum.presets import (
    PRESETS,
    _RUN_KEYS,
    _preset_configs,
    preset_config,
    run_presets,
    run_scenario,
)

EXEMPT = {"seed", "output.directory", "preset"}
SETTABLE = [key.name for key in CONFIG_KEYS if key.name not in EXEMPT]

#: A valid value for each key, accepted by every preset's defaults.
VALID = {
    "grid.num_delay": 4, "grid.num_doppler": 8, "grid.sample_interval": 1.0, "grid.sample_rate": 1.0,
    "filter.kind": "dirac_delta", "filter.order": 50, "filter.oversampling": 1,
    "stream.num_frames": 8, "stream.constellation": "qam16", "stream.frame_counts": [1, 2],
    "profile.uniform": 3.0, "profile.columns": [0], "profile.pattern": "head_tail_rows",
    "profile.budget": 3, "profile.sigma2": [[1.0]],
    "psd.num_points": 256, "psd.band": [-0.25, 0.25], "psd.segment_frames": 2,
    "mask.null_bins": [1], "mask.pass_bands_hz": [[-0.25, 0.25]], "mask.path": "mask.json",
    "precoder.form": "systematic",
}

PAIRS = [(preset, key) for preset in sorted(PRESETS) for key in SETTABLE]
READ = [pair for pair in PAIRS if _in_read_set(PRESETS[pair[0]].reads, pair[1])]
UNREAD = [pair for pair in PAIRS if not _in_read_set(PRESETS[pair[0]].reads, pair[1])]


def _nested(dotted: str, value) -> dict:
    section, _, key = dotted.rpartition(".")
    return {section: {key: value}} if section else {dotted: value}


def test_every_config_key_is_read_by_some_preset_and_every_read_names_a_key():
    sections = {key.name.rpartition(".")[0] for key in CONFIG_KEYS} - {""}
    assert set(VALID) == set(SETTABLE)
    for key in SETTABLE:
        assert any(_in_read_set(preset.reads, key) for preset in PRESETS.values()), key
    for preset in PRESETS.values():
        for entry in preset.reads:
            assert entry in sections or entry in SETTABLE, (preset.name, entry)
    assert (len(PAIRS), len(READ), len(UNREAD)) == (176, 106, 70)


@pytest.mark.parametrize("preset, key", UNREAD)
def test_an_unread_key_is_refused_naming_the_preset_and_the_key(preset, key):
    with pytest.raises(ConfigurationError, match=f"not read by preset {preset} ") as err:
        preset_config(preset, _nested(key, VALID[key]))
    assert repr(key) in str(err.value)


def test_an_unread_flag_or_config_file_key_is_exit_2(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"profile": {"uniform": 3.0}}))
    for how in (["--uniform", 3], ["--config", config]):
        argv = ["scenario", "--preset", "lte-otfs-nslp", *map(str, how), "--outdir", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'profile.uniform'" in err and "lte-otfs-nslp" in err
    argv = ["scenario", "--preset", "cep-convergence", "--frames", "64", "--outdir", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "'stream.num_frames'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_run_routes_each_key_to_the_presets_that_read_it(tmp_path):
    counts = {"stream": {"frame_counts": [1, 2]}}
    with pytest.raises(ConfigurationError, match=r"\['stream.frame_counts'\] are not read by any preset"):
        run_presets(["example1", "lte-ofdm"], tmp_path / "run", overrides=counts)
    assert not (tmp_path / "run").exists()
    order = {"filter": {"order": 7}}
    results = dict(run_presets(["example1", "lte-ofdm"], tmp_path / "run", overrides=order))
    assert results == {"example1": preset_config("example1", order).hash(),
                       "lte-ofdm": preset_config("lte-ofdm").hash()}


@pytest.mark.parametrize(
    "flags, first", [(["--preset", "example1"], "example1"), (["--all"], "cep-convergence")]
)
def test_a_preset_key_naming_another_preset_is_exit_2(tmp_path, capsys, flags, first):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"preset": "lte-ofdm"}))
    assert main(["scenario", *flags, "--config", str(config), "--outdir", str(tmp_path / "run")]) == 2
    assert f"names preset 'lte-ofdm', but preset '{first}' is run" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


#: Per preset: small overrides of keys it reads, so every run below is quick.
BASES = {
    "example1": {"psd": {"num_points": 8}},
    "example2": {"psd": {"num_points": 8}},
    "lte-ofdm": {"grid": {"num_doppler": 16}, "profile": {"budget": 9}, "psd": {"num_points": 8}},
    "lte-otfs-columns": {
        "grid": {"num_delay": 2, "num_doppler": 8}, "profile": {"budget": 9},
        "filter": {"kind": "truncated_sinc", "order": 2, "oversampling": 2},
        "stream": {"num_frames": 4}, "psd": {"num_points": 8},
    },
    "cep-split": {"grid": {"num_delay": 2, "num_doppler": 4}, "profile": {"budget": 4},
                  "filter": {"order": 2}, "stream": {"num_frames": 4}},
    "cep-convergence": {"grid": {"num_delay": 2, "num_doppler": 4}, "profile": {"budget": 4},
                        "filter": {"order": 2}, "stream": {"frame_counts": [2, 4]}},
    "lte-otfs-nslp": {"grid": {"num_delay": 2, "num_doppler": 8}, "stream": {"num_frames": 2}},
}
BASES["lte-otfs-rows"] = BASES["lte-otfs-columns"]

#: Valid values for each key: a run tries them in turn, skipping the base value.
OTHER = {
    "grid.num_delay": (4, 1), "grid.num_doppler": (16, 4, 64), "grid.sample_interval": (0.5, 1.0),
    "grid.sample_rate": (15.36e6, 2.0),
    "filter.kind": ("rect", "dirac_delta"), "filter.order": (3, 2), "filter.oversampling": (3, 1),
    "stream.num_frames": (6, 5), "stream.constellation": ("qam16", "qpsk"),
    "stream.frame_counts": ([2, 3], [1, 2]),
    "profile.uniform": (2.0,), "profile.columns": ([0, 1], [0]),
    "profile.pattern": ("head_tail_rows", "head_tail_columns"), "profile.budget": (3, 5),
    "profile.sigma2": ([[1.0]],),
    "psd.num_points": (16, 32), "psd.band": ([-0.1, 0.1], [-0.2, 0.2]), "psd.segment_frames": (2, 1),
    "mask.null_bins": ([1],), "mask.pass_bands_hz": ([[-5e6, 5e6]], [[-1e6, 1e6]]),
    "mask.path": ("mask.json",), "precoder.form": ("systematic", "null_space"),
}


def _artifacts(config, outdir) -> dict:
    """Every file a run writes but its manifest, with the config hash masked out."""
    run_scenario(config, outdir)
    return {
        path.name: path.read_bytes().replace(config.hash().encode(), b"HASH")
        for path in outdir.iterdir() if not path.name.endswith("_manifest.json")
    }


def test_every_key_a_preset_reads_changes_its_bytes_or_is_refused(tmp_path):
    """The first other value the rules accept changes some byte; a pair none is accepted for is refused."""
    refused = []
    for preset, base in BASES.items():
        config = preset_config(preset, base)
        before = _artifacts(config, tmp_path / preset)
        for key in SETTABLE:
            if not _in_read_set(PRESETS[preset].reads, key):
                continue
            section, _, name = key.partition(".")
            current = config.raw.get(section, {}).get(name)
            for value in (value for value in OTHER[key] if value != current):
                overrides = {**base, section: {**base.get(section, {}), name: value}}
                try:
                    after = _artifacts(preset_config(preset, overrides), tmp_path / f"{preset}-{key}-{value}")
                except ConfigurationError:
                    continue
                assert after != before, (preset, key, value)
                break
            else:
                refused.append((preset, key))
    untied = {key for _, key in refused} - TIED_BY_RULES
    assert not untied, refused


#: Keys the rules tie to others: one rate or interval, one profile source and
#: a pattern's budget on the grid, one mask source.
TIED_BY_RULES = {
    "grid.sample_interval", "grid.sample_rate", "grid.num_doppler", "profile.uniform", "profile.columns",
    "profile.pattern", "profile.budget", "profile.sigma2", "mask.null_bins", "mask.path",
}


def _tree(root) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_shared_flags_leave_the_presets_that_do_not_read_them_as_they_were(tmp_path, monkeypatch):
    """``--all --frames 64 --points 256``: cep-convergence reads neither and writes its no-flag bytes."""
    trees = []
    for name, flags in (("plain", []), ("flags", ["--frames", "64", "--points", "256"])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)  # one relative outdir, so the manifests' paths match
        assert main(["scenario", "--all", *flags, "--outdir", "run"]) == 0
        trees.append(_tree(tmp_path / name / "run"))
    plain, flags = trees
    assert plain.keys() == flags.keys()
    for name in sorted(PRESETS):
        reads = any(_in_read_set(PRESETS[name].reads, key) for key in ("stream.num_frames", "psd.num_points"))
        same = all(flags[path] == body for path, body in plain.items() if path.parts[0] == name)
        assert same != reads, name


# -- subcommands ----------------------------------------------------------------

_COMMON = {
    "seed": 1,
    "grid": {"num_delay": 2, "num_doppler": 4, "sample_interval": 1.0},
    "profile": {"uniform": 1.0},
}

#: Per subcommand: a small base config of keys it reads, and its flags besides
#: ``--config`` and ``--out`` (FILE stands for a file in the run's directory).
SUBCOMMANDS = {
    "generate": ({**_COMMON, "stream": {"num_frames": 2}}, []),
    "psd-analytic": (
        {**_COMMON, "filter": {"kind": "truncated_sinc", "order": 2}, "psd": {"num_points": 8}}, []
    ),
    "psd-estimate": (
        {**_COMMON, "filter": {"kind": "truncated_sinc", "order": 2, "oversampling": 2},
         "stream": {"num_frames": 4}},
        ["--reference", "REFERENCE", "--metrics-out", "FILE"],
    ),
    "precode": (
        {"seed": 1, "grid": _COMMON["grid"], "mask": {"pass_bands_hz": [[-0.3, 0.3]]}, "stream": {"num_frames": 2}},
        ["--stream-out", "FILE"],
    ),
}


def _subcommand_reads(command):
    return _reads(build_parser().parse_args([command, "--out", "x", *SUBCOMMANDS[command][1]]))


SUBCOMMAND_PAIRS = [(command, key) for command in SUBCOMMANDS for key in SETTABLE]
SUBCOMMAND_UNREAD = [pair for pair in SUBCOMMAND_PAIRS if not _in_read_set(_subcommand_reads(pair[0]), pair[1])]


def _subcommand_files(tmp_path, command, raw):
    """Exit code, and every file the run writes with the config hash masked out (None unless exit 0)."""
    outdir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    outdir.mkdir()
    config = outdir / "cfg.json"
    config.write_text(json.dumps(raw))
    reference = tmp_path / "reference.csv"
    if not reference.exists():
        base = ["--seed", "1", "--num-delay", "2", "--num-doppler", "4", "--sample-interval", "1", "--uniform", "1"]
        assert main(["psd-analytic", *base, "--band", "-1", "1", "--points", "64", "--out", str(reference)]) == 0
    flags = [
        str(reference) if flag == "REFERENCE" else str(outdir / f"{i}.out") if flag == "FILE" else flag
        for i, flag in enumerate(SUBCOMMANDS[command][1])
    ]
    code = main([command, "--config", str(config), "--out", str(outdir / "out"), *flags])
    if code != 0:
        return code, None
    return code, {
        path.name: re.sub(rb'config_hash(=|": ")[0-9a-f]+', b"HASH", path.read_bytes())
        for path in outdir.iterdir() if path.name != "cfg.json"
    }


def test_every_subcommand_read_set_names_keys_and_sections():
    sections = {key.name.rpartition(".")[0] for key in CONFIG_KEYS} - {""}
    for command in SUBCOMMANDS:
        for entry in _subcommand_reads(command):
            assert entry in sections or entry in SETTABLE, (command, entry)
    assert (len(SUBCOMMAND_PAIRS), len(SUBCOMMAND_UNREAD)) == (88, 38)


@pytest.mark.parametrize("command, key", SUBCOMMAND_UNREAD)
def test_an_unread_key_is_refused_naming_the_subcommand_the_key_and_the_read_set(
    tmp_path, capsys, command, key
):
    raw, _ = SUBCOMMANDS[command]
    section, _, name = key.partition(".")
    code, files = _subcommand_files(tmp_path, command, {**raw, section: {**raw.get(section, {}), name: VALID[key]}})
    assert code == 2 and files is None
    err = capsys.readouterr().err
    assert f"{key!r}] are not read by {command} ({command} reads grid.*, " in err


def test_every_key_a_subcommand_reads_changes_its_bytes_or_is_refused(tmp_path):
    refused = []
    for command, (raw, _) in SUBCOMMANDS.items():
        code, before = _subcommand_files(tmp_path, command, raw)
        assert code == 0, command
        for key in SETTABLE:
            if not _in_read_set(_subcommand_reads(command), key):
                continue
            section, _, name = key.partition(".")
            current = raw.get(section, {}).get(name)
            for value in (value for value in OTHER[key] if value != current):
                code, after = _subcommand_files(tmp_path, command, {**raw, section: {**raw.get(section, {}), name: value}})
                if code == 0:
                    assert after != before, (command, key, value)
                    break
            else:
                refused.append((command, key))
    untied = {key for _, key in refused} - TIED_BY_RULES
    assert not untied, refused


@pytest.mark.parametrize(
    "argv, key",
    [
        (["generate", "--filter", "rect", "--oversampling", "4", "--points", "77",
          "--precoder-form", "systematic"], "filter.kind"),
        (["psd-analytic", "--filter", "rect", "--oversampling", "2"], "filter.oversampling"),
        (["psd-estimate", "--band", "-0.5", "0.5"], "psd.band"),
        (["precode", "--mask-file", "mask.json", "--frames", "8"], "stream.num_frames"),
    ],
)
def test_an_unread_flag_is_exit_2_and_writes_nothing(tmp_path, capsys, argv, key):
    """``psd.band`` is read by psd-estimate only with --reference, stream keys by precode only with --stream-out."""
    base = ["--seed", "1", "--num-delay", "2", "--num-doppler", "4", "--sample-interval", "1"]
    base += [] if argv[0] == "precode" else ["--uniform", "1"]
    out = tmp_path / "out.csv"
    assert main([*argv, *base, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"not read by {argv[0]} ({argv[0]} reads " in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("output.directory", "/nonexistent/zzz"), ("preset", "lte-ofdm")])
@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_a_subcommand_refuses_the_keys_only_a_preset_reads(tmp_path, capsys, command, key, value):
    """Where a preset writes and which preset it is mean nothing to a subcommand."""
    raw, _ = SUBCOMMANDS[command]
    code, files = _subcommand_files(tmp_path, command, {**raw, **_nested(key, value)})
    assert code == 2 and files is None
    assert f"[{key!r}] are not read by {command} ({command} reads " in capsys.readouterr().err


# -- the one router, over mixes of given keys ------------------------------------

#: A value for every key: those any reader may read, ``seed`` and ``output.directory``,
#: which every reader and only the presets take, and a null ``preset``, which only the
#: presets take and which leaves each its own name.
ROUTED = {**VALID, "seed": 1, "output.directory": "out", "preset": None}


def _parsed(raw):
    """Stands in for ``ScenarioConfig.from_dict``, so that keys no schema accepts together still route."""
    return SimpleNamespace(raw=raw, preset=raw.get("preset"), profile=lambda: None, mask=lambda: None)


@settings(max_examples=150)
@given(
    run=st.one_of(
        st.lists(st.sampled_from(sorted(PRESETS)), min_size=1, max_size=3), st.sampled_from(sorted(SUBCOMMANDS))
    ),
    keys=st.sets(st.sampled_from(sorted(ROUTED))),
)
def test_each_reader_gets_its_defaults_and_exactly_the_given_keys_it_takes(run, keys):
    """A run of presets or one subcommand: the refused keys are those no reader takes, the rest go where read."""
    given = {}
    for key in sorted(keys):
        given = _deep_merge(given, _nested(key, ROUTED[key]))
    if isinstance(run, str):
        args = build_parser().parse_args([run, "--out", "x", *SUBCOMMANDS[run][1]])
        readers = [({} if run != "precode" else _PRECODE_DEFAULTS, _reads(args))]
    else:
        readers = [({**PRESETS[name].defaults, "preset": name}, PRESETS[name].reads + _RUN_KEYS) for name in run]

    def route():
        return [_load(args)] if isinstance(run, str) else _preset_configs(run, given)

    def takes(reads, key):
        return key == "seed" or key in reads or key.split(".")[0] in reads

    refused = [key for key in sorted(keys) if not any(takes(reads, key) for _, reads in readers)]
    with (
        mock.patch.object(ScenarioConfig, "from_dict", _parsed),
        mock.patch("otfspectrum.cli._read_config", lambda path: given),
    ):
        if refused:
            with pytest.raises(ConfigurationError, match=re.escape(f"config keys {refused} are not read by ")):
                route()
            return
        configs = route()
    for (defaults, reads), config in zip(readers, configs):
        share = {}
        for key in sorted(key for key in keys if takes(reads, key) and key != "preset"):
            share = _deep_merge(share, _nested(key, ROUTED[key]))
        assert config.raw == _deep_merge(defaults, share)
