"""Command-line front end.

Exit codes: 0 on success, 2 for configuration/usage problems (including
bad config files and I/O failures), 3 when a systematic precoder is
infeasible for the requested mask.

Every run is driven by an explicit integer seed from the config file or
``--seed`` flag; nothing is seeded from the wall clock, so a command line
rerun reproduces its outputs exactly.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from . import __version__
from . import io as fileio
from .config import CONFIG_KEYS, ScenarioConfig, _deep_merge, _read_config, _routed_configs
from .errors import ConfigurationError, SystematicInfeasibleError
from .estimate import compare_curves
from .precoding import build_precoders
from .presets import (
    PRESETS, PRESET_NAMES, estimated_psd, precoded_stream, preset_config, run_presets, run_scenario,
)
from .psd import cep_ofdm_psd, ofdm_psd, otfs_psd
from .waveform import generate_random_stream


def _config_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that override keys of the JSON config file, one per ``CONFIG_KEYS`` row with a flag.

    An override flag's ``dest`` is the key it sets, ``section.key`` (or
    ``seed`` at the top level); ``_overrides`` reads them back.
    """
    parser.add_argument("--config", metavar="FILE", help="JSON scenario configuration")
    group = parser.add_argument_group("config overrides")
    for key in CONFIG_KEYS:
        if key.flag:
            flag, kwargs = key.flag
            group.add_argument(flag, dest=key.name, **kwargs)


def _overrides(args: argparse.Namespace) -> dict:
    out: dict = {} if args.seed is None else {"seed": args.seed}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            out.setdefault(section, {})[key] = value
    return out


def _reads(args: argparse.Namespace) -> Tuple[str, ...]:
    """The config keys and whole sections ``args.command`` reads, given its own flags.

    Each shapes what the command writes; ``_load`` refuses any other given
    key but ``seed``, through the router the presets' runs go through.
    """
    if args.command == "generate":
        return ("grid", "profile", "stream.num_frames", "stream.constellation")
    if args.command == "psd-analytic":
        return ("grid", "profile", "filter.kind", "filter.order", "psd.num_points", "psd.band")
    if args.command == "psd-estimate":
        band = ("psd.band",) if args.reference else ()
        return ("grid", "profile", "filter", "stream.num_frames", "stream.constellation",
                "psd.segment_frames", *band)
    stream = ("stream.num_frames", "stream.constellation") if args.stream_out else ()
    return ("grid", "mask", "precoder.form", *stream)


#: Every config names a profile; precoding ignores it, so precode brings its own.
_PRECODE_DEFAULTS = {"profile": {"uniform": 1.0}}


def _load(args: argparse.Namespace) -> ScenarioConfig:
    """The config file with the flags on top, routed to ``args.command`` as the one reader."""
    defaults = _PRECODE_DEFAULTS if args.command == "precode" else {}
    given = _deep_merge(_read_config(args.config), _overrides(args))
    (config,) = _routed_configs(given, [(args.command, defaults, _reads(args))], args.command)
    return config


def _metrics_output(metrics: dict, out: Optional[str], cfg_hash: str) -> str:
    """Write ``metrics`` as records to ``out`` and say so, or give them as one JSON object when there is none."""
    if out:
        fileio.write_metrics(out, fileio.metric_records(sorted(metrics.items()), cfg_hash))
        return f"wrote comparison metrics to {out}\n"
    return fileio.json_text(metrics)


@contextmanager
def _written_together() -> Iterator[Callable[[Path], Path]]:
    """``keep(path)`` for each file a command has written: if the command then fails, each kept file is removed.

    So a command that writes two files leaves both or neither.
    """
    written: List[Path] = []

    def keep(path: Path) -> Path:
        written.append(path)
        return path

    try:
        yield keep
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _load(args)
    stream = generate_random_stream(
        config.profile(),
        config.num_frames,
        config.seed,
        config.sample_interval,
        config.constellation,
    )
    path = fileio.write_frame_stream(args.out, stream, {"config_hash": config.hash()})
    print(f"wrote {stream.num_frames} frames ({stream.samples_per_frame} samples each) to {path}")
    return 0


def _cmd_psd_analytic(args: argparse.Namespace) -> int:
    if args.delay_index is not None and args.waveform != "cep-ofdm":
        raise ConfigurationError(f"--delay-index is only read with --waveform cep-ofdm, not {args.waveform}")
    config = _load(args)
    profile = config.profile()
    filt = config.interpolation_filter()
    freqs = config.freq_grid()
    if args.waveform == "otfs":
        curve = otfs_psd(profile, config.sample_interval, filt, freqs)
    elif args.waveform == "ofdm":
        curve = ofdm_psd(profile, config.sample_interval, filt, freqs)
    else:
        index = args.delay_index or 0
        if not 0 <= index < profile.num_delay:
            raise ConfigurationError(f"--delay-index must be in [0, {profile.num_delay}), got {index}")
        curve = cep_ofdm_psd(profile, index, config.sample_interval, filt, freqs)
    path = fileio.write_psd_curve(args.out, curve, {"config_hash": config.hash()})
    print(f"wrote {args.waveform} analytic PSD ({freqs.size} points) to {path}")
    return 0


def _cmd_psd_estimate(args: argparse.Namespace) -> int:
    if args.metrics_out and not args.reference:
        raise ConfigurationError("--metrics-out needs --reference: the metrics compare against it")
    config = _load(args)
    # Read and compare the reference before writing, so a bad one leaves no --out file.
    reference = fileio.read_psd_curve(args.reference) if args.reference else None
    curve = estimated_psd(*config.estimate_args())
    metrics = compare_curves(curve, reference, band=config.band) if reference is not None else None
    with _written_together() as keep:
        path = keep(fileio.write_psd_curve(args.out, curve, {"config_hash": config.hash()}))
        said = "" if metrics is None else _metrics_output(metrics, args.metrics_out, config.hash())
    print(f"wrote averaged periodogram ({curve.freqs.size} bins) to {path}")
    print(said, end="")
    return 0


def _cmd_precode(args: argparse.Namespace) -> int:
    config = _load(args)
    mask = config.mask()
    if mask is None:
        raise ConfigurationError("precode needs a mask (config 'mask' section or --mask-file)")
    precoders = build_precoders(mask, config.precoder_form)
    # The stream first: a stream the precoders cannot make is refused before any file is written.
    stream_args = (config.num_frames, config.seed, config.sample_interval, config.constellation)
    stream = precoded_stream(precoders, *stream_args)[0] if args.stream_out else None
    with _written_together() as keep:
        path = keep(fileio.write_precoder_set(args.out, precoders, {"config_hash": config.hash()}))
        if stream is not None:
            fileio.write_frame_stream(args.stream_out, stream, {"config_hash": config.hash()})
    sizes = ",".join(str(s) for s in precoders.payload_sizes)
    print(f"wrote {len(precoders.matrices)} {config.precoder_form} precoders (payload sizes {sizes}) to {path}")
    if stream is not None:
        print(f"wrote {stream.num_frames} precoded frames to {args.stream_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    estimated = fileio.read_psd_curve(args.estimated)
    reference = fileio.read_psd_curve(args.reference)
    band = None if args.band is None else (args.band[0], args.band[1])
    metrics = compare_curves(estimated, reference, band=band)
    run_hash = fileio.config_hash(
        {"estimated": Path(args.estimated).name, "reference": Path(args.reference).name, "band": band}
    )
    print(_metrics_output(metrics, args.out, run_hash), end="")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        for name in PRESET_NAMES:
            print(f"{name:18s} {PRESETS[name].description}")
        return 0
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be an integer >= 1, got {args.jobs}")
    merged = _deep_merge(_read_config(args.config), _overrides(args))
    if args.all:
        names = list(PRESET_NAMES)
    elif args.preset:
        names = list(args.preset)
    else:
        raise ConfigurationError("scenario needs --preset NAME (repeatable) or --all")
    outdir = _output_root(args.outdir, merged)
    if len(names) == 1 and not args.all:
        manifest = run_scenario(preset_config(names[0], merged), outdir)
        for label, path in sorted(manifest["files"].items()):
            print(f"{label}: {path}")
        return 0
    results = run_presets(names, outdir, jobs=args.jobs, overrides=merged)
    for name, cfg_hash in results:
        print(f"{name}: config {cfg_hash} -> {Path(outdir) / name}")
    return 0


def _output_root(flag: Optional[str], merged: dict) -> str:
    """``--outdir``, else the config's ``output.directory``, else that key's default."""
    if flag is not None:
        return flag
    (key,) = [key for key in CONFIG_KEYS if key.name == "output.directory"]
    output = merged.get("output")
    directory = output.get("directory") if isinstance(output, dict) else None
    if directory is None:
        return key.default
    problems = fileio.rule_problem(key.name, key.rule, directory)
    if problems:
        raise ConfigurationError(problems[0])
    return directory


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfspectrum",
        description="OTFS/OFDM spectrum engineering: waveforms, PSDs, and precoding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("generate", help="write a random OTFS frame stream to CSV")
    _config_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("psd-analytic", help="write a closed-form PSD curve to CSV")
    _config_flags(p)
    p.add_argument("--waveform", choices=("otfs", "ofdm", "cep-ofdm"), default="otfs")
    p.add_argument("--delay-index", type=int, help="CEP component index")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_psd_analytic)

    p = sub.add_parser("psd-estimate", help="write an averaged-periodogram PSD to CSV")
    _config_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--reference", metavar="FILE", help="analytic curve to compare against")
    p.add_argument("--metrics-out", metavar="FILE", help="write comparison metrics as JSON")
    p.set_defaults(func=_cmd_psd_estimate)

    p = sub.add_parser("precode", help="build per-subcarrier precoders for a spectrum mask")
    _config_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--stream-out", metavar="FILE", help="also write a precoded random stream")
    p.set_defaults(func=_cmd_precode)

    p = sub.add_parser("compare", help="NMSE and cosine similarity between two PSD CSV files")
    p.add_argument("--estimated", required=True, metavar="FILE")
    p.add_argument("--reference", required=True, metavar="FILE")
    p.add_argument("--band", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", metavar="FILE", help="write metrics JSON instead of stdout")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("scenario", help="run a named end-to-end preset")
    _config_flags(p)
    p.add_argument("--preset", action="append", metavar="NAME", help="preset name (repeatable)")
    p.add_argument("--all", action="store_true", help="run every preset")
    p.add_argument("--list", action="store_true", help="list presets and exit")
    p.add_argument("--outdir", metavar="DIR")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes for batches")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystematicInfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ConfigurationError, OSError, ValueError, MemoryError) as err:  # MemoryError: a grid too large to hold
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
