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
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from . import io as fileio
from .errors import ConfigurationError, SystematicInfeasibleError
from .estimate import compare_curves
from .precoding import build_precoders
from .presets import (
    CONFIG_KEYS,
    PRESETS,
    PRESET_NAMES,
    ScenarioConfig,
    _deep_merge,
    _read_config,
    estimated_psd,
    load_config,
    precoded_stream,
    preset_config,
    run_presets,
    run_scenario,
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


def _load(args: argparse.Namespace) -> ScenarioConfig:
    return load_config(args.config, _overrides(args))


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
    config = _load(args)
    profile = config.profile()
    filt = config.interpolation_filter()
    freqs = config.freq_grid()
    if args.waveform == "otfs":
        curve = otfs_psd(profile, config.sample_interval, filt, freqs)
    elif args.waveform == "ofdm":
        curve = ofdm_psd(profile, config.sample_interval, filt, freqs)
    else:
        if not 0 <= args.delay_index < profile.num_delay:
            raise ConfigurationError(
                f"--delay-index must be in [0, {profile.num_delay}), got {args.delay_index}"
            )
        curve = cep_ofdm_psd(profile, args.delay_index, config.sample_interval, filt, freqs)
    path = fileio.write_psd_curve(args.out, curve, {"config_hash": config.hash()})
    print(f"wrote {args.waveform} analytic PSD ({freqs.size} points) to {path}")
    return 0


def _cmd_psd_estimate(args: argparse.Namespace) -> int:
    config = _load(args)
    # Read and compare the reference before writing, so a bad one leaves no --out file.
    reference = fileio.read_psd_curve(args.reference) if args.reference else None
    curve = estimated_psd(*config.estimate_args())
    metrics = compare_curves(curve, reference, band=config.band) if reference is not None else None
    path = fileio.write_psd_curve(args.out, curve, {"config_hash": config.hash()})
    print(f"wrote averaged periodogram ({curve.freqs.size} bins) to {path}")
    if metrics is not None:
        records = [
            {"metric": k, "value": v, "config_hash": config.hash()}
            for k, v in sorted(metrics.items())
        ]
        if args.metrics_out:
            fileio.write_metrics(args.metrics_out, records)
            print(f"wrote comparison metrics to {args.metrics_out}")
        else:
            print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_precode(args: argparse.Namespace) -> int:
    config = _load(args)
    mask = config.mask()
    if mask is None:
        raise ConfigurationError("precode needs a mask (config 'mask' section or --mask-file)")
    precoders = build_precoders(mask, config.precoder_form)
    path = fileio.write_precoder_set(args.out, precoders, {"config_hash": config.hash()})
    sizes = ",".join(str(s) for s in precoders.payload_sizes)
    print(
        f"wrote {len(precoders.matrices)} {config.precoder_form} precoders "
        f"(payload sizes {sizes}) to {path}"
    )
    if args.stream_out:
        stream, _ = precoded_stream(
            precoders,
            config.num_frames,
            config.seed,
            config.sample_interval,
            config.constellation,
        )
        fileio.write_frame_stream(args.stream_out, stream, {"config_hash": config.hash()})
        print(f"wrote {stream.num_frames} precoded frames to {args.stream_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    estimated = fileio.read_psd_curve(args.estimated)
    reference = fileio.read_psd_curve(args.reference)
    band = None if args.band is None else (args.band[0], args.band[1])
    metrics = compare_curves(estimated, reference, band=band)
    if args.out:
        run_hash = fileio.config_hash(
            {
                "estimated": Path(args.estimated).name,
                "reference": Path(args.reference).name,
                "band": band,
            }
        )
        records = [
            {"metric": k, "value": v, "config_hash": run_hash}
            for k, v in sorted(metrics.items())
        ]
        fileio.write_metrics(args.out, records)
        print(f"wrote comparison metrics to {args.out}")
    else:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        for name in PRESET_NAMES:
            print(f"{name:18s} {PRESETS[name].description}")
        return 0
    merged = _deep_merge(_read_config(args.config), _overrides(args))
    if args.all:
        names = list(PRESET_NAMES)
    elif args.preset:
        names = list(args.preset)
    else:
        raise ConfigurationError("scenario needs --preset NAME (repeatable) or --all")
    if len(names) == 1 and not args.all:
        manifest = run_scenario(preset_config(names[0], merged), args.outdir)
        for label, path in sorted(manifest["files"].items()):
            print(f"{label}: {path}")
        return 0
    results = run_presets(names, args.outdir, jobs=args.jobs, overrides=merged)
    for name, cfg_hash in results:
        print(f"{name}: config {cfg_hash} -> {Path(args.outdir) / name}")
    return 0


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
    p.add_argument("--delay-index", type=int, default=0, help="CEP component index")
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
    p.add_argument("--outdir", default="otfspectrum-out", metavar="DIR")
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
    except (ConfigurationError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
