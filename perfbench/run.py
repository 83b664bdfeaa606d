"""Scenario benchmark for otfspectrum.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs fresh worker processes (``worker.py``), one scenario each, for about S
seconds, checks every sample's written files (``workloads.check``) and
prints a readable summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end medians; with ``--trace 1`` untraced and traced
samples alternate and the metrics are the per-layer ones from the traced
samples, plus the tracing overhead.

    python3 perfbench/run.py --workload all [--out FILE]   # every workload, both kinds
    python3 perfbench/run.py --self-test                   # the check catches bad output
    python3 perfbench/run.py --record-reference            # re-pin reference.npz

The package is imported from ``src/`` of the checkout that holds this
file; everything the benchmark writes goes under ``.perfbench_tmp/`` there
and is removed before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
NPROC = len(os.sched_getaffinity(0))

# Metric names and units are declared once, in BENCHMARK.json.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

MIN_SAMPLES = 4
MIN_TRACED_RUN_SAMPLES = 4  # two untraced, two traced
SAMPLE_TIMEOUT_S = 150


# -- samples ------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)
    env["TMPDIR"] = str(SCRATCH)
    return env


def run_sample(workload: str, seed: int, traced: bool, outdir: Path) -> dict:
    """Run one worker process into ``outdir``; the sample dict or ``{"error": ...}``."""
    command = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), str(outdir)]
    command += ["1" if traced else "0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, env=_child_env(), cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker still running after {SAMPLE_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.splitlines()[-1])


def run_and_check(workload: str, seed: int, traced: bool, reference: Optional[dict], outdir: Path) -> dict:
    """One sample plus ``"problems"``: why it failed, empty when it passed its check."""
    sample = run_sample(workload, seed, traced, outdir)
    if "error" in sample:
        sample["problems"] = [sample.pop("error")]
    else:
        sample["problems"] = workloads.check(workload, outdir, seed, reference)
    sample["traced"] = traced
    return sample


def checked_sample(workload: str, seed: int, traced: bool, reference: dict) -> dict:
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    try:
        return run_and_check(workload, seed, traced, reference, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> List[dict]:
    """Samples for about ``seconds``; with ``trace`` untraced and traced ones alternate."""
    samples: List[dict] = []
    durations: List[float] = []
    start = time.monotonic()
    least = MIN_TRACED_RUN_SAMPLES if trace else MIN_SAMPLES
    while True:
        began = time.monotonic()
        samples.append(checked_sample(workload, seed, trace and len(samples) % 2 == 1, reference))
        durations.append(time.monotonic() - began)
        # Start another sample only if it is expected to end within the budget.
        if len(samples) >= least and time.monotonic() - start + statistics.median(durations) > seconds:
            return samples


# -- statistics and reports ---------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(samples: List[dict]) -> Dict[str, dict]:
    good = [s for s in samples if not s["problems"] and not s["traced"]]
    return {
        name: {
            "value": _median([s[name] for s in good]),
            "max": max((s[name] for s in good), default=float("nan")),
            "unit": unit,
            "n": len(good),
        }
        for name, unit in END_TO_END.items()
    }


def per_layer(samples: List[dict]) -> Dict[str, dict]:
    traced = [s for s in samples if not s["problems"] and s["traced"]]
    plain = [s for s in samples if not s["problems"] and not s["traced"]]
    overhead = _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain])
    rows = [{**layer_metrics(s["spans"], s["wall_s"]), "trace.overhead_s": overhead} for s in traced]
    return {
        name: {"value": _median([row[name] for row in rows]), "unit": unit, "n": len(rows)}
        for name, unit in PER_LAYER.items()
    }


def environment() -> Dict[str, object]:
    """Where the numbers were measured: machine, interpreter, libraries, commit."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    from importlib.metadata import version

    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": NPROC,
        "commit": commit,
    }


def _print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, m in metrics.items():
        extra = f"  max {m['max']:.6g}" if "max" in m else ""
        print(f"{workload:14s} {name:34s} median {m['value']:.6g} {m['unit']}{extra}  n={m['n']}")


def _print_errors(workload: str, samples: List[dict]) -> None:
    failed = [s for s in samples if s["problems"]]
    rate = len(failed) / len(samples)
    print(f"{workload:14s} {'error_rate':34s} {rate:.6g} ratio  ({len(failed)} of {len(samples)} samples)")
    for sample in failed:
        for problem in sample["problems"]:
            print(f"{workload:14s}   problem: {problem}", file=sys.stderr)


# -- modes ----------------------------------------------------------------------


def run_one(args: argparse.Namespace, reference: dict) -> int:
    samples = measure(args.workload, args.seed, args.seconds, args.trace == 1, reference)
    report = per_layer(samples) if args.trace == 1 else end_to_end(samples)
    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    _print_metrics(args.workload, report)
    _print_errors(args.workload, samples)
    if any(m["n"] == 0 for m in report.values()):
        print("no sample passed its check; nothing to report", file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if s["problems"])
    if args.out:
        record = {"env": env, "seed": args.seed, "seconds": args.seconds, "attempted": len(samples)}
        _write_out(args.out, {**record, "failed": failed, args.workload: report})
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in report.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, reference: dict) -> int:
    record: Dict[str, object] = {"env": environment(), "seed": args.seed, "seconds": args.seconds}
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    failed = 0
    for workload in workloads.WORKLOADS:
        samples = measure(workload, args.seed, args.seconds, True, reference)
        e2e, layers = end_to_end(samples), per_layer(samples)
        _print_metrics(workload, e2e)
        _print_errors(workload, samples)
        _print_metrics(workload, layers)
        errors = sum(1 for s in samples if s["problems"])
        e2e["error_rate"] = {"value": errors / len(samples), "unit": "ratio", "n": len(samples)}
        record[workload] = {"end_to_end": e2e, "per_layer": layers}
        failed += errors
    if args.out:
        _write_out(args.out, record)
    return 0 if failed == 0 else 1


def _write_out(path: str, record: dict) -> None:
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def record_reference() -> int:
    arrays: Dict[str, np.ndarray] = {}
    for workload in workloads.WORKLOADS:
        outdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
        try:
            problems = run_and_check(workload, workloads.DEFAULT_SEED, False, None, outdir)["problems"]
            if problems:
                print(f"{workload}: {problems}", file=sys.stderr)
                return 1
            arrays.update(workloads.reference_curves(workload, outdir))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    np.savez_compressed(workloads.REFERENCE_PATH, **arrays)
    print(f"wrote {len(arrays) // 2} curves to {workloads.REFERENCE_PATH.name}")
    return 0


# -- self-test: each kind of bad output must be caught -----------------------


def _edit_json(path: Path, edit: Callable[[object], None]) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _set_metric(name: str, value: float) -> Callable[[Path], None]:
    def mutate(outdir: Path) -> None:
        path = next(outdir.glob("*_metrics.json"))
        _edit_json(path, lambda records: [r.update(value=value) for r in records if r["metric"] == name])

    return mutate


def _edit_curve(pattern: str, edit: Callable[[np.ndarray], np.ndarray]) -> Callable[[Path], None]:
    def mutate(outdir: Path) -> None:
        path = next(outdir.glob(pattern))
        lines = path.read_text().splitlines()
        header = lines[: lines.index("freq_hz,psd_value") + 1]
        _, freqs, values = workloads.read_curve(path)
        rows = [f"{f!r},{v!r}" for f, v in zip(freqs.tolist(), edit(values.copy()).tolist())]
        path.write_text("\n".join(header + rows) + "\n")

    return mutate


def _bump_peak(values: np.ndarray) -> np.ndarray:
    values[values.argmax()] *= 1 + 1e-8
    return values


def _raise_null_bin(values: np.ndarray) -> np.ndarray:
    values[values.argmin()] = values.max()
    return values


def _set_report(key: str, value: object) -> Callable[[Path], None]:
    return lambda outdir: _edit_json(outdir / "lte_ofdm_bandwidth.json", lambda r: r.update({key: value}))


DEFAULT_SEED, OTHER_SEED = workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1
_NOISE = lambda v: v * (1 + 0.5 * np.cos(np.arange(v.size)))  # noqa: E731

# (workload, what is broken, mutation, seed the check is told, text the problem must hold).
# OTHER_SEED leaves only the any-seed checks and the seed-free reference curves.
MUTATIONS = [
    ("sinc-estimate", "estimate off by 1e-8", _edit_curve("*_estimated.csv", _bump_peak), DEFAULT_SEED, "reference"),
    ("sinc-estimate", "analytic off by 1e-8", _edit_curve("*_analytic.csv", _bump_peak), OTHER_SEED, "reference"),
    ("sinc-estimate", "written nmse_db wrong", _set_metric("nmse_db", -20.0), OTHER_SEED, "written nmse_db"),
    ("sinc-estimate", "flat estimate", _edit_curve("*_estimated.csv", lambda v: np.full_like(v, v.mean())),
     OTHER_SEED, "NMSE"),
    ("rect-stream", "estimate off by 1e-8", _edit_curve("*_estimated.csv", _bump_peak), DEFAULT_SEED, "reference"),
    ("rect-stream", "written cosine wrong", _set_metric("cosine_similarity", 0.5), OTHER_SEED, "written cosine"),
    ("rect-stream", "noisy estimate", _edit_curve("*_estimated.csv", _NOISE), OTHER_SEED, "NMSE"),
    ("analytic-lte", "PSD off by 1e-8", _edit_curve("lte_ofdm_psd.csv", _bump_peak), OTHER_SEED, "reference"),
    ("analytic-lte", "occupied subcarriers wrong", _set_report("occupied_subcarriers", 1200), OTHER_SEED,
     "occupied_subcarriers"),
    ("analytic-lte", "bandwidth written as int", _set_report("occupied_bandwidth_hz", 18015000), OTHER_SEED,
     "occupied_bandwidth_hz"),
    ("nslp-precode", "PSD off by 1e-8", _edit_curve("lte_nslp_psd.csv", _bump_peak), DEFAULT_SEED, "reference"),
    ("nslp-precode", "masked bin carries power", _edit_curve("lte_nslp_psd.csv", _raise_null_bin), OTHER_SEED,
     "recomputed suppression"),
    ("nslp-precode", "leak above 1e-9", _set_metric("worst_null_bin_leak", 1e-6), OTHER_SEED, "leak"),
    ("nslp-precode", "payload dimensions wrong", _set_metric("payload_dimensions", 19199.0), OTHER_SEED,
     "payload_dimensions"),
    ("nslp-precode", "suppression below 40 dB", _set_metric("suppression_db", 30.0), OTHER_SEED,
     "written suppression"),
]


def self_test(reference: dict) -> int:
    """Each workload's clean output passes; each mutation of it fails the intended check."""
    failures = 0
    for workload in workloads.WORKLOADS:
        clean = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
        try:
            problems = run_and_check(workload, DEFAULT_SEED, False, reference, clean)["problems"]
            print(f"{'ok ' if not problems else 'BAD'} {workload}: clean output passes {problems or ''}")
            failures += bool(problems)
            for target, what, mutate, seed, expected in MUTATIONS:
                if target != workload:
                    continue
                broken = SCRATCH / f"{workload}-broken"
                shutil.copytree(clean, broken)
                try:
                    mutate(broken)
                    caught = [p for p in workloads.check(workload, broken, seed, reference) if expected in p]
                finally:
                    shutil.rmtree(broken, ignore_errors=True)
                print(f"{'ok ' if caught else 'BAD'} {workload}: {what} -> {caught[:1]}")
                failures += not caught
        finally:
            shutil.rmtree(clean, ignore_errors=True)
    print("self-test passed" if failures == 0 else f"self-test: {failures} failures")
    return 0 if failures == 0 else 1


# -- entry point ----------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record, environment included, to this JSON file")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.record_reference):
        parser.error("give --workload, --self-test or --record-reference")

    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "otfspectrum" / "__init__.py").is_file():
        print(f"no otfspectrum sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    try:
        if args.record_reference:
            return record_reference()
        reference = workloads.load_reference()
        if args.self_test:
            return self_test(reference)
        if args.workload == "all":
            return run_all(args, reference)
        return run_one(args, reference)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
