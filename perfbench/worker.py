"""One benchmark sample, run in a fresh process by ``run.py``.

Usage: worker.py ROOT WORKLOAD SEED OUTDIR TRACE SPAWNED_AT

Imports the package from ROOT/src, builds the workload's config, runs the
scenario into OUTDIR and prints one JSON line with the sample's timings.
SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is system-wide on Linux, so the difference
measures set-up from process start.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    root, workload, seed, outdir, trace, spawned_at = sys.argv[1:7]
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import otfspectrum
    from otfspectrum import presets

    from workloads import WORKLOADS, overrides

    config = presets.preset_config(WORKLOADS[workload][0], overrides(workload, int(seed)))
    setup_s = time.monotonic() - float(spawned_at)
    if not Path(otfspectrum.__file__).resolve().is_relative_to(src.resolve()):
        print(f"otfspectrum was imported from {otfspectrum.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    presets.run_scenario(config, outdir)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux

    sample = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        sample["spans"] = tracer.spans
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
