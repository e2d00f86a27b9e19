"""Benchmark entry point: run one workload with one seed.

    python3 mcfrbench/run.py --workload track --seed 1 --seconds 15 --trace 0

Run from the root of the repository (or of a copy of its tree). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a fuller report (and, for --trace 1, the
spans) goes to .bench_out/. Scratch files go to .bench_tmp/, which is
removed before exit. Exits with 2, printing no result, when the library
sources are not in the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("track", "train-paper", "ingest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: mcfr/__init__ only calls
    # setdefault, so an inherited value would otherwise win.
    for var in ("MCFR_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    src = ROOT / "src"
    if not (src / "mcfr" / "__init__.py").is_file():
        print(f"mcfr sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mcfr

    if Path(mcfr.__file__).resolve().parent != (src / "mcfr").resolve():
        print(f"imported mcfr from {mcfr.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        result, report, tracer = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still has its directory there
            pass
    report["environment"] = harness.environment(ROOT)
    path = harness.write_report(ROOT / ".bench_out", result, report, tracer)
    print("# environment " + json.dumps(report["environment"]))
    if "tail" in report:
        print("# op_ms_tail is p%.1f of %d operations" % (
            report["tail"]["percentile"], report["tail"]["samples"]))
    print(f"# report {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
