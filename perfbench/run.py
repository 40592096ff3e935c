"""Benchmark launcher for eigsmooth.

Run from the root of a checkout:

    python3 perfbench/run.py --workload box_lanczos --seed 1 --seconds 20 --trace 0

It pins the BLAS thread count, starts worker.py in fresh processes, and
prints as its last stdout line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Metric names and units come from
BENCHMARK.json: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1. The line before it holds the run's environment and the
informational baseline_s / work_s ratio. A full record (checks, round
times, spans of a traced run) is written to perfbench/out/.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: the host has two cores shared with other work, and a
# single thread keeps reductions, hence the traced-vs-untraced bit-identity
# check, independent of scheduling.
BLAS_THREADS = 1
# setup_s is the median of this many fresh processes plus the measuring one.
SETUP_PROBES = 6
# Every child must finish inside this many seconds of the launcher's start.
DEADLINE_S = 170.0


def source_digest():
    """SHA-256 over the library sources, identifying the code measured
    where no git metadata is available."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eigsmooth").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eigsmooth" / "__init__.py").is_file():
        print(f"perfbench: no eigsmooth package under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    started = time.monotonic()

    def worker(*extra):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
        remaining = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    setups = []
    if args.trace == 0:
        setups = [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    record = worker("--seconds", str(args.seconds), "--trace", str(args.trace))
    values = record["metrics"]
    if args.trace == 0:
        setups.append(values["setup_s"])
        values["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"perfbench: worker metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    info = dict(record.pop("env"), commit=git_commit(), src_sha256=source_digest(),
                workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.trace == 0 and args.workload != "phase_mc":
        info["baseline_over_work"] = values["baseline_s"] / values["work_s"]
    record.update(info=info, setup_samples=setups, result=result)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
