"""Benchmark driver: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload forced-duhamel --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``./src``.
Each workload runs in its own process (``worker.py``) with BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` the result carries the
end-to-end metrics, and ``setup_s`` is the median over three fresh
processes; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Every metric is also printed by name with its unit,
and the full record (metrics, environment, failures) is written to
``perfbench/out/result-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("forced-duhamel", "homogeneous-sweep", "cli-batch")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def environment(seed: int) -> dict:
    root = os.getcwd()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "factored_evolution")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    # git must not look above the checkout, which need not be a repository
    commit = _output(["git", "rev-parse", "HEAD"], GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    l3 = _output(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_pin": PIN,
        "l3_cache_bytes": l3 or "unknown",
        "git_commit": commit or "none",
        "src_sha256": digest.hexdigest(),
    }


def _output(command, **env) -> str:
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=10,
                              env={**os.environ, **env})
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def child(args, env, setup_only: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    done = subprocess.run(
        command + ["--spawn-time", repr(spawned)], env=env, stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "factored_evolution", "__init__.py")):
        print("error: run from the repository root; ./src/factored_evolution is missing",
              file=sys.stderr)
        return 2
    env = {**os.environ, **PIN, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)

    try:
        setups = [] if args.trace else [child(args, env, True) for _ in range(SETUP_SAMPLES - 1)]
        result = child(args, env, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, **environment(args.seed),
              "numpy": result["numpy"], "scipy": result["scipy"]}
    print("# env " + json.dumps(record))
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in units.items()}
    else:
        result["setup_s"] = statistics.median(r["setup_s"] for r in setups + [result])
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        wall = result["wall"]
        print(f"# {args.workload}: {result['ops']} ops in {result['passes']} passes; "
              f"tail is p{result['tail_percentile']:.1f}; median kernel time "
              f"{statistics.median(result['kernel_ms']):.3f} ms; unscaled wall times: "
              f"{wall['ops_per_s']:.4g} ops/s, p50 {wall['op_ms_p50']:.4g} ms, tail {wall['op_ms_tail']:.4g} ms")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_frac':36s} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    for message in result["failures"] + result["errors"]:
        print(f"# FAIL {message}")

    correct = failed == 0 and not result["errors"]
    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({**out, "environment": record, "failures": result["failures"],
                   "errors": result["errors"], "raw": result}, handle, indent=1)
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
