"""One workload process: set up, run timed passes, referee, report.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  The caller is
a closed loop: one op runs only after the previous one returned.  The last
line of standard output is one JSON object for ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --spawn-time T [--setup-only]

``--spawn-time`` is the caller's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports,
input generation and one untimed warm-up op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import factored_evolution as fe  # noqa: E402

if not os.path.abspath(fe.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise SystemExit(f"factored_evolution was imported from {fe.__file__}, not from ./src")

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import OUTER_LAYER, OUTER_NAME, Tracer  # noqa: E402

TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 0.2
SETUP_KERNEL_RUNS = 5
LAYERS = ("harness", "equation", "confluent", "operators", "statespace", "solver", "cli")

# per-op counts: metric name -> counter key recorded by the tracer
COUNTS = {
    "equation.gate_runs": "equation.gate",
    "equation.forcing_evals": "equation.forcing",
    "operators.semigroup_calls": "operators.semigroup",
    "operators.apply_calls": "operators.apply",
    "confluent.coeff_solves": "confluent.solve_coefficients",
    "confluent.weight_solves": "confluent.solve_z_vector",
    "confluent.weight_applies": "confluent.weight_apply",
    "statespace.lu_factors": "statespace.lu_factor",
    "statespace.expm_calls": "statespace.expm_apply",
    "statespace.rk4_steps": "statespace.rk4_steps",
    "statespace.quad_nodes_coarse": "statespace.quad_nodes_coarse",
    "statespace.quad_nodes_doubled": "statespace.quad_nodes_doubled",
    "cli.csv_bytes": "cli.csv_bytes",
}

# seconds per op: metric name -> (span names, "incl" or "self")
TIMES = {
    "solver.duhamel_self_s": (("solver.solve_inhomogeneous_zero_ic",), "self"),
    "solver.homogeneous_self_s": (("solver.solve_homogeneous",), "self"),
    "solver.derivative_check_s": (("solver.initial_derivative_defect",), "incl"),
    "solver.lemma2_s": (("solver.lemma2_lhs", "solver.lemma2_rhs"), "incl"),
    "operators.semigroup_s": (("operators.semigroup",), "incl"),
    "operators.apply_s": (("operators.apply",), "incl"),
    "confluent.coeff_s": (("confluent.solve_coefficients",), "incl"),
    "confluent.weight_s": (("confluent.solve_z_vector",), "incl"),
    "confluent.weight_apply_s": (("confluent.weight_apply",), "incl"),
    "equation.gate_s": (("equation.gate",), "incl"),
    "equation.forcing_s": (("equation.forcing",), "incl"),
    "equation.oracle_s": (("equation.oracle_solve",), "incl"),
    "statespace.lu_s": (("statespace.lu_factor",), "incl"),
    "statespace.expm_s": (("statespace.expm_apply",), "incl"),
    "statespace.rk4_s": (("statespace.rk4_integrate",), "incl"),
    "cli.parse_s": (("cli.parse_config",), "incl"),
    "cli.materialize_s": (("cli.materialize",), "incl"),
    "cli.csv_s": (("cli.write_csv",), "incl"),
}

# share of op time spent inside these spans (children included)
SHARES = {
    "solver.duhamel_share": "solver.solve_inhomogeneous_zero_ic",
    "statespace.rk4_share": "statespace.rk4_integrate",
    "cli.csv_share": "cli.write_csv",
}

PROBE_COUNTS = {
    "probe.gate_runs": "equation.gate",
    "probe.lu_factors": "statespace.lu_factor",
    "probe.quad_nodes_coarse": "statespace.quad_nodes_coarse",
    "probe.quad_nodes_doubled": "statespace.quad_nodes_doubled",
    "probe.forcing_evals": "equation.forcing",
    "probe.semigroup_calls": "operators.semigroup",
}


class Passes:
    """Timed ops of whole passes plus the first output of every key."""

    def __init__(self):
        self.keys: list[str] = []
        self.starts: list[float] = []
        self.times: list[float] = []
        self.calibrations: list[tuple[float, float]] = []  # midpoint, kernel time
        self.failures: list[str] = []
        self.attempted = 0
        self.passes = 0
        self.first: dict[str, object] = {}
        self.occurrences: Counter = Counter()
        self.pass_counts: list[Counter] = []

    def run(self, ops, seconds: float, tracer: Tracer | None = None) -> None:
        """Run whole passes, at least one, until the ops of this call have
        taken ``seconds`` of wall time."""
        spent = 0.0
        while spent == 0.0 or spent < seconds:
            first_op = len(tracer.op_counts) if tracer else 0
            for op in ops:
                self.attempted += 1
                if not self.calibrations or time.perf_counter() - self.calibrations[-1][0] > CALIBRATE_EVERY_S:
                    self.calibrate()
                span = tracer.begin_op(self.attempted) if tracer else None
                failure = None
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    failure = f"{op.key}: {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end_op(span)
                spent += dt
                if failure:
                    self.failures.append(failure)
                    continue
                self.keys.append(op.key)
                self.starts.append(t0)
                self.times.append(dt)
                self.check(op, op.collect(result))
            if tracer:
                self.pass_counts.append(sum(tracer.op_counts[first_op:], Counter()))
            self.passes += 1
        self.calibrate()  # so that the last op has a sample after it too

    def calibrate(self) -> None:
        start = time.perf_counter()
        took = calibrate.measure()
        self.calibrations.append((start + 0.5 * took, took))

    def scaled_times(self) -> np.ndarray:
        """Op times at the reference host speed: each op's wall time times
        ``REFERENCE_S`` over the kernel time interpolated at its midpoint."""
        marks, kernel = np.array(self.calibrations).T
        times = np.array(self.times)
        return times * calibrate.REFERENCE_S / np.interp(np.array(self.starts) + 0.5 * times, marks, kernel)

    def check(self, op, output) -> None:
        """Keep the first output of a key; later ones must agree with it.

        ``failures`` holds one message per failed op, so its length is the
        failed-op count; ``occurrences`` counts the ops that agreed."""
        if op.key not in self.first:
            self.first[op.key] = output
        elif not agree(self.first[op.key], output):
            self.failures.append(f"{op.key}: output differs from its first occurrence")
            return
        self.occurrences[op.key] += 1

    def referee(self, ops) -> None:
        for op in {op.key: op for op in ops}.values():
            if op.key not in self.first:
                continue
            message = op.referee(self.first[op.key])
            if message:
                self.failures.extend([message] * self.occurrences[op.key])


def agree(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b
    scale = max(float(np.max(np.abs(a))), 1e-300)
    return float(np.max(np.abs(a - b))) <= workloads.CLI_MATCH_RTOL * scale


def end_to_end(record: Passes, ops) -> dict:
    """End-to-end metrics from the scaled op times (see ``calibrate.py``).

    ``ops_per_s`` is one pass over the sum of each op's median scaled time,
    so it does not depend on how many passes fitted in the run.  The same
    statistics of the unscaled wall times are kept under ``wall``."""
    scaled = record.scaled_times()
    out = {"ops": len(scaled), "passes": record.passes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for label, times in (("scaled", scaled), ("wall", np.array(record.times))):
        by_key = {key: float(np.median(times[[k == key for k in record.keys]])) for key in set(record.keys)}
        pass_time = sum(by_key[op.key] for op in ops if op.key in by_key)
        ordered = np.sort(times)
        tail_index = max(len(ordered) - 1 - TAIL_BEYOND, 0)
        out[label] = {
            "ops_per_s": len(ops) / pass_time if pass_time else 0.0,
            "op_ms_p50": 1e3 * float(np.median(ordered)) if len(ordered) else 0.0,
            "op_ms_tail": 1e3 * float(ordered[tail_index]) if len(ordered) else 0.0,
            "op_ms_by_key": {key: 1e3 * t for key, t in sorted(by_key.items())},
        }
    out.update({name: out["scaled"][name] for name in ("ops_per_s", "op_ms_p50", "op_ms_tail")})
    out["tail_percentile"] = 100.0 * tail_index / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    out["kernel_ms"] = [1e3 * took for _, took in record.calibrations]
    return out


def run_probe(seed: int) -> tuple[dict, list[str]]:
    """The exact-count probe, traced twice; the two count sets must match."""
    op = workloads.probe_op(seed)
    tracer = Tracer()
    tracer.install(fe)
    try:
        for op_id in range(2):
            span = tracer.begin_op(op_id)
            try:
                op.run()
            finally:
                tracer.end_op(span)
    finally:
        tracer.uninstall()
    first, second = tracer.op_counts
    errors = [] if first == second else [f"probe counts differ between two runs: {first} vs {second}"]
    return {name: float(first[key]) for name, key in PROBE_COUNTS.items()}, errors


def per_layer(tracer: Tracer, record: Passes) -> tuple[dict, dict]:
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    span_layer = np.array([LAYERS.index(layer) for layer in tracer.layers], dtype=int)[spans["name"]]
    ops = max(record.attempted, 1)
    op_time = float(np.sum(spans["dur"][spans["name"] == ids["harness.op"]]))

    def inclusive(name: str) -> float:
        if name not in ids:
            return 0.0
        mask = (spans["name"] == ids[name]) & ((spans["flags"] & OUTER_NAME) != 0)
        return float(np.sum(spans["dur"][mask]))

    def self_time(name: str) -> float:
        return float(np.sum(spans["self"][spans["name"] == ids[name]])) if name in ids else 0.0

    totals = sum(record.pass_counts, Counter())
    out: dict[str, float] = {}
    for metric, key in COUNTS.items():
        out[metric] = totals[key] / ops
        out[metric + "_total"] = float(totals[key])
    for metric, (names, kind) in TIMES.items():
        measure = inclusive if kind == "incl" else self_time
        out[metric] = sum(measure(name) for name in names) / ops
    nodes = totals["statespace.quad_nodes_coarse"] + totals["statespace.quad_nodes_doubled"]
    out["solver.doubled_share"] = totals["statespace.quad_nodes_doubled"] / nodes if nodes else 0.0
    for metric, name in SHARES.items():
        out[metric] = inclusive(name) / op_time
    confluent = (span_layer == LAYERS.index("confluent")) & ((spans["flags"] & OUTER_LAYER) != 0)
    out["confluent.share"] = float(np.sum(spans["dur"][confluent])) / op_time
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(np.sum(spans["self"][span_layer == i])) / ops
    out["trace.spans"] = float(len(spans["dur"]))
    return out, spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out_dir = os.path.join(ROOT, "perfbench", "out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ops[0].run()  # untimed warm-up
        setup_wall_s = time.monotonic() - args.spawn_time
        # the kernel time right after set-up scales it like an op time
        kernel_s = statistics.median(calibrate.measure() for _ in range(SETUP_KERNEL_RUNS))
        report = {
            "setup_s": setup_wall_s * calibrate.REFERENCE_S / kernel_s,
            "setup_wall_s": setup_wall_s,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        if args.setup_only:
            print(json.dumps(report))
            return 0

        record = Passes()
        errors: list[str] = []
        if not args.trace:
            record.run(ops, args.seconds)
            report.update(end_to_end(record, ops))
        else:
            probe, errors = run_probe(args.seed)
            # Traced and untraced passes alternate, so a drift in machine
            # speed during the run does not bias the tracing overhead.
            traced = Passes()
            traced.first, traced.occurrences = record.first, record.occurrences
            tracer = Tracer()
            while traced.passes < 2 or sum(record.times) + sum(traced.times) < args.seconds:
                record.run(ops, 0.0)
                tracer.install(fe)
                try:
                    traced.run(ops, 0.0, tracer=tracer)
                finally:
                    tracer.uninstall()
            if any(c != traced.pass_counts[0] for c in traced.pass_counts[1:]):
                errors.append("per-layer counts differ between traced passes of one seed")
            metrics, spans = per_layer(tracer, traced)
            metrics.update(probe)
            metrics["trace.ops_per_s_ratio"] = (end_to_end(traced, ops)["ops_per_s"]
                                                / end_to_end(record, ops)["ops_per_s"])
            metrics["trace.traced_ops"] = float(len(traced.times))
            tracer.write(os.path.join(out_dir, f"spans-{args.workload}.npz"), spans)
            record.failures.extend(traced.failures)
            record.attempted += traced.attempted
            report["per_layer"] = metrics

        record.referee(ops)
        report["attempted"] = record.attempted
        report["failed"] = len(record.failures)
        report["failures"] = sorted(set(record.failures))[:20]
        report["errors"] = errors
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
