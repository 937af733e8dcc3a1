"""One pass of ops per workload, with the referee for each op's output.

An op is one library solve (``forced-duhamel``, ``homogeneous-sweep``) or
one in-process ``cli.main`` call (``cli-batch``).  A pass is a fixed list
of ops; the harness repeats whole passes, so every op key recurs and all
occurrences of a key must agree with the first, which is refereed once,
outside the timed region.

Library calls go through module attributes (``fe.solve_full``), never
through names bound at import, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import factored_evolution as fe
from factored_evolution import cli

import instances

ORACLE_REL_TOL = cli.ORACLE_REL_TOL
CLI_MATCH_RTOL = 1e-12
T_END = 1.0

# (generator, dimension or grid points, multiplicities, samples)
# Light, middle and heavy blocks with clear gaps between them, so the
# median falls inside the middle block and the 11th-slowest op inside the
# heavy block (non-Hermitian pairs running expm at every node) for any
# plausible number of passes.
FORCED_LADDER = (
    ("spectral", 256, (1, 1), 5),
    ("dense-hermitian", 16, (2,), 5),
    ("spectral", 64, (2, 1, 1), 5),
    ("translation", 64, (1, 1), 5),
    ("spectral", 2, (1, 1, 1), 13),
    ("dense-hermitian", 16, (1, 1, 1), 7),
    ("spectral", 64, (4,), 7),
    ("translation", 256, (2, 1), 5),
    ("dense-polynomial", 8, (2, 1), 5),
    ("dense-polynomial", 8, (1, 1), 7),
    ("dense-polynomial", 8, (2, 1), 5),
)

# Dense Hermitian d=128 systems carry the weight so that the confluent
# solve (assembly, LU, residual gate) stays a visible share of op time next
# to the per-sample semigroups.
HOMOGENEOUS_LADDER = (
    ("spectral", 2000, (1, 1, 1, 1), 51),
    ("spectral", 1000, (1, 1, 1, 1, 1), 51),
    ("dense-hermitian", 128, (1, 1, 1), 51),
    ("dense-hermitian", 128, (2, 1, 1), 51),
    ("dense-hermitian", 128, (1, 1, 1, 1), 101),
    ("dense-hermitian", 128, (2, 2), 51),
    ("dense-polynomial", 8, (1, 1), 51),
    ("dense-polynomial", 32, (1, 1), 51),
    ("translation", 1024, (1, 1), 51),
    ("translation", 256, (2, 1), 51),
)

# The probe behind the exact-count self-check: one forced dense solve,
# n = 3, all distinct, 11 samples.
PROBE = ("dense-hermitian", 16, (1, 1, 1), 11)


@dataclass
class Op:
    """``run`` is timed; ``collect`` turns its result into the comparable
    output outside the timed region; ``referee`` returns an error message
    or None for the first output of each key."""

    key: str
    run: Callable[[], Any]
    referee: Callable[[Any], str | None]
    collect: Callable[[Any], Any] = lambda result: result


# ---------------------------------------------------------------------------
# library ops
# ---------------------------------------------------------------------------


def build_operators(inst: instances.Instance) -> list:
    labels = [f"G{j}" for j in range(len(inst.groups))]
    if inst.family == "spectral":
        return [fe.SpectralDiagonalOperator(lab, g) for lab, g in zip(labels, inst.groups)]
    if inst.family == "dense":
        return [fe.DenseMatrixOperator(lab, g) for lab, g in zip(labels, inst.groups)]
    grid = fe.UniformGrid(0.0, 2.0 * np.pi / inst.grid_n, inst.grid_n)
    return [fe.TranslationOperator(lab, c, grid) for lab, c in zip(labels, inst.groups)]


def build_equation(inst: instances.Instance, ops=None):
    ops = ops if ops is not None else build_operators(inst)
    factors = tuple(op for op, mult in zip(ops, inst.mults) for _ in range(mult))
    forcing = fe.Forcing(inst.forcing_value) if inst.forcing is not None else None
    return fe.FactoredEquation(factors, inst.data, forcing)


def oracle_values(inst: instances.Instance) -> np.ndarray:
    """RK4 companion referee; periodic translations go through Fourier modes.

    The translation equivalent replaces each factor by the diagonal
    operator of its mode multipliers and transforms data and forcing, so
    the oracle (dense/spectral only) integrates the same problem.
    """
    times = inst.time_grid()
    if inst.family != "translation":
        return fe.oracle_solve(build_equation(inst), times).values
    modal = [fe.SpectralDiagonalOperator(op.label, op.node_multipliers()) for op in build_operators(inst)]
    factors = tuple(op for op, mult in zip(modal, inst.mults) for _ in range(mult))
    forcing = None
    if inst.forcing is not None:
        forcing = fe.Forcing(lambda t: np.fft.fft(inst.forcing_value(t)))
    eq = fe.FactoredEquation(factors, tuple(np.fft.fft(x) for x in inst.data), forcing)
    return np.fft.ifft(fe.oracle_solve(eq, times).values, axis=1).real


def oracle_referee(inst: instances.Instance) -> Callable[[np.ndarray], str | None]:
    def check(values: np.ndarray) -> str | None:
        ref = oracle_values(inst)
        rel = float(np.max(np.abs(values - ref))) / max(float(np.max(np.abs(ref))), 1e-12)
        if rel <= ORACLE_REL_TOL:
            return None
        return f"{inst.name}: oracle deviation {rel:.3e} > {ORACLE_REL_TOL:.0e}"

    return check


def solve_op(inst: instances.Instance) -> Op:
    """Build fresh operators and the equation, then ``solve_full``."""
    return Op(
        inst.name,
        lambda: fe.solve_full(build_equation(inst), inst.time_grid()).values,
        oracle_referee(inst),
    )


def make_instance(rng, spec, forced: bool, index: int = 0) -> instances.Instance:
    gen, dim, mults, samples = spec
    name = f"{index:02d}-{gen}-d{dim}-m{''.join(map(str, mults))}-S{samples}"
    return instances.GENERATORS[gen](rng, name, dim, mults, samples, T_END, forced)


def forced_duhamel(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    return [solve_op(make_instance(rng, spec, True, i)) for i, spec in enumerate(FORCED_LADDER)]


def homogeneous_sweep(seed: int, workdir: str) -> list[Op]:
    """Pairs of ops: fresh operators, then the same objects with new data."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i, spec in enumerate(HOMOGENEOUS_LADDER):
        first = make_instance(rng, spec, False, i)
        second = first.with_data((rng.standard_normal(x.shape) if first.family != "translation"
                                  else instances.zero_mean_profile(rng, first.grid_n)
                                  for x in first.data), first.name + "/shared")
        shared: dict[str, list] = {}

        def fresh(inst=first, shared=shared):
            shared["ops"] = build_operators(inst)
            return fe.solve_full(build_equation(inst, shared["ops"]), inst.time_grid()).values

        def reuse(inst=second, shared=shared):
            return fe.solve_full(build_equation(inst, shared["ops"]), inst.time_grid()).values

        ops.append(Op(first.name, fresh, oracle_referee(first)))
        ops.append(Op(second.name, reuse, oracle_referee(second)))
    return ops


def probe_op(seed: int) -> Op:
    return solve_op(make_instance(np.random.default_rng([seed, 4]), PROBE, forced=True))


# ---------------------------------------------------------------------------
# CLI ops
# ---------------------------------------------------------------------------


def _random_spectral_ops(labels_bounds):
    return {label: {"eigenvalues": {"random-uniform": {"low": lo, "high": hi}}}
            for label, (lo, hi) in labels_bounds.items()}


def cli_configs(rng) -> dict[str, dict]:
    """Four configs: wide homogeneous solve, small forced oracle comparison,
    dense homogeneous verify, forced spectral verify."""
    d = 6
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    dense = {}
    for label, center in (("A", -1.5), ("B", -0.5)):
        mat = q @ np.diag(center + 0.1 * rng.uniform(-1.0, 1.0, d)) @ q.T
        dense[label] = {"matrix": (0.5 * (mat + mat.T)).tolist()}
    random_normal = {"profile": "random-normal"}
    bounds = {"A": (-2.0, -1.2), "B": (-0.8, -0.2), "C": (0.1, 0.5)}
    return {
        "solve-wide": {
            "backend": {"family": "spectral", "dimension": 512},
            "operators": _random_spectral_ops({k: bounds[k] for k in "AB"}),
            "factors": ["A", "A", "B"],
            "initial_data": [random_normal] * 3,
            "forcing": "none",
            "time": {"t_end": T_END, "samples": 201},
        },
        "oracle-forced": {
            "backend": {"family": "spectral", "dimension": 6},
            "operators": _random_spectral_ops({k: bounds[k] for k in "AB"}),
            "factors": ["A", "A", "B"],
            "initial_data": [random_normal] * 3,
            "forcing": f"cos({rng.uniform(0.5, 2.0):.6f} * t) + 0.1 * i",
            "time": {"t_end": 2.5, "samples": 6},
        },
        "verify-dense": {
            "backend": {"family": "dense"},
            "operators": dense,
            "factors": ["A", "A", "B"],
            "initial_data": [random_normal] * 3,
            "forcing": "none",
            "time": {"t_end": T_END, "samples": 11},
        },
        "verify-forced": {
            "backend": {"family": "spectral", "dimension": 6},
            "operators": _random_spectral_ops({k: bounds[k] for k in "BC"}),
            "factors": ["B", "C"],
            "initial_data": [random_normal] * 2,
            "forcing": f"sin({rng.uniform(0.5, 2.0):.6f} * t) + 0.05 * i * t",
            "time": {"t_end": T_END, "samples": 2},
        },
    }


def parse_csv(text: bytes, dim: int, with_dev: bool) -> np.ndarray:
    """Parse a trace CSV back and enforce the documented format."""
    if b"\r" in text or not text.endswith(b"\n"):
        raise ValueError("CSV lines must end in LF only")
    lines = text.decode("utf-8").split("\n")[:-1]
    header = ["t"] + [f"u_{j}" for j in range(dim)] + (["oracle_dev"] if with_dev else [])
    if lines[0] != ",".join(header):
        raise ValueError(f"CSV header {lines[0][:60]!r} is not t,u_0..u_{dim - 1}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"CSV line {number} has {len(fields)} fields")
        values = [float(f) for f in fields]
        if any(f"{v:.17g}" != f for v, f in zip(values, fields)):
            raise ValueError(f"CSV line {number} is not written with %.17g")
        rows.append(values)
    return np.array(rows)


def cli_op(name: str, command: str, config_path: str, csv_path: str | None, seed: int) -> Op:
    """One ``cli.main`` call that must exit 0; ``csv_path`` None means the
    command writes no CSV and its printed report is the output."""
    argv = [command, config_path, "--seed", str(seed)]
    if csv_path is not None:
        argv += ["--out", csv_path]

    def run():
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(argv)
        return code, report.getvalue()

    def collect(result):
        code, report = result
        if csv_path is None:
            return code, report.encode()
        with open(csv_path, "rb") as handle:
            return code, handle.read()

    def referee(output) -> str | None:
        code, payload = output
        if code != 0:
            return f"{name}: exit code {code}, expected 0"
        if csv_path is None:
            last = payload.decode().rstrip("\n").rsplit("\n", 1)[-1]
            return None if last.startswith("PASS overall") else f"{name}: report ends {last!r}"
        with open(config_path, encoding="utf-8") as handle:
            config = cli.parse_config(handle.read())
        expected = fe.solve_full(config.materialize(seed), config.time_grid(), config.rule)
        try:
            rows = parse_csv(payload, expected.dim, command == "compare-oracle")
        except ValueError as exc:
            return f"{name}: {exc}"
        if not np.array_equal(rows[:, 0], expected.times):
            return f"{name}: CSV time column differs from the config grid"
        got = rows[:, 1 : 1 + expected.dim]
        rel = float(np.max(np.abs(got - expected.values))) / max(float(np.max(np.abs(expected.values))), 1e-300)
        return None if rel <= CLI_MATCH_RTOL else f"{name}: CSV deviates {rel:.3e} from solve_full"

    return Op(name, run, referee, collect)


def cli_batch(seed: int, workdir: str) -> list[Op]:
    """Six wide solves per pass keep CSV writing a visible share of op time."""
    rng = np.random.default_rng([seed, 3])
    paths = {}
    for name, config in cli_configs(rng).items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(config, handle)
    solve = cli_op("cli-solve", "solve", paths["solve-wide"], os.path.join(workdir, "solve.csv"), seed)
    oracle = cli_op("cli-compare-oracle", "compare-oracle", paths["oracle-forced"],
                    os.path.join(workdir, "oracle.csv"), seed)
    verify_dense = cli_op("cli-verify-dense", "verify", paths["verify-dense"], None, seed)
    verify_forced = cli_op("cli-verify-forced", "verify", paths["verify-forced"], None, seed)
    return [solve, oracle, solve, verify_dense, solve, oracle, solve, verify_forced, solve, solve]


WORKLOADS = {
    "forced-duhamel": forced_duhamel,
    "homogeneous-sweep": homogeneous_sweep,
    "cli-batch": cli_batch,
}
