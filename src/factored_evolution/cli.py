"""Batch front-end: parse a JSON problem file, solve, verify, emit CSV.

Commands (exit code 0 on success/pass, 1 on failed checks, 2 on errors):

    factored-evolution solve          <config> [--seed N] [--out PATH]
    factored-evolution verify         <config> [--seed N] [--out PATH]
    factored-evolution compare-oracle <config> [--seed N] [--out PATH]
    factored-evolution lemma2-check   <config> [--seed N] [--out PATH]

The config schema is documented in ``docs/config_schema.md``.  All
randomness (random eigenvalues, random-normal profiles) is drawn from a
single generator seeded by ``--seed`` (default 0), so the whole
config -> solve -> CSV pipeline is byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .equation import FactoredEquation, Forcing
from .errors import (
    DuplicateLabelError,
    FactoredEvolutionError,
    SchemaError,
    UnknownProfileError,
    UnsupportedOperationError,
)
from .operators import (
    DenseMatrixOperator,
    Operator,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
)
from .solver import (
    compare_with_oracle,
    default_quadrature_rule,
    initial_derivative_defect,
    lemma2_lhs,
    lemma2_rhs,
    solve_full,
    solve_inhomogeneous_zero_ic,
)
from .statespace import QuadratureRule
from .trace import SolutionTrace

ORACLE_REL_TOL = 1e-6
LEMMA2_EQUALITY_TOL = 1e-7
DERIVATIVE_FIDELITY_TOL = 1e-4
COEFFICIENT_RESIDUAL_RTOL = 1e-9


# ---------------------------------------------------------------------------
# expression evaluation (forcing terms)
# ---------------------------------------------------------------------------

_EXPR_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_EXPR_CONSTS = {"pi": np.pi, "e": np.e}
_EXPR_NODES = (
    ast.Expression,
    ast.Constant,
    ast.Name,
    ast.Load,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.Mod,
    ast.UAdd,
    ast.USub,
)


def compile_expression(text: str, variables: set[str], path: str) -> Callable[..., Any]:
    """Compile a small arithmetic expression with a whitelisted AST.

    Only numeric constants, the names in ``variables``, the functions
    sin/cos/tan/sinh/cosh/tanh/exp/sqrt/abs, the constants pi/e, and
    arithmetic operators are allowed; anything else is a SchemaError.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise SchemaError(f"{path}: invalid expression: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            raise SchemaError(
                f"{path}: expression uses disallowed syntax ({type(node).__name__})"
            )
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise SchemaError(f"{path}: only numeric constants are allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise SchemaError(f"{path}: only plain calls to known functions are allowed")
            if node.func.id not in _EXPR_FUNCS:
                raise SchemaError(f"{path}: unknown function {node.func.id!r}")
        if isinstance(node, ast.Name):
            allowed = variables | set(_EXPR_FUNCS) | set(_EXPR_CONSTS)
            if node.id not in allowed:
                raise SchemaError(
                    f"{path}: unknown name {node.id!r} (allowed: {sorted(variables)})"
                )
    code = compile(tree, "<config-expression>", "eval")

    def evaluate(**env):
        return eval(code, {"__builtins__": {}}, {**_EXPR_FUNCS, **_EXPR_CONSTS, **env})

    return evaluate


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise DuplicateLabelError(f"duplicate key {key!r} in config object")
        out[key] = value
    return out


def _expect(obj, key: str, kinds, path: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise SchemaError(f"{path}: missing required key {key!r}")
        return default
    value = obj[key]
    if kinds is not None and not isinstance(value, kinds):
        names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise SchemaError(f"{path}.{key}: expected {names}, got {type(value).__name__}")
    return value


def _number(obj, key, path, required=True, default=None):
    value = _expect(obj, key, (int, float), path, required, default)
    if isinstance(value, bool):
        raise SchemaError(f"{path}.{key}: expected a number, got a bool")
    return value


def _number_list(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a non-empty list of numbers")
    for i, entry in enumerate(value):
        if not isinstance(entry, (int, float)) or isinstance(entry, bool):
            raise SchemaError(f"{path}[{i}]: expected a number, got {type(entry).__name__}")
    return [float(v) for v in value]


@dataclass
class ProblemConfig:
    """Validated problem definition; random parts resolve in materialize()."""

    family: str
    dimension: int
    grid: UniformGrid | None
    boundary: str
    operator_specs: dict[str, dict]
    factor_labels: list[str]
    initial_specs: list[Any]
    forcing_expr: str | None
    t_end: float
    samples: int
    rule: QuadratureRule
    oracle_steps_per_unit: int
    output: str | None

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.samples)

    # -- materialization ----------------------------------------------------

    def _build_operator(self, label: str, rng) -> Operator:
        spec = self.operator_specs[label]
        path = f"operators.{label}"
        if self.family == "dense":
            return DenseMatrixOperator(label, np.asarray(spec["matrix"], dtype=np.float64))
        if self.family == "spectral":
            eig = spec["eigenvalues"]
            if isinstance(eig, dict):
                bounds = eig["random-uniform"]
                values = rng.uniform(bounds["low"], bounds["high"], self.dimension)
            else:
                values = np.asarray(eig, dtype=np.float64)
            scale = spec.get("scale", 1.0)
            return SpectralDiagonalOperator(label, values, scale)
        return TranslationOperator(label, spec["speed"], self.grid, self.boundary)

    def _build_vector(self, entry, rng, path: str) -> np.ndarray:
        if isinstance(entry, list):
            values = np.asarray(_number_list(entry, path))
            if values.shape[0] != self.dimension:
                raise SchemaError(
                    f"{path}: expected {self.dimension} entries, got {values.shape[0]}"
                )
            return values
        name = entry["profile"]
        if name == "random-normal":
            return entry.get("scale", 1.0) * rng.standard_normal(self.dimension)
        if self.family != "translation":
            raise SchemaError(
                f"{path}: profile {name!r} needs a spatial grid; use an inline vector "
                "or 'random-normal' for this backend"
            )
        x = self.grid.points()
        if name == "sin":
            return entry.get("amplitude", 1.0) * np.sin(
                entry.get("frequency", 1.0) * x + entry.get("phase", 0.0)
            )
        if name == "gaussian":
            width = entry.get("width", 1.0)
            return entry.get("amplitude", 1.0) * np.exp(
                -(((x - entry.get("center", 0.0)) / width) ** 2)
            )
        if name == "polynomial":
            coeffs = _number_list(entry["coeffs"], f"{path}.coeffs")
            return np.polynomial.polynomial.polyval(x, coeffs)
        raise UnknownProfileError(f"{path}: unknown profile {name!r}")

    def _build_forcing(self) -> Forcing | None:
        if self.forcing_expr is None:
            return None
        variables = {"t", "i"} | ({"x"} if self.family == "translation" else set())
        evaluate = compile_expression(self.forcing_expr, variables, "forcing")
        idx = np.arange(self.dimension, dtype=np.float64)
        x = self.grid.points() if self.family == "translation" else None
        dim = self.dimension

        def evaluator(t: float) -> np.ndarray:
            env = {"t": t, "i": idx}
            if x is not None:
                env["x"] = x
            value = np.asarray(evaluate(**env), dtype=np.float64)
            return np.broadcast_to(value, (dim,)).copy()

        return Forcing(evaluator)

    def materialize(self, seed: int = 0) -> FactoredEquation:
        rng = np.random.default_rng(seed)
        operators = {label: self._build_operator(label, rng) for label in self.operator_specs}
        factors = tuple(operators[label] for label in self.factor_labels)
        data = tuple(
            self._build_vector(entry, rng, f"initial_data[{i}]")
            for i, entry in enumerate(self.initial_specs)
        )
        return FactoredEquation(factors, data, self._build_forcing())


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate a JSON problem definition.

    Errors carry the offending path (e.g. ``factors[2]``); nothing is
    computed or materialized here.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except DuplicateLabelError:
        raise
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")

    backend = _expect(raw, "backend", dict, "config")
    family = _expect(backend, "family", str, "backend")
    if family not in ("dense", "spectral", "translation"):
        raise SchemaError(f"backend.family: unknown family {family!r}")

    grid = None
    boundary = "periodic"
    if family == "translation":
        grid_obj = _expect(backend, "grid", dict, "backend")
        grid = UniformGrid(
            float(_number(grid_obj, "x0", "backend.grid")),
            float(_number(grid_obj, "dx", "backend.grid")),
            int(_number(grid_obj, "n", "backend.grid")),
        )
        boundary = _expect(backend, "boundary", str, "backend", required=False, default="periodic")
        if boundary not in ("periodic", "zero-extension"):
            raise SchemaError(f"backend.boundary: unknown boundary {boundary!r}")

    operators = _expect(raw, "operators", dict, "config")
    if not operators:
        raise SchemaError("operators: at least one operator must be defined")

    # validate per-family operator specs and resolve the state dimension
    dimension: int | None = grid.n if grid is not None else None
    for label, spec in operators.items():
        path = f"operators.{label}"
        if not isinstance(spec, dict):
            raise SchemaError(f"{path}: expected an object")
        if family == "dense":
            matrix = _expect(spec, "matrix", list, path)
            rows = len(matrix)
            for i, row in enumerate(matrix):
                _number_list(row, f"{path}.matrix[{i}]")
                if len(row) != rows:
                    raise SchemaError(f"{path}.matrix: must be square")
            dim = rows
        elif family == "spectral":
            eig = _expect(spec, "eigenvalues", (list, dict), path)
            if isinstance(eig, dict):
                bounds = _expect(eig, "random-uniform", dict, f"{path}.eigenvalues")
                _number(bounds, "low", f"{path}.eigenvalues.random-uniform")
                _number(bounds, "high", f"{path}.eigenvalues.random-uniform")
                dim = None
            else:
                dim = len(_number_list(eig, f"{path}.eigenvalues"))
            _number(spec, "scale", path, required=False, default=1.0)
        else:
            _number(spec, "speed", path)
            dim = grid.n
        if dim is not None:
            if dimension is None:
                dimension = dim
            elif dim != dimension:
                raise SchemaError(
                    f"{path}: dimension {dim} conflicts with previously seen {dimension}"
                )
    if dimension is None:
        dimension = _expect(backend, "dimension", int, "backend")
        if dimension < 1:
            raise SchemaError("backend.dimension: must be a positive integer")

    factors = _expect(raw, "factors", list, "config")
    if not factors:
        raise SchemaError("factors: must list at least one factor")
    for i, label in enumerate(factors):
        if not isinstance(label, str):
            raise SchemaError(f"factors[{i}]: expected an operator label string")
        if label not in operators:
            raise SchemaError(f"factors[{i}]: undefined label {label!r}")

    initial = _expect(raw, "initial_data", list, "config")
    if len(initial) != len(factors):
        raise SchemaError(
            f"initial_data: need {len(factors)} entries (one per factor), got {len(initial)}"
        )
    for i, entry in enumerate(initial):
        path = f"initial_data[{i}]"
        if isinstance(entry, list):
            _number_list(entry, path)
        elif isinstance(entry, dict):
            name = _expect(entry, "profile", str, path)
            if name not in ("sin", "gaussian", "polynomial", "random-normal"):
                raise UnknownProfileError(f"{path}: unknown profile {name!r}")
            if name == "polynomial":
                _number_list(_expect(entry, "coeffs", list, path), f"{path}.coeffs")
        else:
            raise SchemaError(f"{path}: expected an inline vector or a profile object")

    forcing = raw.get("forcing")
    if forcing in (None, "none"):
        forcing_expr = None
    elif isinstance(forcing, str):
        variables = {"t", "i"} | ({"x"} if family == "translation" else set())
        compile_expression(forcing, variables, "forcing")
        forcing_expr = forcing
    else:
        raise SchemaError("forcing: expected an expression string, 'none', or null")

    time_obj = _expect(raw, "time", dict, "config")
    t_end = float(_number(time_obj, "t_end", "time"))
    samples = int(_number(time_obj, "samples", "time"))
    if t_end <= 0:
        raise SchemaError("time.t_end: must be positive")
    if samples < 2:
        raise SchemaError("time.samples: must be at least 2")

    quad = _expect(raw, "quadrature", dict, "config", required=False, default=None)
    if quad is None:
        rule = default_quadrature_rule()
    else:
        try:
            rule = QuadratureRule(
                _expect(quad, "kind", str, "quadrature", required=False, default="gauss-legendre"),
                int(_number(quad, "panels", "quadrature", required=False, default=16)),
                int(_number(quad, "nodes_per_panel", "quadrature", required=False, default=8)),
            )
        except ValueError as exc:
            raise SchemaError(f"quadrature: {exc}") from exc

    oracle = _expect(raw, "oracle", dict, "config", required=False, default={})
    steps = int(_number(oracle, "steps_per_unit", "oracle", required=False, default=2000))
    if steps < 1:
        raise SchemaError("oracle.steps_per_unit: must be >= 1")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise SchemaError("output: expected a path string")

    return ProblemConfig(
        family=family,
        dimension=int(dimension),
        grid=grid,
        boundary=boundary,
        operator_specs=operators,
        factor_labels=list(factors),
        initial_specs=list(initial),
        forcing_expr=forcing_expr,
        t_end=t_end,
        samples=samples,
        rule=rule,
        oracle_steps_per_unit=steps,
        output=output,
    )


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    tolerance: float
    observed: float
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, name: str, tolerance: float, observed: float, note: str = "") -> CheckRecord:
        record = CheckRecord(name, tolerance, float(observed), float(observed) <= tolerance, note)
        self.records.append(record)
        return record

    def fail(self, name: str, tolerance: float, note: str) -> CheckRecord:
        record = CheckRecord(name, tolerance, float("nan"), False, note)
        self.records.append(record)
        return record

    def format(self) -> str:
        lines = []
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(
                f"{status} {r.name}: observed={r.observed:.3e} tol={r.tolerance:.1e}{note}"
            )
        lines.append(f"{'PASS' if self.passed else 'FAIL'} overall ({len(self.records)} checks)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_csv(trace: SolutionTrace, path: str) -> None:
    """Write a trace as CSV: ``t,u_0,...,u_{d-1}[,oracle_dev]``.

    Values use 17 significant digits, which round-trips float64 exactly;
    line endings are LF and output is deterministic byte for byte.
    """
    if len(trace) == 0:
        raise ValueError("refusing to write an empty trace")
    values = trace.values
    if np.iscomplexobj(values):
        imag_scale = float(np.max(np.abs(values.imag)))
        if imag_scale > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
            raise UnsupportedOperationError(
                "CSV output supports real traces only; this solution is complex"
            )
        values = values.real
    dev = trace.diagnostics.get("oracle_dev")
    header = ["t"] + [f"u_{j}" for j in range(trace.dim)]
    if dev is not None:
        header.append("oracle_dev")
    lines = [",".join(header)]
    for i in range(len(trace)):
        row = [f"{trace.times[i]:.17g}"] + [f"{v:.17g}" for v in values[i]]
        if dev is not None:
            row.append(f"{dev[i]:.17g}")
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _lemma2_records(eq: FactoredEquation, t: float, report: VerificationReport) -> None:
    groups = [op for op, _ in eq.grouped]
    if len(groups) < 2:
        raise UnsupportedOperationError(
            "the convolution-identity check needs at least two distinct factors"
        )
    rng = np.random.default_rng(7)
    x = rng.standard_normal(eq.dim)
    for a_idx in range(len(groups) - 1):
        i_op, j_op = groups[a_idx], groups[a_idx + 1]
        for k in range(4):
            lhs = lemma2_lhs(i_op, j_op, k, t, x)
            rhs = lemma2_rhs(i_op, j_op, k, t, x)
            dev = float(np.max(np.abs(lhs - rhs))) / (1.0 + float(np.max(np.abs(lhs))))
            report.add(
                f"convolution-identity[{i_op.label},{j_op.label},k={k}]",
                LEMMA2_EQUALITY_TOL,
                dev,
            )


def _quadrature_convergence_record(eq, t_grid, report: VerificationReport) -> None:
    # Low-order rule on purpose: errors must sit far above roundoff for the
    # ratio to be meaningful.
    coarse = QuadratureRule("gauss-legendre", panels=2, nodes_per_panel=2)
    zero_ic = eq.with_zero_initial_data()
    reference = solve_inhomogeneous_zero_ic(
        zero_ic, t_grid, QuadratureRule("gauss-legendre", 64, 8), richardson_tol=float("inf")
    ).values
    errs = []
    for rule in (coarse, coarse.refined(2)):
        vals = solve_inhomogeneous_zero_ic(
            zero_ic, t_grid, rule, richardson_tol=float("inf")
        ).values
        errs.append(float(np.max(np.abs(vals - reference))))
    scale = max(float(np.max(np.abs(reference))), 1e-30)
    if errs[1] <= 1e-12 * scale:
        report.add("quadrature-convergence", 1.0, 0.0, "errors at roundoff floor")
        return
    required = 2.0**coarse.order / 10.0
    ratio = errs[0] / errs[1]
    # report as a defect: required/ratio <= 1 means the order was met
    report.add("quadrature-convergence", 1.0, required / max(ratio, 1e-30),
               f"error ratio {ratio:.1f}, required {required:.1f}")


def run_verify(config: ProblemConfig, seed: int) -> VerificationReport:
    report = VerificationReport()
    started = time.perf_counter()
    eq = config.materialize(seed)
    t_grid = config.time_grid()
    try:
        trace = solve_full(eq, t_grid, config.rule)
        residual = trace.diagnostics.get("coefficient_residual", 0.0)
        scale = 1.0 + max(float(np.max(np.abs(x))) for x in eq.initial_data)
        report.add("coefficient-residual", COEFFICIENT_RESIDUAL_RTOL * scale, residual)

        defect = initial_derivative_defect(eq, config.rule)
        report.add("initial-derivative-fidelity", DERIVATIVE_FIDELITY_TOL, defect)

        if eq.family in ("dense", "spectral"):
            _, _, rel = compare_with_oracle(
                eq, t_grid, config.rule, config.oracle_steps_per_unit
            )
            report.add("oracle-equivalence", ORACLE_REL_TOL, rel)

        if len(eq.grouped) >= 2 and eq.family in ("dense", "spectral"):
            _lemma2_records(eq, float(config.t_end) / 2.0, report)

        if eq.forcing is not None:
            _quadrature_convergence_record(eq, t_grid, report)
    except FactoredEvolutionError as exc:
        report.fail("verify", 0.0, f"{type(exc).__name__}: {exc}")
    report.timings["total"] = time.perf_counter() - started
    return report


def run_command(
    config: ProblemConfig, command: str, seed: int = 0, out: str | None = None
) -> tuple[int, VerificationReport | None]:
    """Execute one CLI command; returns (exit_code, report or None)."""
    out_path = out or config.output or "trace.csv"

    if command == "solve":
        eq = config.materialize(seed)
        trace = solve_full(eq, config.time_grid(), config.rule)
        write_csv(trace, out_path)
        return 0, None

    if command == "compare-oracle":
        report = VerificationReport()
        started = time.perf_counter()
        eq = config.materialize(seed)
        trace, _, rel = compare_with_oracle(
            eq, config.time_grid(), config.rule, config.oracle_steps_per_unit
        )
        report.add("oracle-equivalence", ORACLE_REL_TOL, rel)
        report.timings["total"] = time.perf_counter() - started
        write_csv(trace, out_path)
        return (0 if report.passed else 1), report

    if command == "verify":
        report = run_verify(config, seed)
        return (0 if report.passed else 1), report

    if command == "lemma2-check":
        report = VerificationReport()
        started = time.perf_counter()
        eq = config.materialize(seed)
        _lemma2_records(eq, float(config.t_end) / 2.0, report)
        report.timings["total"] = time.perf_counter() - started
        return (0 if report.passed else 1), report

    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="factored-evolution",
        description="Solve and verify factored linear evolution equations from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "solve the problem and write a CSV trace"),
        ("verify", "run the invariant suite on the problem"),
        ("compare-oracle", "solve and compare against the companion-system oracle"),
        ("lemma2-check", "check the semigroup convolution identity on the factor pairs"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to the JSON problem definition")
        p.add_argument("--seed", type=int, default=0, help="seed for any randomized pieces")
        p.add_argument("--out", default=None, help="output CSV path (overrides config)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = parse_config(handle.read())
        code, report = run_command(config, args.command, args.seed, args.out)
    except FactoredEvolutionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        print(report.format())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
