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
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .confluent import RESIDUAL_RTOL, build_confluent_matrix, solve_z_vector
from .equation import ORACLE_STEPS_PER_UNIT, FactoredEquation, Forcing, oracle_solve
from .errors import (
    DuplicateLabelError,
    FactoredEvolutionError,
    InvalidInputError,
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
    coincident_modes,
    shared_mode_basis,
)
from .solver import (
    _duhamel_pass,
    _interval_runs,
    compare_with_oracle,
    initial_derivative_defect,
    lemma2_lhs,
    lemma2_rhs,
    oracle_deviation,
    solve_full,
)
from .statespace import QuadratureRule, as_count
from .trace import SolutionTrace

ORACLE_REL_TOL = 1e-6
LEMMA2_EQUALITY_TOL = 1e-7
DERIVATIVE_FIDELITY_TOL = 1e-4

# Initial-data profiles: each one's numeric parameters with their defaults,
# and its formula on the grid points ``x`` (None: drawn, needs no grid).
_PROFILES = {
    "sin": ({"amplitude": 1.0, "frequency": 1.0, "phase": 0.0},
            lambda x, p: p["amplitude"] * np.sin(p["frequency"] * x + p["phase"])),
    "gaussian": ({"amplitude": 1.0, "center": 0.0, "width": 1.0},
                 lambda x, p: p["amplitude"] * np.exp(-(((x - p["center"]) / p["width"]) ** 2))),
    "polynomial": ({}, lambda x, p: np.polynomial.polynomial.polyval(x, p["coeffs"])),
    "random-normal": ({"scale": 1.0}, None),
}

# The documented keys of the config root and of an operator of each family.
_ROOT_KEYS = (
    "backend", "operators", "factors", "initial_data", "forcing", "time", "quadrature", "oracle", "output",
)
_OPERATOR_KEYS = {"dense": ("matrix",), "spectral": ("eigenvalues", "scale"), "translation": ("speed",)}

# A builder makes one operator or initial-data vector as
# ``build(rng, dimension)``; it draws from the seeded generator ``rng`` only
# where the config asks for randomness.
Builder = Callable[[np.random.Generator, int], Any]


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

    Only numeric constants (compiled as floats; booleans are not numbers),
    the names in ``variables``, the functions sin/cos/tan/sinh/cosh/tanh/
    exp/sqrt/abs, the constants pi/e, and arithmetic operators are allowed;
    anything else is a SchemaError.
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
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise SchemaError(f"{path}: only numeric constants are allowed")
            # a float, so that a power overflows at once instead of growing
            # an exact integer without bound
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise SchemaError(f"{path}: constant out of float range") from exc
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


def _known_keys(obj: dict, allowed, path: str) -> None:
    """Reject a key of the config object at ``path`` (``""`` for the root)
    outside its documented set ``allowed``."""
    for key in obj:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise SchemaError(f"{where}: unknown key (allowed: {', '.join(sorted(allowed))})")


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


def _finite(value, path: str):
    """``value`` itself if it is a finite JSON number; bools are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, or an int past float range
        raise SchemaError(f"{path}: expected a finite number, got {value!r:.20}")
    return value


def _number(obj, key, path, required=True, default=None):
    value = _expect(obj, key, None, path, required, default)
    return _finite(value, f"{path}.{key}") if key in obj else value


def _integer(obj, key, path, required=True, default=None) -> int:
    value = _number(obj, key, path, required, default)
    if value != int(value):
        raise SchemaError(f"{path}.{key}: expected an integer, got {value!r}")
    return int(value)


def _number_list(value, path):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a non-empty list of numbers")
    return [float(_finite(entry, f"{path}[{i}]")) for i, entry in enumerate(value)]


def _parse_operator(
    family: str, label: str, spec, grid: UniformGrid | None, boundary: str
) -> tuple[int | None, Builder]:
    """Validate one operator definition; returns the state dimension it
    fixes (None when its eigenvalues are drawn) and its builder."""
    path = f"operators.{label}"
    if not isinstance(spec, dict):
        raise SchemaError(f"{path}: expected an object")
    _known_keys(spec, _OPERATOR_KEYS[family], path)
    if family == "dense":
        matrix = [
            _number_list(row, f"{path}.matrix[{i}]")
            for i, row in enumerate(_expect(spec, "matrix", list, path))
        ]
        if not matrix or any(len(row) != len(matrix) for row in matrix):
            raise SchemaError(f"{path}.matrix: must be square and non-empty")
        return len(matrix), lambda rng, dim: DenseMatrixOperator(label, matrix)
    if family == "spectral":
        eig = _expect(spec, "eigenvalues", (list, dict), path)
        if isinstance(eig, dict):
            bounds_path = f"{path}.eigenvalues.random-uniform"
            _known_keys(eig, ("random-uniform",), f"{path}.eigenvalues")
            bounds = _expect(eig, "random-uniform", dict, f"{path}.eigenvalues")
            _known_keys(bounds, ("low", "high"), bounds_path)
            low, high = (_number(bounds, key, bounds_path) for key in ("low", "high"))
            fixed, draw = None, lambda rng, dim: rng.uniform(low, high, dim)
        else:
            values = _number_list(eig, f"{path}.eigenvalues")
            fixed, draw = len(values), lambda rng, dim: values
        scale = _number(spec, "scale", path, required=False, default=1.0)
        return fixed, lambda rng, dim: SpectralDiagonalOperator(label, draw(rng, dim), scale)
    speed = _number(spec, "speed", path)
    if boundary == "zero-extension":  # central differences, 0 outside the grid
        diff = (np.eye(grid.n, k=1) - np.eye(grid.n, k=-1)) / (2.0 * grid.dx)
        return grid.n, lambda rng, dim: DenseMatrixOperator(label, speed * diff)
    return grid.n, lambda rng, dim: TranslationOperator(label, speed, grid)


def _parse_initial(entry, path: str, grid: UniformGrid | None, dimension: int) -> Builder:
    """Validate one initial-data entry and return its builder."""
    if isinstance(entry, list):
        values = _number_list(entry, path)
        if len(values) != dimension:
            raise SchemaError(f"{path}: expected {dimension} entries, got {len(values)}")
        return lambda rng, dim: values
    if not isinstance(entry, dict):
        raise SchemaError(f"{path}: expected an inline vector or a profile object")
    name = _expect(entry, "profile", str, path)
    if name not in _PROFILES:
        raise UnknownProfileError(f"{path}: unknown profile {name!r}")
    defaults, formula = _PROFILES[name]
    _known_keys(entry, {"profile", *defaults} | ({"coeffs"} if name == "polynomial" else set()), path)
    params = {key: _number(entry, key, path, required=False, default=value)
              for key, value in defaults.items()}
    if "width" in params and params["width"] <= 0:
        raise SchemaError(f"{path}.width: must be positive, got {params['width']}")
    if formula is None:
        return lambda rng, dim: params["scale"] * rng.standard_normal(dim)
    if grid is None:
        raise SchemaError(
            f"{path}: profile {name!r} needs a spatial grid; use an inline vector "
            "or 'random-normal' for this backend"
        )
    if name == "polynomial":
        params["coeffs"] = _number_list(_expect(entry, "coeffs", list, path), f"{path}.coeffs")
    return lambda rng, dim: formula(grid.points(), params)


def _parse_forcing(forcing, grid: UniformGrid | None, dimension: int) -> Forcing | None:
    """Compile the forcing expression into a :class:`Forcing` (or None)."""
    if forcing in (None, "none"):
        return None
    if not isinstance(forcing, str):
        raise SchemaError("forcing: expected an expression string, 'none', or null")
    env = {"i": np.arange(dimension, dtype=np.float64)}
    if grid is not None:
        env["x"] = grid.points()
    evaluate = compile_expression(forcing, {"t"} | set(env), "forcing")

    def evaluator(t) -> np.ndarray:
        # t is one time, or a column (m, 1) of them that the expression
        # broadcasts against the (dimension,) vectors i and x
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                value = np.asarray(evaluate(t=t, **env), dtype=np.float64)
        except (ArithmeticError, TypeError) as exc:
            at = f"t={t:.6g}" if np.ndim(t) == 0 else f"t in [{np.min(t):.6g}, {np.max(t):.6g}]"
            raise SchemaError(f"forcing: {forcing!r} fails at {at}: {exc}") from exc
        return np.broadcast_to(value, np.shape(t)[:-1] + (dimension,)).copy()

    return Forcing(evaluator, vectorized=True)


@dataclass
class ProblemConfig:
    """Validated problem definition: one builder per operator and per
    initial-data entry, called by materialize() with the seeded generator."""

    family: str
    dimension: int
    grid: UniformGrid | None
    operators: dict[str, Builder]
    factor_labels: list[str]
    initial_data: list[Builder]
    forcing: Forcing | None
    t_end: float
    samples: int
    rule: QuadratureRule
    oracle_steps_per_unit: int
    output: str | None

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.samples)

    def materialize(self, seed: int = 0) -> FactoredEquation:
        # Builders run in config order (operators, then initial data), which
        # fixes the order of the random draws.
        rng = np.random.default_rng(as_count(seed, "seed", low=0))
        operators = {label: build(rng, self.dimension) for label, build in self.operators.items()}
        factors = tuple(operators[label] for label in self.factor_labels)
        data = tuple(build(rng, self.dimension) for build in self.initial_data)
        return FactoredEquation(factors, data, self.forcing)


def parse_config(text: str | bytes) -> ProblemConfig:
    """Parse and validate a JSON problem definition (bytes are read as UTF-8).

    Errors carry the offending path (e.g. ``factors[2]``); text that is not
    UTF-8 or not JSON, or nests too deeply to parse, is a SchemaError too.
    Every entry is validated here and turned into its builder; the forcing
    expression is compiled here.  Nothing is drawn or solved until
    materialize().
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text, object_pairs_hook=_no_duplicate_keys)
    except DuplicateLabelError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")
    _known_keys(raw, _ROOT_KEYS, "")

    backend = _expect(raw, "backend", dict, "config")
    family = _expect(backend, "family", str, "backend")
    if family not in _OPERATOR_KEYS:
        raise SchemaError(f"backend.family: unknown family {family!r}")
    grid_keys = ("grid", "boundary") if family == "translation" else ()
    _known_keys(backend, ("family", "dimension", *grid_keys), "backend")

    grid = None
    boundary = "periodic"
    if family == "translation":
        grid_obj = _expect(backend, "grid", dict, "backend")
        _known_keys(grid_obj, ("x0", "dx", "n"), "backend.grid")
        try:
            grid = UniformGrid(
                float(_number(grid_obj, "x0", "backend.grid")),
                float(_number(grid_obj, "dx", "backend.grid")),
                _integer(grid_obj, "n", "backend.grid"),
            )
        except ValueError as exc:
            raise SchemaError(f"backend.grid: {exc}") from exc
        boundary = _expect(backend, "boundary", str, "backend", required=False, default="periodic")
        if boundary not in ("periodic", "zero-extension"):
            raise SchemaError(f"backend.boundary: unknown boundary {boundary!r}")

    specs = _expect(raw, "operators", dict, "config")
    if not specs:
        raise SchemaError("operators: at least one operator must be defined")
    if "" in specs:
        raise SchemaError("operators: labels must be non-empty strings")

    operators: dict[str, Builder] = {}
    dimension: int | None = None
    for label, spec in specs.items():
        dim, operators[label] = _parse_operator(family, label, spec, grid, boundary)
        if dim is None:
            continue
        if dimension is None:
            dimension = dim
        elif dim != dimension:
            raise SchemaError(
                f"operators.{label}: dimension {dim} conflicts with previously seen {dimension}"
            )
    if dimension is None or "dimension" in backend:
        declared = _integer(backend, "dimension", "backend")
        if declared < 1:
            raise SchemaError("backend.dimension: must be a positive integer")
        if dimension not in (None, declared):
            raise SchemaError(f"backend.dimension: {declared} conflicts with the operators' {dimension}")
        dimension = declared

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
    initial_data = [
        _parse_initial(entry, f"initial_data[{i}]", grid, dimension)
        for i, entry in enumerate(initial)
    ]
    forcing = _parse_forcing(raw.get("forcing"), grid, dimension)

    time_obj = _expect(raw, "time", dict, "config")
    _known_keys(time_obj, ("t_end", "samples"), "time")
    t_end = float(_number(time_obj, "t_end", "time"))
    samples = _integer(time_obj, "samples", "time")
    if t_end <= 0:
        raise SchemaError("time.t_end: must be positive")
    if samples < 2:
        raise SchemaError("time.samples: must be at least 2")

    # Keys left out keep QuadratureRule's defaults.
    quad = _expect(raw, "quadrature", dict, "config", required=False, default={})
    _known_keys(quad, ("panels", "nodes_per_panel"), "quadrature")
    fields = {key: _integer(quad, key, "quadrature") for key in quad}
    try:
        rule = QuadratureRule(**fields)
    except ValueError as exc:
        raise SchemaError(f"quadrature: {exc}") from exc

    oracle = _expect(raw, "oracle", dict, "config", required=False, default={})
    _known_keys(oracle, ("steps_per_unit",), "oracle")
    steps = _integer(
        oracle, "steps_per_unit", "oracle", required=False, default=ORACLE_STEPS_PER_UNIT
    )
    if steps < 1:
        raise SchemaError("oracle.steps_per_unit: must be >= 1")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise SchemaError("output: expected a path string")

    return ProblemConfig(
        family=family,
        dimension=dimension,
        grid=grid,
        operators=operators,
        factor_labels=list(factors),
        initial_data=initial_data,
        forcing=forcing,
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
    columns = [trace.times, values]
    if dev is not None:
        header.append("oracle_dev")
        columns.append(dev)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        np.savetxt(handle, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=",".join(header), comments="")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _live_probe(i_op: Operator, j_op: Operator, x: np.ndarray) -> np.ndarray:
    """The probe ``x`` with the modes where a modal pair coincides
    (:func:`coincident_modes`) zeroed in the pair's shared basis, since the
    resolvent side of the identity cannot reach them; ``x`` itself when no
    mode coincides, and for a dense pair, whose difference is singular or
    not."""
    if i_op.mode_basis is None:
        return x
    dead = coincident_modes(i_op.modal_values, j_op.modal_values)
    if not dead.any():
        return x
    basis = shared_mode_basis((i_op, j_op))
    return basis.from_modes(np.where(dead, 0.0, basis.to_modes(x)), x)


def _lemma2_records(eq: FactoredEquation, t: float, report: VerificationReport) -> None:
    groups = [op for op, _ in eq.grouped]
    if len(groups) < 2:
        raise UnsupportedOperationError(
            "the convolution-identity check needs at least two distinct factors"
        )
    rng = np.random.default_rng(7)
    probe = rng.standard_normal(eq.dim)
    for a_idx in range(len(groups) - 1):
        i_op, j_op = groups[a_idx], groups[a_idx + 1]
        x = _live_probe(i_op, j_op, probe)
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
    # ratio to be meaningful.  The order is measured by doubling: the Gauss
    # sums of p_i and 2 p_i panels on each sample interval, against the
    # Kronrod sums of a fine reference rule (17 nodes per panel, exact to
    # degree 25).
    coarse = QuadratureRule(panels=2, nodes_per_panel=2)
    z = solve_z_vector(build_confluent_matrix(eq.grouped))  # one solve and residual gate serve every rule
    times = np.asarray(t_grid, dtype=np.float64)
    reference_rule = QuadratureRule(panels=32, nodes_per_panel=8)
    _, reference = _duhamel_pass(z, eq.forcing, times, *_interval_runs(reference_rule, times))
    edges, runs = _interval_runs(coarse, times)
    doubled = [(start, stop, rule.refined()) for start, stop, rule in runs]
    errs = [float(np.max(np.abs(_duhamel_pass(z, eq.forcing, times, edges, r)[0] - reference)))
            for r in (runs, doubled)]
    scale = max(float(np.max(np.abs(reference))), 1e-30)
    if errs[1] <= 1e-12 * scale:
        report.add("quadrature-convergence", 1.0, 0.0, "errors at roundoff floor")
        return
    required = 2.0**coarse.order / 10.0
    ratio = errs[0] / errs[1]
    # report as a defect: required/ratio <= 1 means the order was met
    report.add("quadrature-convergence", 1.0, required / max(ratio, 1e-30),
               f"error ratio {ratio:.1f}, required {required:.1f}")


def _run_check(report: VerificationReport, name: str, check):
    """``check()``; if it raises, a failed record ``name`` instead of its
    result (None), so that every check passes or fails on its own."""
    try:
        return check()
    except FactoredEvolutionError as exc:
        report.fail(name, 0.0, f"{type(exc).__name__}: {exc}")
        return None


def run_verify(config: ProblemConfig, seed: int) -> VerificationReport:
    report = VerificationReport()
    eq = config.materialize(seed)
    t_grid = config.time_grid()
    trace = _run_check(report, "solve", lambda: solve_full(eq, t_grid, config.rule))
    if trace is not None:
        scale = 1.0 + max(float(np.max(np.abs(x))) for x in eq.initial_data)
        report.add("coefficient-residual", RESIDUAL_RTOL * scale, trace.diagnostics["coefficient_residual"])

    _run_check(report, "initial-derivative-fidelity", lambda: report.add(
        "initial-derivative-fidelity", DERIVATIVE_FIDELITY_TOL, initial_derivative_defect(eq)))

    if trace is not None:
        _run_check(report, "oracle-equivalence", lambda: report.add(
            "oracle-equivalence", ORACLE_REL_TOL,
            oracle_deviation(trace, oracle_solve(eq, t_grid, config.oracle_steps_per_unit))))

    if len(eq.grouped) >= 2:
        _run_check(report, "convolution-identity",
                   lambda: _lemma2_records(eq, float(config.t_end) / 2.0, report))

    if eq.forcing is not None:
        _run_check(report, "quadrature-convergence",
                   lambda: _quadrature_convergence_record(eq, t_grid, report))
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
        eq = config.materialize(seed)
        trace, _, rel = compare_with_oracle(
            eq, config.time_grid(), config.rule, config.oracle_steps_per_unit
        )
        report.add("oracle-equivalence", ORACLE_REL_TOL, rel)
        write_csv(trace, out_path)
        return (0 if report.passed else 1), report

    if command == "verify":
        report = run_verify(config, seed)
        return (0 if report.passed else 1), report

    if command == "lemma2-check":
        report = VerificationReport()
        eq = config.materialize(seed)
        _lemma2_records(eq, float(config.t_end) / 2.0, report)
        return (0 if report.passed else 1), report

    raise InvalidInputError(f"unknown command {command!r}")


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
        with open(args.config, "rb") as handle:
            config = parse_config(handle.read())
        code, report = run_command(config, args.command, args.seed, args.out)
    except FactoredEvolutionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:  # an unreadable path, or sizes past memory
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if report is not None:
        print(report.format())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
