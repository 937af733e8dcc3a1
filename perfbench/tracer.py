"""Span recorder that wraps the library's public functions from outside.

``Tracer.install`` replaces each traced function in every module namespace
that binds it (the package modules import functions by name, so patching
only the defining module would miss most calls), and wraps ``apply`` and
``semigroup`` on every concrete ``Operator`` subclass.  A wrapper records
a span only while ``Tracer.active`` is set, so refereeing outside the
timed ops is never recorded.

Spans live in flat typed arrays (name, start, end, parent, op, flags) and
are written out once at the end.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# flag bits stored per span
OUTER_NAME = 1  # no enclosing span with the same name (recursion-safe totals)
OUTER_LAYER = 2  # no enclosing span of the same layer


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_depth: list[int] = []
        self._layer_depth: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")
        self._stack = [-1]
        self.op_id = -1
        self.op_counts: list[Counter] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(name.split(".", 1)[0])
            self._name_depth.append(0)
            self._layer_depth.setdefault(self.layers[-1], 0)
        return self._ids[name]

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        self.op_counts.append(Counter())
        self.active = True
        return self.open(self.name_id("harness.op"))

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.active = False

    def open(self, nid: int) -> int:
        layer = self.layers[nid]
        flags = (OUTER_NAME if self._name_depth[nid] == 0 else 0) | (
            OUTER_LAYER if self._layer_depth[layer] == 0 else 0
        )
        self._name_depth[nid] += 1
        self._layer_depth[layer] += 1
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.flags.append(flags)
        self.end.append(0.0)
        self._stack.append(idx)
        self.op_counts[-1][self.names[nid]] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        nid = self.name[idx]
        self._name_depth[nid] -= 1
        self._layer_depth[self.layers[nid]] -= 1
        self._stack.pop()

    def count(self, key: str, value) -> None:
        if self.active:
            self.op_counts[-1][key] += value

    def current_layer(self) -> str | None:
        idx = self._stack[-1]
        return None if idx < 0 else self.layers[self.name[idx]]

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span ``name``; ``after(args, kwargs, result)``
        runs inside the span to add counts."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer.close(idx)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, modules, fn, name: str, after=None) -> None:
        """Rebind ``fn`` in every module that holds it under its own name."""
        wrapped = self.wrap(name, fn, after)
        for module in modules:
            if module.__dict__.get(fn.__name__) is fn:
                self._set(module, fn.__name__, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self.wrap(name, raw.__func__, after)))
        else:
            self._set(cls, attr, self.wrap(name, raw, after))

    def install(self, package) -> None:
        """Wrap the public entry points of every measured layer."""
        from factored_evolution import cli, confluent, equation, operators, solver, statespace

        modules = [package] + [m for n, m in sys.modules.items() if n.startswith("factored_evolution.")]
        tracer = self

        def rk4_steps(args, kwargs, result):
            tracer.count("statespace.rk4_steps", kwargs.get("steps", args[3] if len(args) > 3 else 0))

        def quad_nodes(args, kwargs, result):
            doubled = getattr(args[0], "_perfbench_doubled", False)
            key = "statespace.quad_nodes_doubled" if doubled else "statespace.quad_nodes_coarse"
            tracer.count(key, len(result[0]))

        def csv_bytes(args, kwargs, result):
            tracer.count("cli.csv_bytes", os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None)))

        for fn, name, after in (
            (statespace.lu_factor_checked, "statespace.lu_factor", None),
            (statespace.expm_apply, "statespace.expm_apply", None),
            (statespace.rk4_integrate, "statespace.rk4_integrate", rk4_steps),
            (equation.oracle_solve, "equation.oracle_solve", None),
            (confluent.solve_coefficients, "confluent.solve_coefficients", None),
            (confluent.solve_z_vector, "confluent.solve_z_vector", None),
            (solver.solve_full, "solver.solve_full", None),
            (solver.solve_homogeneous, "solver.solve_homogeneous", None),
            (solver.solve_inhomogeneous_zero_ic, "solver.solve_inhomogeneous_zero_ic", None),
            (solver.initial_derivative_defect, "solver.initial_derivative_defect", None),
            (solver.compare_with_oracle, "solver.compare_with_oracle", None),
            (solver.lemma2_lhs, "solver.lemma2_lhs", None),
            (solver.lemma2_rhs, "solver.lemma2_rhs", None),
            (cli.main, "cli.main", None),
            (cli.parse_config, "cli.parse_config", None),
            (cli.write_csv, "cli.write_csv", csv_bytes),
        ):
            self.patch_function(modules, fn, name, after)

        self.patch_method(equation.FactoredEquation, "_commutation_gate", "equation.gate")
        self.patch_method(equation.Forcing, "__call__", "equation.forcing")
        self.patch_method(cli.ProblemConfig, "materialize", "cli.materialize")
        self.patch_method(statespace.QuadratureRule, "nodes", "statespace.quadrature_nodes", quad_nodes)
        for cls in _concrete_subclasses(operators.Operator):
            self.patch_method(cls, "apply", "operators.apply")
            self.patch_method(cls, "semigroup", "operators.semigroup")
        for cls in _concrete_subclasses(confluent.ZCoefficients):
            self.patch_method(cls, "apply_all", "confluent.weight_apply")

        # A rule refined inside a solver function is that solve's doubled
        # (panel-doubling) pass; refinements made elsewhere are base rules.
        refined = statespace.QuadratureRule.__dict__["refined"]

        @functools.wraps(refined)
        def mark_refined(rule, *args, **kwargs):
            out = refined(rule, *args, **kwargs)
            if tracer.active and tracer.current_layer() == "solver":
                object.__setattr__(out, "_perfbench_doubled", True)
            return out

        self._set(statespace.QuadratureRule, "refined", mark_refined)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.name)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8, count=n).copy(),
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path: str, spans: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names), **{k: spans[k] for k in
                 ("name", "start", "end", "parent", "op", "flags")})


def _concrete_subclasses(base):
    out, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if not getattr(cls, "__abstractmethods__", None):
            out.append(cls)
    return out
