import functools
import json
import math
import re
import time
import warnings

import numpy as np
import pytest

from factored_evolution import (
    DuplicateLabelError,
    FactoredEquation,
    Forcing,
    QuadratureRule,
    QuadratureUnderResolvedError,
    SchemaError,
    SolutionTrace,
    UniformGrid,
    UnknownProfileError,
    UnsupportedOperationError,
)
from factored_evolution import cli, confluent, equation, solver, solve_full
from factored_evolution.cli import (
    ProblemConfig,
    compile_expression,
    main,
    parse_config,
    run_command,
    run_verify,
    write_csv,
)

from conftest import central_difference_operator

MINIMAL = {
    "backend": {"family": "spectral"},
    "operators": {"a": {"eigenvalues": [0.0]}},
    "factors": ["a"],
    "initial_data": [[1.0]],
    "forcing": "none",
    "time": {"t_end": 1.0, "samples": 3},
}


# Six spectral bands over [-6, 0.8], d = 4, zero initial data, no forcing.
WIDE_BAND = {
    "backend": {"family": "spectral", "dimension": 4},
    "operators": {
        label: {"eigenvalues": {"random-uniform": {"low": lo, "high": hi}}}
        for label, (lo, hi) in {"A": (-6.0, -5.0), "B": (-4.6, -3.6), "C": (-3.2, -2.2),
                                "D": (-1.8, -0.8), "E": (-0.5, 0.1), "F": (0.3, 0.8)}.items()
    },
    "factors": list("ABCDEF"),
    "initial_data": [[0.0] * 4] * 6,
    "time": {"t_end": 1.0, "samples": 5},
}


def config_text(**overrides):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg.update(overrides)
    return json.dumps(cfg)


RANDOM_DIAGONAL = {
    "backend": {"family": "spectral", "dimension": 6},
    "operators": {
        "A": {"eigenvalues": {"random-uniform": {"low": -2.0, "high": -1.2}}},
        "B": {"eigenvalues": {"random-uniform": {"low": -0.8, "high": -0.2}}},
        "C": {"eigenvalues": {"random-uniform": {"low": 0.1, "high": 0.5}}},
    },
    "factors": ["A", "A", "B", "C"],
    "initial_data": [{"profile": "random-normal"}] * 4,
    "forcing": "cos(t)",
    "time": {"t_end": 1.5, "samples": 7},
}


PERIODIC_TRANSLATION = {
    "backend": {"family": "translation", "grid": {"x0": 0.0, "dx": 2 * np.pi / 32, "n": 32}},
    "operators": {"S": {"speed": 0.5}, "F": {"speed": 1.2}},
    "factors": ["S", "S", "F"],
    "initial_data": [
        {"profile": "sin", "frequency": 1.0},
        {"profile": "sin", "frequency": 2.0, "phase": 0.3},
        {"profile": "sin", "frequency": 3.0},
    ],
    "forcing": "cos(t) * sin(2 * x)",
    "time": {"t_end": 1.0, "samples": 5},
}

# Distinct spectral factors that coincide on mode 1, where the data are 0.
COINCIDENT_SPECTRAL = {
    "backend": {"family": "spectral"},
    "operators": {"A": {"eigenvalues": [-1.0, -2.0, -3.0]}, "B": {"eigenvalues": [-0.5, -2.0, 0.5]}},
    "factors": ["A", "A", "B"],
    "initial_data": [[1.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.2, 0.0, 0.0]],
    "time": {"t_end": 1.0, "samples": 5},
}

ZERO_EXTENSION = {
    "backend": {"family": "translation", "grid": {"x0": -4.0, "dx": 0.1, "n": 81},
                "boundary": "zero-extension"},
    "operators": {"T": {"speed": 0.7}},
    "factors": ["T"],
    "initial_data": [{"profile": "gaussian"}],
    "forcing": "none",
    "time": {"t_end": 1.0, "samples": 3},
}

# Two distinct speeds need an even point count: the central difference of
# odd order is singular, like every skew-symmetric matrix of odd order.
ZERO_EXTENSION_PAIR = {
    "backend": {"family": "translation", "grid": {"x0": -4.0, "dx": 0.1, "n": 80},
                "boundary": "zero-extension"},
    "operators": {"T": {"speed": 0.7}, "S": {"speed": -0.4}},
    "factors": ["T", "T", "S"],
    "initial_data": [
        {"profile": "gaussian"},
        {"profile": "gaussian", "center": 0.5},
        {"profile": "gaussian", "center": -0.5},
    ],
    "forcing": "cos(t) * exp(-x**2)",
    "time": {"t_end": 1.0, "samples": 3},
}


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config(config_text())
        assert cfg.family == "spectral"
        assert cfg.dimension == 1
        assert cfg.factor_labels == ["a"]
        eq = cfg.materialize(seed=0)
        assert eq.n == 1 and eq.forcing is None

    def test_defaults_without_quadrature_and_oracle(self):
        cfg = parse_config(config_text())
        assert cfg.rule == QuadratureRule(panels=16, nodes_per_panel=8)
        assert cfg.oracle_steps_per_unit == 2000
        partial = parse_config(config_text(quadrature={"panels": 4}, oracle={}))
        assert partial.rule == QuadratureRule(panels=4, nodes_per_panel=8)
        assert partial.oracle_steps_per_unit == 2000

    def test_five_factor_grouping(self):
        ops = {
            label: {"eigenvalues": [float(v), float(v + 1)]}
            for label, v in (("A", 1), ("B", 3), ("C", 5))
        }
        cfg = parse_config(
            config_text(
                operators=ops,
                factors=["A", "A", "B", "B", "C"],
                initial_data=[[1.0, 0.0]] * 5,
            )
        )
        eq = cfg.materialize(0)
        assert [(op.label, m) for op, m in eq.grouped] == [("A", 2), ("B", 2), ("C", 1)]

    def test_undefined_label_names_index(self):
        with pytest.raises(SchemaError, match=r"factors\[1\].*'D'"):
            parse_config(config_text(factors=["a", "D"], initial_data=[[1.0], [1.0]]))

    def test_duplicate_operator_label(self):
        text = config_text().replace(
            '"operators": {"a": {"eigenvalues": [0.0]}}',
            '"operators": {"a": {"eigenvalues": [0.0]}, "a": {"eigenvalues": [1.0]}}',
        )
        with pytest.raises(DuplicateLabelError):
            parse_config(text)

    def test_unknown_profile(self):
        with pytest.raises(UnknownProfileError):
            parse_config(config_text(initial_data=[{"profile": "sawtooth"}]))

    def test_missing_key_has_path(self):
        bad = json.loads(config_text())
        del bad["time"]
        with pytest.raises(SchemaError, match="time"):
            parse_config(json.dumps(bad))

    def test_dimension_conflict(self):
        ops = {"a": {"eigenvalues": [0.0]}, "b": {"eigenvalues": [0.0, 1.0]}}
        with pytest.raises(SchemaError, match="dimension"):
            parse_config(config_text(operators=ops))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"forcng": "cos(t)"}, "forcng"),
            ({"quadrature": {"panel": 2}}, "quadrature.panel"),
            ({"time": {"t_end": 1.0, "samples": 3, "sample": 9}}, "time.sample"),
            ({"oracle": {"steps": 10}}, "oracle.steps"),
            ({"backend": {"family": "spectral", "dim": 1}}, "backend.dim"),
            ({"operators": {"a": {"eigenvalues": [0.0], "scal": 2.0}}}, "operators.a.scal"),
            ({"operators": {"a": {"eigenvalues": {"random-uniform": {"low": 0.0, "high": 1.0}, "normal": 1}}},
              "backend": {"family": "spectral", "dimension": 1}},
             "operators.a.eigenvalues.normal"),
            ({"operators": {"a": {"eigenvalues": {"random-uniform": {"low": 0.0, "high": 1.0, "mid": 0.5}}}},
              "backend": {"family": "spectral", "dimension": 1}},
             "operators.a.eigenvalues.random-uniform.mid"),
            ({"initial_data": [{"profile": "random-normal", "scael": 2.0}]}, "initial_data[0].scael"),
            ({"quadrature": {"kind": "gauss-legendre", "panels": 8}}, "quadrature.kind"),
        ],
    )
    def test_unknown_key_is_named(self, overrides, path):
        with pytest.raises(SchemaError, match=rf"^{re.escape(path)}: unknown key"):
            parse_config(config_text(**overrides))

    def test_profile_keys_follow_the_profile(self):
        grid = {"family": "translation", "grid": {"x0": 0.0, "dx": 0.5, "n": 4}}
        base = {"backend": grid, "operators": {"a": {"speed": 1.0}}}
        cfg = parse_config(config_text(**base, initial_data=[{"profile": "polynomial", "coeffs": [1.0]}]))
        assert np.array_equal(cfg.materialize().initial_data[0], np.ones(4))
        with pytest.raises(SchemaError, match=r"^initial_data\[0\]\.coeffs: unknown key"):
            parse_config(config_text(**base, initial_data=[{"profile": "sin", "coeffs": [1.0]}]))

    @pytest.mark.parametrize("dimension", [1, 1.0])
    def test_declared_dimension_that_matches_is_accepted(self, dimension):
        config = parse_config(config_text(backend={"family": "spectral", "dimension": dimension}))
        assert config.dimension == 1

    @pytest.mark.parametrize("dimension", [5, "abc", 0, 2.5])
    def test_declared_dimension_is_checked(self, dimension):
        with pytest.raises(SchemaError, match=r"^backend\.dimension"):
            parse_config(config_text(backend={"family": "spectral", "dimension": dimension}))

    def test_bad_forcing_expression(self):
        with pytest.raises(SchemaError, match="forcing"):
            parse_config(config_text(forcing="__import__('os')"))

    def test_translation_profiles(self):
        cfg = parse_config(
            json.dumps(
                {
                    "backend": {
                        "family": "translation",
                        "grid": {"x0": 0.0, "dx": 0.1, "n": 32},
                        "boundary": "periodic",
                    },
                    "operators": {"T": {"speed": 1.0}},
                    "factors": ["T"],
                    "initial_data": [{"profile": "sin", "frequency": 2.0}],
                    "forcing": "cos(t) * sin(x)",
                    "time": {"t_end": 1.0, "samples": 3},
                }
            )
        )
        eq = cfg.materialize(0)
        x = cfg.grid.points()
        assert np.allclose(eq.initial_data[0], np.sin(2.0 * x))
        assert np.allclose(eq.forcing(0.5), np.cos(0.5) * np.sin(x))

    def test_grid_profile_rejected_for_spectral(self):
        with pytest.raises(SchemaError, match="grid"):
            parse_config(config_text(initial_data=[{"profile": "sin"}])).materialize(0)


class TestExpressionEvaluator:
    def test_arithmetic_and_functions(self):
        fn = compile_expression("2 * cos(t) + i", {"t", "i"}, "forcing")
        out = fn(t=0.0, i=np.arange(3.0))
        assert np.allclose(out, [2.0, 3.0, 4.0])

    def test_rejects_attribute_access(self):
        with pytest.raises(SchemaError):
            compile_expression("().__class__", set(), "forcing")

    def test_rejects_unknown_names(self):
        with pytest.raises(SchemaError):
            compile_expression("q + 1", {"t"}, "forcing")


class TestArrayForcing:
    """The compiled forcing takes a column of times as well as one time."""

    @pytest.mark.parametrize("text", ["1", "i", "cos(t) + 0.1 * i", "cos(t) * sin(x)"])
    def test_column_matches_per_time_calls(self, text):
        grid = UniformGrid(0.0, 2 * np.pi / 12, 12)
        forcing = cli._parse_forcing(text, grid, grid.n)
        assert forcing.vectorized
        times = np.concatenate([np.linspace(0.0, 3.0, 37), [0.1, 1e-9, 7.25]])
        stack = forcing.evaluator(times[:, None])
        per_time = np.stack([forcing(float(t)) for t in times])
        assert stack.shape == per_time.shape == (times.size, grid.n)
        assert np.array_equal(stack, per_time)
        assert np.array_equal(forcing.many(times, grid.n), per_time)

    @pytest.mark.parametrize("text, failure", [
        ("sqrt(t - 1)", "invalid value"), ("exp(1000 * t)", "overflow"), ("1 / (t - 0.75)", "(float division|divide) by zero"),
    ])
    def test_floating_point_failure_is_a_schema_error(self, text, failure):
        # one time and a column of times fail alike, with no numpy warning
        forcing = cli._parse_forcing(text, None, 3)
        expression = re.escape(repr(text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match=rf"{expression} fails at t=0\.75: {failure}"):
                forcing(0.75)
            with pytest.raises(SchemaError, match=rf"{expression} fails at t in \[0\.5, 1\]: {failure}"):
                forcing.many([0.5, 0.75, 1.0], 3)

    @pytest.mark.parametrize("command", ["solve", "compare-oracle", "verify"])
    @pytest.mark.parametrize("text", ["sqrt(t - 1)", "exp(1000 * t)"])
    def test_floating_point_failure_exit_code(self, tmp_path, capsys, command, text):
        # an error for solve and compare-oracle; verify fails the checks
        # that evaluate the forcing and goes on with the rest
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(RANDOM_DIAGONAL, forcing=text)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(cfg_path), "--out", str(tmp_path / "out.csv")])
        out, err = capsys.readouterr()
        assert code == (1 if command == "verify" else 2)
        failure = f"SchemaError: forcing: {text!r} fails at t in ["
        if command == "verify":
            assert f"FAIL solve: observed=nan tol=0.0e+00  [{failure}" in out
        else:
            assert failure in err

    def test_compare_oracle_calls_the_evaluator_once_per_chunk(self, tmp_path):
        # 5 sample intervals of 1000 RK4 steps each, and the Gauss-Kronrod
        # quadrature pass: one call each, never one per stage time
        config = parse_config(json.dumps(dict(RANDOM_DIAGONAL, time={"t_end": 2.5, "samples": 6})))
        calls = []

        def counting(t):
            calls.append(np.shape(t))
            return config_forcing.evaluator(t)

        config_forcing = config.forcing
        config.forcing = Forcing(counting, vectorized=True)
        code, report = run_command(config, "compare-oracle", seed=1, out=str(tmp_path / "out.csv"))
        assert code == 0, report.format()
        steps = [math.ceil(dt * config.oracle_steps_per_unit) for dt in np.diff(config.time_grid())]
        chunks = sum(math.ceil(s / equation._ORACLE_CHUNK_STEPS) for s in steps)
        assert steps == [1000] * 5
        assert len(calls) == chunks + 1
        assert all(len(shape) == 2 and shape[1] == 1 for shape in calls)


class TestWriteCsv:
    def test_single_sample(self, tmp_path):
        trace = SolutionTrace(np.array([0.0]), np.array([[1.0]]))
        path = tmp_path / "one.csv"
        write_csv(trace, str(path))
        assert path.read_text() == "t,u_0\n0,1\n"

    def test_deviation_column(self, tmp_path):
        trace = SolutionTrace(
            np.array([0.0, 1.0]),
            np.array([[1.0], [2.0]]),
            {"oracle_dev": np.array([0.0, 3e-9])},
        )
        path = tmp_path / "dev.csv"
        write_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,u_0,oracle_dev"
        assert float(lines[2].split(",")[2]) == 3e-9

    @pytest.mark.parametrize(
        "dev, expected",
        [
            (None, "t,u_0,u_1\n"
                   "0,-0,4.9406564584124654e-324\n"
                   "0.10000000000000001,1.0000000000000001e+300,0.33333333333333331\n"
                   "2,-2.5,1.0000000000000001e-05\n"),
            ([0.0, 3e-9, 1 / 7], "t,u_0,u_1,oracle_dev\n"
                                 "0,-0,4.9406564584124654e-324,0\n"
                                 "0.10000000000000001,1.0000000000000001e+300,0.33333333333333331,3e-09\n"
                                 "2,-2.5,1.0000000000000001e-05,0.14285714285714285\n"),
        ],
        ids=["values", "with-oracle-dev"],
    )
    def test_bytes_are_pinned(self, tmp_path, dev, expected):
        # signed zero, a subnormal and a huge value keep their 17-digit text
        times = np.array([0.0, 0.1, 2.0])
        values = np.array([[-0.0, 5e-324], [1e300, 1 / 3], [-2.5, 1e-5]])
        diagnostics = {} if dev is None else {"oracle_dev": np.array(dev)}
        path = tmp_path / "pinned.csv"
        write_csv(SolutionTrace(times, values, diagnostics), str(path))
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("excess, raises", [(1.0, False), (2.0, True)])
    def test_complex_trace_keeps_its_real_part_up_to_roundoff(self, tmp_path, excess, raises):
        # the largest |u| is 4, so an imaginary part up to 4e-12 is roundoff
        # and the real trace is written; twice that is refused, with no file
        times = np.array([0.0, 1.0])
        real = np.array([[1.0, -4.0], [0.5, 2.0]])
        values = real.astype(np.complex128)
        values[0, 0] += 1j * excess * 1e-12 * 4.0
        path, real_path = tmp_path / "complex.csv", tmp_path / "real.csv"
        if raises:
            with pytest.raises(UnsupportedOperationError, match="real traces only"):
                write_csv(SolutionTrace(times, values), str(path))
            assert not path.exists()
        else:
            write_csv(SolutionTrace(times, values), str(path))
            write_csv(SolutionTrace(times, real), str(real_path))
            assert path.read_bytes() == real_path.read_bytes()

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        times = np.sort(rng.uniform(0.0, 2.0, 7))
        values = rng.standard_normal((7, 3))
        path = tmp_path / "rt.csv"
        write_csv(SolutionTrace(times, values), str(path))
        lines = path.read_text().splitlines()[1:]
        parsed = np.array([[float(cell) for cell in line.split(",")] for line in lines])
        assert np.array_equal(parsed[:, 0], times)
        assert np.array_equal(parsed[:, 1:], values)


class TestCommands:
    def test_solve_minimal(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        out_path = tmp_path / "trace.csv"
        assert main(["solve", str(cfg_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,u_0"
        assert lines[1] == "0,1"
        assert len(lines) == 4

    def test_solve_is_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RANDOM_DIAGONAL))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", str(cfg_path), "--seed", "3", "--out", str(out1)]) == 0
        assert main(["solve", str(cfg_path), "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compare_oracle_passes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RANDOM_DIAGONAL))
        out_path = tmp_path / "trace.csv"
        code = main(["compare-oracle", str(cfg_path), "--seed", "5", "--out", str(out_path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS oracle-equivalence" in captured
        lines = out_path.read_text().splitlines()
        assert lines[0].endswith(",oracle_dev")
        devs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(devs) <= 1e-6

    def test_verify_passes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RANDOM_DIAGONAL))
        assert main(["verify", str(cfg_path), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        for name in (
            "coefficient-residual",
            "initial-derivative-fidelity",
            "oracle-equivalence",
            "convolution-identity",
            "quadrature-convergence",
        ):
            assert name in out

    def test_solve_accepts_wide_laplacian_mode_pair(self, tmp_path, capsys):
        # eigenvalues up to 4e4: modal factors commute exactly, however wide
        k2 = [float(k * k) for k in range(1, 21)]
        cfg = {
            "backend": {"family": "spectral"},
            "operators": {
                "A": {"eigenvalues": [-v for v in k2], "scale": 100.0},
                "B": {"eigenvalues": [-(v + 0.5) for v in k2], "scale": 100.0},
            },
            "factors": ["A", "B"],
            "initial_data": [{"profile": "random-normal"}] * 2,
            "forcing": "none",
            "time": {"t_end": 0.01, "samples": 5},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "trace.csv"
        assert main(["solve", str(cfg_path), "--out", str(out_path)]) == 0, capsys.readouterr()
        assert len(out_path.read_text().splitlines()) == 6

    def test_verify_surfaces_singular_system(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(RANDOM_DIAGONAL))
        cfg["operators"] = {
            "A": {"eigenvalues": [-1.0, -2.0, 0.5]},
            "B": {"eigenvalues": [-1.0, -2.0, 0.5]},
        }
        cfg["backend"] = {"family": "spectral"}
        cfg["factors"] = ["A", "B"]
        cfg["initial_data"] = [{"profile": "random-normal"}] * 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", str(cfg_path)]) == 1
        out = capsys.readouterr().out
        assert "SingularSystemError" in out
        assert "'A'" in out and "'B'" in out

    def test_oracle_step_count_past_float_range(self, tmp_path, capsys):
        # the closed form decays to zero by t = 1e308, where the oracle's
        # step count is no float
        cfg = {
            "backend": {"family": "spectral"},
            "operators": {"A": {"eigenvalues": [-1.0, -2.0]}, "B": {"eigenvalues": [-0.5, -0.25]}},
            "factors": ["A", "B"],
            "initial_data": [[1.0, 0.0], [0.0, 1.0]],
            "forcing": "none",
            "time": {"t_end": 1e308, "samples": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = ["--out", str(tmp_path / "trace.csv")]
        assert main(["solve", str(cfg_path), *out]) == 0
        assert main(["verify", str(cfg_path)]) == 1
        report = capsys.readouterr().out
        assert "FAIL oracle-equivalence: observed=nan tol=0.0e+00  [OracleStepOverflowError: " in report
        assert "interval [0, 1e+308]" in report
        assert "PASS coefficient-residual" in report
        assert main(["compare-oracle", str(cfg_path), *out]) == 2
        assert "error: OracleStepOverflowError: " in capsys.readouterr().err

    def test_oracle_stage_times_past_the_int64_range(self, tmp_path, capsys):
        # at t = 1e300 the step count is a float, far over the oracle's step
        # budget: a named error, not a traceback
        cfg = {
            "backend": {"family": "spectral"},
            "operators": {"A": {"eigenvalues": [-1.0, -2.0]}, "B": {"eigenvalues": [-0.5, -0.25]}},
            "factors": ["A", "B"],
            "initial_data": [[1.0, 0.0], [0.0, 1.0]],
            "forcing": "none",
            "time": {"t_end": 1e300, "samples": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = ["--out", str(tmp_path / "trace.csv")]
        assert main(["verify", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL oracle-equivalence: observed=nan tol=0.0e+00  [OracleStepOverflowError: " in captured.out
        assert "interval [0, 1e+300]" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert main(["compare-oracle", str(cfg_path), *out]) == 2
        captured = capsys.readouterr()
        assert "error: OracleStepOverflowError: " in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_oracle_step_budget_fails_fast(self, tmp_path, capsys):
        # 2e12 RK4 steps at t_end = 1e9 would run for days; the budget
        # refuses them before the first step
        cfg = {
            "backend": {"family": "spectral"},
            "operators": {"A": {"eigenvalues": [-1.0, -2.0]}, "B": {"eigenvalues": [-0.5, -0.25]}},
            "factors": ["A", "B"],
            "initial_data": [[1.0, 0.0], [0.0, 1.0]],
            "forcing": "none",
            "time": {"t_end": 1e9, "samples": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        assert main(["compare-oracle", str(cfg_path), "--out", str(tmp_path / "trace.csv")]) == 2
        assert "error: OracleStepOverflowError: the oracle needs 2e+12 RK4 steps" in capsys.readouterr().err
        assert main(["verify", str(cfg_path)]) == 1
        assert "FAIL oracle-equivalence: observed=nan tol=0.0e+00  [OracleStepOverflowError: " in capsys.readouterr().out
        assert time.perf_counter() - start < 10.0

    def test_verify_solves_the_sample_grid_once(self, monkeypatch):
        config = parse_config(json.dumps(RANDOM_DIAGONAL))
        sample_grid = config.time_grid()
        materialize = ProblemConfig.materialize
        equations, solves = [], []

        def recording_materialize(self, seed=0):
            equations.append(materialize(self, seed))
            return equations[-1]

        def counting_solve(eq, t_grid, *args, **kwargs):
            if eq is equations[0] and np.array_equal(t_grid, sample_grid):
                solves.append(t_grid)
            return solve_full(eq, t_grid, *args, **kwargs)

        monkeypatch.setattr(ProblemConfig, "materialize", recording_materialize)
        monkeypatch.setattr(cli, "solve_full", counting_solve)
        monkeypatch.setattr(solver, "solve_full", counting_solve)
        report = run_verify(config, seed=5)
        assert report.passed and "oracle-equivalence" in report.format()
        assert len(equations) == 1 and len(solves) == 1

    def test_forced_verify_runs_the_commutation_gate_once(self, monkeypatch):
        # the quadrature check reuses the grouped factors and the gate's verdict
        gate = FactoredEquation.__dict__["_commutation_gate"].__func__
        calls = []

        def counting_gate(grouped):
            calls.append(len(grouped))
            return gate(grouped)

        monkeypatch.setattr(FactoredEquation, "_commutation_gate", staticmethod(counting_gate))
        report = run_verify(parse_config(json.dumps(RANDOM_DIAGONAL)), seed=5)
        assert report.passed, report.format()
        assert "quadrature-convergence" in report.format()
        assert calls == [3]

    def test_quadrature_convergence_compares_the_panel_doubling_pair(self):
        # With 11 samples the 2-panel rule gives one panel per sample interval
        # against two: the 2-node Gauss rule (order 4) cuts the error by ~16.
        config = parse_config(json.dumps(dict(RANDOM_DIAGONAL, time={"t_end": 1.5, "samples": 11})))
        report = run_verify(config, seed=5)
        (record,) = [r for r in report.records if r.name == "quadrature-convergence"]
        ratio = float(record.note.split()[2].rstrip(","))
        assert record.passed and 14.0 <= ratio <= 18.0

    def test_quadrature_convergence_runs_the_reference_pass_once(self):
        # one 32-panel reference pass on the single sample interval and the
        # 2-node pair of 2 and 4 panels, each panel of q Gauss nodes and
        # q + 1 Kronrod nodes
        config = parse_config(json.dumps(dict(
            RANDOM_DIAGONAL, factors=["B", "C"], initial_data=[{"profile": "random-normal"}] * 2,
            forcing="sin(0.8 * t) + 0.05 * i * t", time={"t_end": 1.0, "samples": 2},
        )))
        eq = config.materialize(seed=1)
        calls = []

        def counting(t):
            calls.append(t)
            return eq.forcing(t)

        counted = FactoredEquation(eq.factors, eq.initial_data, Forcing(counting))
        report = cli.VerificationReport()
        cli._quadrature_convergence_record(counted, config.time_grid(), report)
        assert report.passed and "error ratio" in report.format()
        assert len(calls) == 32 * 17 + (2 + 4) * 5

    def test_quadrature_convergence_solves_the_forcing_weights_once(self, monkeypatch):
        # the reference pass and the coarse pair share one z solve and gate
        config = parse_config(json.dumps(RANDOM_DIAGONAL))
        eq = config.materialize(seed=1)
        gate = confluent._residual_gate
        gated = []

        def counting_gate(*args):
            gated.append(args[-1])
            return gate(*args)

        monkeypatch.setattr(confluent, "_residual_gate", counting_gate)
        report = cli.VerificationReport()
        cli._quadrature_convergence_record(eq, config.time_grid(), report)
        assert report.passed and "error ratio" in report.format()
        assert gated == ["forcing-weight"]

    def test_verify_records_a_quadrature_at_the_roundoff_floor(self, tmp_path, capsys):
        # u'' = 1 from zero data is t^2 / 2, which every Gauss rule
        # integrates exactly: both coarse errors sit at roundoff, so the
        # record passes without forming an error ratio
        cfg = {
            "backend": {"family": "spectral"},
            "operators": {"A": {"eigenvalues": [0.0, 0.0, 0.0]}},
            "factors": ["A", "A"],
            "initial_data": [[0.0] * 3] * 2,
            "forcing": "1",
            "time": {"t_end": 1.0, "samples": 5},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["verify", str(cfg_path)]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines() if "quadrature-convergence" in line]
        assert line.startswith("PASS quadrature-convergence: observed=0.000e+00 ")
        assert line.endswith("[errors at roundoff floor]")

    def test_forced_verify_solves_the_forcing_weights_once(self, monkeypatch):
        # the solve and the quadrature check share the held matrix, which
        # keeps its z: one z solve and one reading of its gate per verify
        gate = confluent._residual_gate
        gated = []

        def counting_gate(*args):
            gated.append(args[-1])
            return gate(*args)

        monkeypatch.setattr(confluent, "_residual_gate", counting_gate)
        report = run_verify(parse_config(json.dumps(RANDOM_DIAGONAL)), seed=1)
        assert report.passed, report.format()
        assert "PASS quadrature-convergence" in report.format()
        assert gated.count("forcing-weight") == 1

    def test_forced_dense_verify_factorizes_the_users_matrix_once(self, monkeypatch):
        # the convolution-identity check builds its single-factor matrices
        # outside build_confluent_matrix, so the quadrature check after it still
        # finds the user's M factorized: one LU of the defective pair's M
        cfg = {
            "backend": {"family": "dense"},
            "operators": {
                "A": {"matrix": [[-1.0, 0.5], [0.0, -1.0]]},
                "B": {"matrix": [[0.3, 0.8], [0.0, 0.3]]},
            },
            "factors": ["A", "A", "B"],
            "initial_data": [[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]],
            "forcing": "cos(t) + 0.1 * i",
            "time": {"t_end": 1.0, "samples": 3},
        }
        factorization = confluent.BlockOperatorMatrix.__dict__["_factorization"]
        built = []

        def counting(matrix):
            built.append(tuple(op.label for op, _ in matrix.grouped))
            return factorization.func(matrix)

        counted = functools.cached_property(counting)
        counted.__set_name__(confluent.BlockOperatorMatrix, "_factorization")
        monkeypatch.setattr(confluent.BlockOperatorMatrix, "_factorization", counted)
        report = run_verify(parse_config(json.dumps(cfg)), seed=1)
        assert report.passed, report.format()
        names = [record.name for record in report.records]
        assert sum(name.startswith("convolution-identity[A,B,") for name in names) == 4
        assert names[-1] == "quadrature-convergence"
        assert built.count(("A", "B")) == 1

    def test_verify_forced_wide_band_passes(self):
        # Differencing the forced part on the tiny derivative-check grids
        # used to trip the panel-doubling gate (5.4e-3 relative) although
        # the oracle agrees to roundoff.
        config = parse_config(json.dumps({**WIDE_BAND, "forcing": "sin(2*t) + i*t"}))
        report = run_verify(config, seed=1)
        assert report.passed, report.format()

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_verify_unforced_wide_band_reads_exact_derivatives(self, seed):
        # finite-difference stencils read 1.7e-2 to 8.5e-2 on these seeds
        initial = [{"profile": "random-normal"}] * len(WIDE_BAND["factors"])
        config = parse_config(json.dumps({**WIDE_BAND, "initial_data": initial}))
        report = run_verify(config, seed=seed)
        assert report.passed, report.format()
        (record,) = [r for r in report.records if r.name == "initial-derivative-fidelity"]
        assert record.observed <= 1e-9

    def test_verify_fails_on_corrupted_forcing_weights(self, monkeypatch):
        init = confluent.ZCoefficients.__init__

        def corrupted(self, matrix):
            init(self, matrix)
            self.zeta = self.zeta * (1.0 + 1e-6)

        monkeypatch.setattr(confluent.ZCoefficients, "__init__", corrupted)
        report = run_verify(parse_config(json.dumps(RANDOM_DIAGONAL)), seed=5)
        assert not report.passed
        assert "forcing-weight solve failed the residual gate" in report.format()

    def test_verify_runs_each_check_on_its_own(self, monkeypatch):
        def raising(*args):
            raise QuadratureUnderResolvedError("derivative check failed")

        monkeypatch.setattr(cli, "initial_derivative_defect", raising)
        report = run_verify(parse_config(json.dumps(RANDOM_DIAGONAL)), seed=5)
        failed = [r.name for r in report.records if not r.passed]
        assert failed == ["initial-derivative-fidelity"]
        assert "PASS oracle-equivalence" in report.format()
        assert "PASS quadrature-convergence" in report.format()

    def test_verify_checks_periodic_translation_against_oracle(self):
        report = run_verify(parse_config(json.dumps(PERIODIC_TRANSLATION)), seed=0)
        assert report.passed, report.format()
        assert "PASS oracle-equivalence" in report.format()
        # distinct periodic speeds coincide on the constant mode, which the
        # identity's probe leaves unexcited
        identity = [r for r in report.records if r.name.startswith("convolution-identity[S,F,")]
        assert len(identity) == 4 and all(r.passed for r in identity)

    @pytest.mark.parametrize("config", [PERIODIC_TRANSLATION, COINCIDENT_SPECTRAL],
                             ids=["translation", "spectral"])
    @pytest.mark.parametrize("command", ["solve", "verify", "lemma2-check"])
    def test_coincident_modes_pass_the_solver_and_its_referees(self, tmp_path, capsys, config, command):
        # modes where two distinct factors coincide carry no data, so the
        # solver accepts the problem and every referee must too: the
        # identity's probe is zeroed on the modes its pair shares
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main([command, str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 0, capsys.readouterr()
        if command != "solve":
            out = capsys.readouterr().out
            assert out.count("PASS convolution-identity[") == 4 and "FAIL" not in out

    def test_compare_oracle_accepts_periodic_translation(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(PERIODIC_TRANSLATION))
        out_path = tmp_path / "trace.csv"
        assert main(["compare-oracle", str(cfg_path), "--out", str(out_path)]) == 0
        assert "PASS oracle-equivalence" in capsys.readouterr().out
        assert out_path.read_text().splitlines()[0].endswith(",oracle_dev")

    def test_compare_oracle_accepts_zero_extension(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(ZERO_EXTENSION))
        assert main(["compare-oracle", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 0
        assert "PASS oracle-equivalence" in capsys.readouterr().out

    def test_zero_extension_materializes_the_central_difference(self):
        (op,) = parse_config(json.dumps(ZERO_EXTENSION)).materialize(0).factors
        expected = central_difference_operator("T", 0.7, UniformGrid(-4.0, 0.1, 81))
        assert op.family == "dense"
        assert np.array_equal(op.matrix, expected.matrix)

    def test_verify_passes_repeated_zero_extension_factor(self):
        cfg = dict(ZERO_EXTENSION, factors=["T", "T"],
                   initial_data=[{"profile": "gaussian"}, {"profile": "gaussian", "center": 0.5}])
        report = run_verify(parse_config(json.dumps(cfg)), seed=0)
        assert report.passed, report.format()
        assert "PASS initial-derivative-fidelity" in report.format()
        assert "PASS oracle-equivalence" in report.format()

    def test_verify_passes_forced_zero_extension_pair(self):
        report = run_verify(parse_config(json.dumps(ZERO_EXTENSION_PAIR)), seed=0)
        assert report.passed, report.format()
        names = [record.name for record in report.records]
        assert names[:3] == ["coefficient-residual", "initial-derivative-fidelity",
                             "oracle-equivalence"]
        assert names[-1] == "quadrature-convergence"
        assert sum(name.startswith("convolution-identity[T,S,") for name in names) == 4

    def test_distinct_zero_extension_speeds_need_an_even_grid(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(ZERO_EXTENSION_PAIR))
        cfg["backend"]["grid"]["n"] = 81
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "SingularSystemError" in err and "['T', 'S']" in err

    def test_lemma2_check(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(RANDOM_DIAGONAL))
        assert main(["lemma2-check", str(cfg_path)]) == 0
        assert "k=3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content",
        [b"{not json", b'{"backend": \xff}', b"[" * 1500],
        ids=["not-json", "not-utf8", "nested-too-deep"],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, content):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(content)
        assert main(["solve", str(cfg_path)]) == 2
        assert "error: SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"forcing": "1/0"},
            {"initial_data": [{"profile": "sin", "amplitude": "big"}]},
            {"initial_data": [{"profile": "random-normal", "scale": "x"}]},
            {"backend": {"family": "translation", "grid": {"x0": 0.0, "dx": 0.1, "n": 1}}},
            {"time": {"t_end": float("inf"), "samples": 3}},
            {"time": {"t_end": float("nan"), "samples": 3}},
            {"backend": {"family": "translation", "grid": {"x0": 0.0, "dx": float("nan"), "n": 8}}},
            {"operators": {"": {"speed": 1.0}}, "factors": [""]},
            {"time": {"t_end": 1.0, "samples": 2.9}},
            {
                "backend": {"family": "spectral", "dimension": True},
                "operators": {"T": {"eigenvalues": {"random-uniform": {"low": -1.0, "high": 0.0}}}},
                "initial_data": [{"profile": "random-normal"}],
            },
            {"initial_data": [{"profile": "gaussian", "width": 0}]},
            {"forcing": "9**9**9"},
            {"forcing": "t * True"},
            {"forcing": "t * 1" + "0" * 400},
            {"forcng": "cos(t)"},
            {"quadrature": {"panel": 2}},
            {"quadrature": {"kind": "composite-simpson", "nodes_per_panel": 3}},
            {"quadrature": {"nodes_per_panel": 600}},
            {"time": {"t_end": 1.0, "samples": 3, "sample": 9}},
            {
                "backend": {"family": "dense"},
                "operators": {"T": {"matrix": [[0.0]], "scale": 2.0}},
                "initial_data": [[0.0]],
            },
            {
                "backend": {"family": "dense", "grid": {"x0": 0.0, "dx": 0.1, "n": 8}},
                "operators": {"T": {"matrix": [[0.0]]}},
                "initial_data": [[0.0]],
            },
            {
                "backend": {"family": "dense", "boundary": "periodic"},
                "operators": {"T": {"matrix": [[0.0]]}},
                "initial_data": [[0.0]],
            },
            {"backend": {"family": "translation", "grid": {"x0": 0.0, "dx": 0.1, "n": 8, "m": 2}}},
            {"operators": {"T": {"speed": 1.0, "sped": 2.0}}},
            {"oracle": {"steps_per_unit": 100, "step": 1}},
            {"initial_data": [{"profile": "sin", "frequncy": 2.0}]},
            {
                "backend": {"family": "dense", "dimension": 5},
                "operators": {"T": {"matrix": [[0.0, 1.0], [1.0, 0.0]]}},
                "initial_data": [[0.0, 0.0]],
            },
            {
                "backend": {"family": "dense", "dimension": "abc"},
                "operators": {"T": {"matrix": [[0.0]]}},
                "initial_data": [[0.0]],
            },
            {"backend": {"family": "translation", "dimension": 9, "grid": {"x0": 0.0, "dx": 0.1, "n": 8}}},
        ],
        ids=[
            "forcing-division-by-zero",
            "sin-amplitude",
            "random-normal-scale",
            "one-point-grid",
            "t_end-infinity",
            "t_end-nan",
            "grid-dx-nan",
            "empty-label",
            "samples-fractional",
            "dimension-bool",
            "gaussian-zero-width",
            "forcing-power-overflow",
            "forcing-bool-constant",
            "forcing-constant-past-float-range",
            "root-misspelled-forcing",
            "quadrature-misspelled-panels",
            "quadrature-kind",
            "quadrature-nodes-past-the-bound",
            "time-unknown-sample",
            "dense-operator-scale",
            "dense-backend-grid",
            "dense-backend-boundary",
            "grid-unknown-key",
            "translation-operator-unknown-key",
            "oracle-unknown-key",
            "profile-misspelled-parameter",
            "dense-dimension-mismatch",
            "dense-dimension-not-a-number",
            "translation-dimension-mismatch",
        ],
    )
    def test_bad_config_value_exit_code(self, tmp_path, capsys, overrides):
        cfg = {
            "backend": {"family": "translation", "grid": {"x0": 0.0, "dx": 0.1, "n": 8}},
            "operators": {"T": {"speed": 1.0}},
            "factors": ["T"],
            "initial_data": [[0.0] * 8],
            "forcing": "none",
            "time": {"t_end": 1.0, "samples": 3},
            **overrides,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert "SchemaError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"time": {"t_end": 1.0, "samples": 1e15}},
            {
                "backend": {"family": "spectral", "dimension": 1e15},
                "operators": {"a": {"eigenvalues": {"random-uniform": {"low": -1.0, "high": 0.0}}}},
                "initial_data": [{"profile": "random-normal"}],
            },
            {"quadrature": {"panels": 1e15}, "forcing": "cos(t)"},
        ],
        ids=["samples", "drawn-dimension", "panels"],
    )
    def test_sizes_past_the_address_space_exit_code(self, tmp_path, capsys, overrides):
        # 1e15 float64 entries are 7 PiB, past a 64-bit host's 128 TiB of
        # address space, so the allocation fails at once
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(**overrides))
        assert main(["solve", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_bare_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "run_command", exhausted)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        assert main(["solve", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["solve", "verify", "compare-oracle", "lemma2-check"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, command):
        # the seed is a count from 0 up (statespace.as_count): a negative one
        # is bad input, not a failed check or a traceback from default_rng
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text())
        assert main([command, str(cfg_path), "--seed", "-1", "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "error: InvalidInputError: seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_command(parse_config(config_text()), "plot")
