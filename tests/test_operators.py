import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    MixedBackendError,
    NonFiniteError,
    NotInvertibleError,
    SemigroupOverflowError,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
    UnsupportedOperationError,
    commutation_defect,
    resolvent_solve,
)
from factored_evolution import operators, statespace
from factored_evolution.equation import COMMUTATION_TOL
from factored_evolution.operators import shared_mode_basis

from conftest import (
    central_difference_operator,
    defective_operator,
    random_dense_commuting_instance,
    random_dense_polynomial_instance,
    random_spectral_instance,
)


def periodic_grid(n=64, length=2 * np.pi):
    return UniformGrid(0.0, length / n, n)


class TestApply:
    def test_spectral_diagonal_action(self):
        op = SpectralDiagonalOperator("L", [1.0, 4.0, 9.0], scale=-1.0)
        assert np.array_equal(op.apply(np.ones(3)), [-1.0, -4.0, -9.0])

    def test_dense_zero_matrix(self):
        op = DenseMatrixOperator("Z", np.zeros((3, 3)))
        assert np.array_equal(op.apply(np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_translation_spectral_derivative(self):
        grid = periodic_grid(128)
        x = grid.points()
        op = TranslationOperator("T", 1.0, grid)
        assert np.max(np.abs(op.apply(np.sin(x)) - np.cos(x))) <= 1e-8

    def test_dimension_mismatch(self):
        op = SpectralDiagonalOperator("L", [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            op.apply(np.ones(3))

    @pytest.mark.parametrize("matrix", [np.zeros((0, 0)), np.zeros((0, 3)), []])
    def test_empty_matrix_is_rejected(self, matrix):
        # as empty eigenvalues are, before any solve reduces over no entries
        with pytest.raises(DimensionMismatchError, match="non-empty"):
            DenseMatrixOperator("D", matrix)


class TestSemigroup:
    def test_t_zero_is_exact_identity(self):
        grid = periodic_grid(32)
        for op in (
            DenseMatrixOperator("D", np.array([[0.0, 1.0], [-1.0, 0.0]])),
            SpectralDiagonalOperator("S", [-1.0, -2.0]),
            TranslationOperator("T", 1.5, grid),
        ):
            v = np.linspace(-1.0, 2.0, op.dim)
            assert np.array_equal(op.semigroup(0.0, v), v)

    def test_spectral_decay(self):
        op = SpectralDiagonalOperator("S", [-1.0, -2.0])
        out = op.semigroup(1.0, np.ones(2))
        assert np.allclose(out, [np.exp(-1.0), np.exp(-2.0)], rtol=1e-14, atol=0)

    def test_translation_shift(self):
        grid = periodic_grid(128)
        x = grid.points()
        op = TranslationOperator("T", 2.0, grid)
        out = op.semigroup(0.5, np.sin(x))
        assert np.max(np.abs(out - np.sin(x + 1.0))) <= 1e-8

    def test_translation_is_a_group(self):
        grid = periodic_grid(64)
        v = np.cos(grid.points())
        op = TranslationOperator("T", 1.0, grid)
        back = op.semigroup(-0.7, op.semigroup(0.7, v))
        assert np.max(np.abs(back - v)) <= 1e-12

    def test_translation_norm_preserving(self):
        grid = periodic_grid(64)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(64)
        op = TranslationOperator("T", 0.9, grid)
        assert abs(np.linalg.norm(op.semigroup(1.3, v)) - np.linalg.norm(v)) <= 1e-10 * np.linalg.norm(v)

    @pytest.mark.parametrize("backend", ["dense-sym", "dense-nonsym", "spectral", "translation"])
    def test_semigroup_law(self, backend):
        rng = np.random.default_rng(8)
        if backend == "dense-sym":
            a = rng.standard_normal((4, 4))
            op = DenseMatrixOperator("D", 0.5 * (a + a.T))
            v = rng.standard_normal(4)
        elif backend == "dense-nonsym":
            op = DenseMatrixOperator("D", rng.standard_normal((4, 4)) * 0.5)
            v = rng.standard_normal(4)
        elif backend == "spectral":
            op = SpectralDiagonalOperator("S", rng.uniform(-2, 0.5, 6))
            v = rng.standard_normal(6)
        else:
            grid = periodic_grid(64)
            op = TranslationOperator("T", 1.2, grid)
            v = np.sin(grid.points()) + 0.3 * np.cos(2 * grid.points())
        for t, s in rng.uniform(0.0, 2.0, (5, 2)):
            once = op.semigroup(t + s, v)
            twice = op.semigroup(s, op.semigroup(t, v))
            assert np.max(np.abs(once - twice)) <= 1e-9 * max(1.0, np.max(np.abs(once)))

    def test_spectral_overflow(self):
        op = SpectralDiagonalOperator("S", [5.0])
        with pytest.raises(SemigroupOverflowError):
            op.semigroup(1000.0, np.ones(1))

    @pytest.mark.parametrize("t", [1e308, np.inf])
    @pytest.mark.parametrize("family", ["spectral", "dense-hermitian"])
    def test_overflowing_time_product_raises_the_named_error(self, family, t):
        # 1e308 * 2 overflows in the product t * lambda, and must surface as
        # the named error; t = inf, where inf * 0 would be nan, is refused as
        # a time before any product.  Neither gives a numpy warning
        values = [2.0, 0.0]
        op = SpectralDiagonalOperator("S", values) if family == "spectral" else DenseMatrixOperator(
            "D", np.diag(values)
        )
        with pytest.raises(SemigroupOverflowError if np.isfinite(t) else ValueError):
            op.semigroup(t, np.ones(2))

    @pytest.mark.parametrize(
        "backend",
        ["dense-sym", "dense-nonsym", "spectral", "spectral-complex", "periodic",
         "periodic-complex", "zero-extension"],
    )
    def test_semigroup_many_matches_rows(self, backend):
        # one batched call equals a semigroup call per row, t = 0 included
        rng = np.random.default_rng(9)
        d = 16
        if backend == "dense-sym":
            a = rng.standard_normal((d, d))
            op = DenseMatrixOperator("D", 0.5 * (a + a.T))
        elif backend == "dense-nonsym":
            op = DenseMatrixOperator("D", 0.5 * rng.standard_normal((d, d)))
        elif backend.startswith("spectral"):
            op = SpectralDiagonalOperator("S", rng.uniform(-2, 0.5, d),
                                          scale=1.0 + 0.5j if backend.endswith("complex") else 1.0)
        elif backend == "zero-extension":
            op = central_difference_operator("T", 0.8, periodic_grid(d))
        else:
            speed = 0.8 + 0.1j if backend.endswith("complex") else 0.8
            op = TranslationOperator("T", speed, periodic_grid(d))
        taus = np.array([1.3, 0.7, 0.0, 0.2])
        vs = rng.standard_normal((taus.size, d))
        batched = op.semigroup(taus, vs)
        rows = np.stack([op.semigroup(t, v) for t, v in zip(taus, vs)])
        assert batched.dtype == rows.dtype
        assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))
        assert np.array_equal(batched[taus == 0.0], vs[taus == 0.0])
        with pytest.raises(DimensionMismatchError):
            op.semigroup(taus[:-1], vs)


def random_operator(rng, family, d):
    """One generator of ``family``: the spectral and dense Hermitian ones
    from the shared instance generators, the rest drawn here."""
    if family == "spectral":
        return random_spectral_instance(rng, 1, d).factors[0]
    if family == "spectral-complex":
        return SpectralDiagonalOperator("S", rng.uniform(-2.0, 0.5, d), scale=1.0 + 0.5j)
    if family == "dense-hermitian":
        return random_dense_commuting_instance(rng, 1, d).factors[0]
    if family == "dense-skew-hermitian":
        a = rng.standard_normal((d, d))
        return DenseMatrixOperator("K", a - a.T)
    if family == "dense-non-hermitian":
        return DenseMatrixOperator("N", rng.standard_normal((d, d)) / np.sqrt(d))
    if family == "dense-diagonalizable":
        return random_dense_polynomial_instance(rng, 1, d).factors[0]
    if family == "dense-defective":
        return defective_operator("J", rng.uniform(-1.0, 0.5), rng.uniform(0.5, 1.0), d)
    speed = rng.uniform(-1.5, 1.5) + (0.2j if family == "periodic-complex" else 0.0)
    return TranslationOperator("T", speed, periodic_grid(d))


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    family=st.sampled_from(
        ["spectral", "dense-hermitian", "dense-non-hermitian", "periodic", "periodic-complex"]
    ),
    d=st.integers(2, 8),
    m=st.integers(1, 6),
    complex_data=st.booleans(),
)
@example(seed=1, family="dense-hermitian", d=6, m=5, complex_data=False)
@example(seed=2, family="dense-non-hermitian", d=5, m=6, complex_data=True)
@example(seed=3, family="dense-defective", d=5, m=6, complex_data=True)
def test_array_time_rows_equal_scalar_calls(seed, family, d, m, complex_data):
    rng = np.random.default_rng(seed)
    op = random_operator(rng, family, d)
    taus = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 2.0, m))
    vs = rng.standard_normal((m, d))
    if complex_data:
        vs = vs + 1j * rng.standard_normal((m, d))
    batched = op.semigroup(taus, vs)
    rows = np.array([op.semigroup(float(t), v) for t, v in zip(taus, vs)])
    assert np.max(np.abs(batched - rows)) <= 1e-14 * np.max(np.abs(rows))
    assert np.array_equal(batched[taus == 0.0], vs[taus == 0.0])
    assert batched.dtype == op.semigroup(1.0, vs[0]).dtype


@pytest.mark.parametrize(
    "family",
    ["spectral", "spectral-complex", "periodic", "periodic-complex", "dense-hermitian",
     "dense-skew-hermitian", "dense-non-hermitian", "dense-defective"],
)
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    d=st.integers(2, 8),
    m=st.integers(1, 6),
    complex_data=st.booleans(),
)
@example(seed=3, d=4, m=0, complex_data=False)
def test_semigroup_is_the_action_in_the_operator_basis(family, seed, d, m, complex_data):
    # semigroup = to the basis, propagate, back, then the exact t = 0 rows:
    # bit for bit, and propagate leaves its operand as it was; an empty
    # stack gives an empty (0, d) stack
    rng = np.random.default_rng(seed)
    op = random_operator(rng, family, d)
    taus = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 2.0, m))
    vs = rng.standard_normal((m, d))
    if complex_data:
        vs = vs + 1j * rng.standard_normal((m, d))
    basis = shared_mode_basis((op,))
    v_hat = basis.to_modes(vs)
    kept = v_hat.copy()
    acted = basis.from_modes(op.propagate(taus, v_hat), vs)
    assert np.array_equal(v_hat, kept)
    out = op.semigroup(taus, vs)
    moving = taus != 0.0
    assert out.dtype == acted.dtype
    assert np.array_equal(out[moving], acted[moving])
    assert np.array_equal(out[~moving], vs[~moving])
    assert out.shape == (m, d)


@pytest.mark.parametrize("complex_data", [False, True])
@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize(
    "family",
    ["spectral", "spectral-complex", "periodic", "periodic-complex", "dense-hermitian",
     "dense-skew-hermitian", "dense-non-hermitian", "dense-diagonalizable", "dense-defective"],
)
def test_propagate_broadcasts_one_row_of_times_over_a_stack(family, r, complex_data):
    # an (r, m, d) stack in one call gives the r calls on its (m, d) slices
    # bit for bit, and leaves the stack as it was
    rng = np.random.default_rng(47)
    d, m = 6, 5
    op = random_operator(rng, family, d)
    taus = rng.uniform(0.0, 2.0, m)
    vs = rng.standard_normal((r, m, d))
    if complex_data:
        vs = vs + 1j * rng.standard_normal((r, m, d))
    v_hat = shared_mode_basis((op,)).to_modes(vs)
    kept = v_hat.copy()
    stacked = op.propagate(taus, v_hat)
    assert np.array_equal(v_hat, kept)
    assert stacked.shape == (r, m, d)
    slices = [op.propagate(taus, v) for v in v_hat]
    assert all(out.dtype == ref.dtype and np.array_equal(out, ref) for out, ref in zip(stacked, slices))


def test_pade_stack_crosses_chunks_along_the_times(monkeypatch):
    # chunks of 2 times cut m = 5 into 2 + 2 + 1 along axis -2; the chunked
    # stack equals the one-chunk stack and each of its slices, bit for bit
    rng = np.random.default_rng(48)
    op = random_operator(rng, "dense-defective", 4)
    assert op.propagate.func is statespace._pade_expm_apply
    taus = rng.uniform(0.0, 2.0, 5)
    vs = rng.standard_normal((3, 5, 4))
    whole = op.propagate(taus, vs)
    monkeypatch.setattr(statespace, "EXPM_STACK_ENTRIES", 2 * op.matrix.size)
    chunked = op.propagate(taus, vs)
    assert np.array_equal(chunked, whole)
    assert all(np.array_equal(out, op.propagate(taus, v)) for out, v in zip(chunked, vs))


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_scalar_time_has_the_dtype_of_its_row(t):
    # a scalar time goes through as one row, so t = 0 on a complex
    # generator gives a complex copy of real data, as t = [0] and t = 0.1 do
    op = TranslationOperator("T", 1.0 + 0.2j, periodic_grid(16))
    v = np.sin(periodic_grid(16).points())
    one = op.semigroup(t, v)
    row = op.semigroup(np.array([t]), v[None])[0]
    assert one.dtype == row.dtype == np.complex128
    assert np.array_equal(one, row)
    if t == 0.0:
        assert np.array_equal(one, v)


CIRCLE = 0.3 * np.exp(2j * np.pi * np.arange(13) / 24)  # the derivative check's nodes


@pytest.mark.parametrize("speed", [0.7, -1.3, 0.6 + 0.2j])
@pytest.mark.parametrize("n", [2, 3, 32, 33, 1024])
@pytest.mark.parametrize("times", ["real", "zero", "empty", "circle"])
def test_translation_rows_from_phase_tables(n, speed, times):
    # the rows of every stack, however small, from the tables, against one
    # direct exponential per mode: kept modes and the full spectrum
    op = TranslationOperator("T", speed, UniformGrid(0.0, 0.37, n))
    t = {"real": np.linspace(0.0, 1.5, 7), "zero": np.zeros(1), "empty": np.zeros(0), "circle": CIRCLE}[times]
    eps = np.finfo(float).eps
    for k in (n // 2 + 1, n):
        exponent = np.multiply.outer(t, op.modal_values[:k])
        direct = np.exp(exponent)
        rows = op.propagate(t, np.ones((t.size, k), dtype=complex))
        assert rows.shape == direct.shape and rows.dtype == np.complex128
        tol = 8 * eps * (1.0 + np.max(np.abs(exponent), initial=0.0))
        assert np.all(np.abs(rows - direct) <= tol * np.abs(direct))


@pytest.mark.parametrize("speed", [0.7, 0.6 + 0.2j])
@pytest.mark.parametrize("m", [1, 2, 51])
@pytest.mark.parametrize("n", [2, 3, 5, 32, 257, 1024])
def test_translation_propagates_every_stack_by_its_tables(monkeypatch, n, m, speed):
    # one path, from (1, 2) up to (51, 513) entries: the direct exponential
    # exp_rows of the default Operator.rows is never called, for the kept
    # modes and the full spectrum, from propagate and from semigroup
    op = TranslationOperator("T", speed, UniformGrid(0.0, 0.37, n))
    t = np.linspace(0.1, 1.5, m)
    v = np.random.default_rng(n + m).standard_normal((m, n))
    basis = shared_mode_basis((op,))
    direct = {k: operators.Operator.rows(op, t, k) * basis.to_modes(v)[:, :k] for k in {n // 2 + 1, n}}

    def called(*args, **kwargs):
        raise AssertionError("the direct exponential was called")

    for module in (operators, statespace):
        monkeypatch.setattr(module, "exp_rows", called)
    for k, ref in direct.items():
        rows = op.propagate(t, basis.to_modes(v)[:, :k])
        assert rows.shape == (m, k)
        assert np.allclose(rows, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
    for data in (v, v + 1j):  # real data keeps n // 2 + 1 modes unless the speed is complex
        assert op.semigroup(t, data).shape == (m, n)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is double here, so it is no reference")
@pytest.mark.parametrize("t_end", [1.0, 10.0])
@pytest.mark.parametrize("speed", [0.4, 1.37])
@pytest.mark.parametrize("n", [256, 1023, 1024, 4096])
def test_phase_table_rows_are_no_less_accurate_than_direct_ones(n, speed, t_end):
    # against e^{i s t 2 pi f / (n dx)} in long double, on the kept modes of
    # a real output: 51 sample times, max |t lambda| from 51 to 28044
    grid = UniformGrid(0.0, 2 * np.pi / n, n)
    op = TranslationOperator("T", speed, grid)
    t = np.linspace(0.0, t_end, 51)
    k = n // 2 + 1
    rows = op.propagate(t, np.ones((t.size, k), dtype=complex))
    direct = np.exp(np.multiply.outer(t, op.modal_values[:k]))
    ld = np.longdouble
    f = np.fft.fftfreq(n, 1.0 / n)[:k].astype(ld)
    if n % 2 == 0:
        f[n // 2] = 0
    phase = ld(speed) * t.astype(ld)[:, None] * (2 * ld("3.14159265358979323846264338327950288")) * f / (ld(n) * ld(grid.dx))
    cos, sin = np.cos(phase), np.sin(phase)

    def error(approx):
        return float(np.max(np.hypot((approx.real - cos).astype(float), (approx.imag - sin).astype(float))))

    assert error(rows) <= error(direct)


def test_phase_table_overflow_names_the_first_bad_time():
    # a complex speed grows the negative frequencies like e^{|k| t}: the
    # highest, 127, passes float range between t = 5 and 6, and the tables
    # raise the direct exponential's error, from propagate and semigroup
    op = TranslationOperator("T", 1.0 + 1.0j, periodic_grid(256))
    t = np.linspace(0.0, 8.0, 9)
    v = np.ones((t.size, 256))
    v_hat = shared_mode_basis((op,)).to_modes(v)
    with pytest.raises(SemigroupOverflowError) as direct:
        SpectralDiagonalOperator(op.label, op.modal_values).propagate(t, v_hat)
    assert str(direct.value) == "semigroup of 'T' overflows float range at t=6"
    for act in (lambda: op.propagate(t, v_hat), lambda: op.semigroup(t, v)):
        with pytest.raises(SemigroupOverflowError) as tables:
            act()
        assert str(tables.value) == str(direct.value)


@pytest.mark.parametrize("family", ["spectral", "periodic", "dense-hermitian"])
@pytest.mark.parametrize("t", [0.5j, 0.5 + 0j, np.array([0.5j]), np.array([0.0, 0.5 + 0j])])
def test_semigroup_refuses_complex_times(family, t):
    # a cast to float64 would drop the imaginary part and return other rows
    # (the t = 0 row for 0.5j): complex times are for propagate alone
    op = random_operator(np.random.default_rng(49), family, 4)
    v = np.ones(4) if np.ndim(t) == 0 else np.ones((len(t), 4))
    with pytest.raises(UnsupportedOperationError, match=r"^t of the semigroup of '\w+' must be real times, got complex"):
        op.semigroup(t, v)


@pytest.mark.parametrize("family", ["spectral", "periodic", "dense-hermitian"])
def test_semigroup_reads_a_scalar_or_a_stack_by_the_times_dimension(family):
    # a 0-d array is one time, a list of times takes a stack; a count
    # mismatch names the times, not the state
    op = random_operator(np.random.default_rng(50), family, 4)
    v = np.linspace(-1.0, 1.0, 4)
    stack = np.stack([v, 2.0 * v])
    assert np.array_equal(op.semigroup(np.array(0.5), v), op.semigroup(0.5, v))
    assert np.array_equal(op.semigroup([0.5, 1.0], stack), op.semigroup(np.array([0.5, 1.0]), stack))
    with pytest.raises(DimensionMismatchError, match=r"^times of shape \(3,\) for a stack of 2 states"):
        op.semigroup([0.5, 1.0, 2.0], stack)
    with pytest.raises(DimensionMismatchError, match=r"^times of shape \(1, 2\) for a stack of 2 states"):
        op.semigroup(np.array([[0.5, 1.0]]), stack)


@pytest.mark.parametrize("family", ["spectral", "periodic", "dense-hermitian"])
@pytest.mark.parametrize(
    "t", [np.inf, -np.inf, np.nan, np.array(np.inf), np.array([0.5, np.inf]), [np.nan, 0.0]]
)
def test_semigroup_refuses_non_finite_times(family, t):
    # no overflow is to blame: a real-speed translation is bounded at
    # t = inf and a decaying group would give 0 there, and lemma2 refuses
    # such times as well
    op = random_operator(np.random.default_rng(51), family, 4)
    v = np.ones(4) if np.ndim(t) == 0 else np.ones((len(t), 4))
    with pytest.raises(ValueError, match=r"^t of the semigroup of '\w+' must be finite, got"):
        op.semigroup(t, v)


@pytest.mark.parametrize("n", [16.5, 16.0, "16", True, None])
def test_grid_rejects_a_non_integer_point_count(n):
    with pytest.raises(ValueError, match="grid number of points must be an integer >= 2"):
        UniformGrid(0.0, 0.1, n)


def test_grid_takes_numpy_integer_point_counts():
    grid = UniformGrid(0.0, 0.1, np.int64(16))
    assert grid.points().shape == (16,)
    assert TranslationOperator("T", 1.0, grid).dim == 16


@pytest.mark.parametrize("x0, dx", [(0.0, np.nan), (0.0, np.inf), (np.nan, 0.1), (-np.inf, 0.1)])
def test_grid_rejects_non_finite_origin_and_spacing(x0, dx):
    with pytest.raises(ValueError, match="finite"):
        UniformGrid(x0, dx, 16)


@pytest.mark.parametrize("speed", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_translation_rejects_non_finite_speed(speed):
    with pytest.raises(NonFiniteError, match="speed of operator 'T'"):
        TranslationOperator("T", speed, periodic_grid(8))


@pytest.mark.parametrize("speed", [1e307, -1e307, complex(1e307, 1e307)])
def test_translation_rejects_modal_values_past_float_range(speed):
    # a finite speed times the grid's highest frequency, pi / dx = 31.4
    with pytest.raises(NonFiniteError, match="modal values of operator 'a'"):
        TranslationOperator("a", speed, UniformGrid(0.0, 0.1, 16))


class TestZeroExtension:
    """A zero-extension translation: ``speed`` times the central difference,
    a dense generator whose semigroup is its exact exponential."""

    def grid(self, dx=0.05):
        return UniformGrid(-8.0, dx, round(16.0 / dx) + 1)

    def pulse(self, x, center=0.0):
        return np.exp(-((x - center) ** 2) / (2 * 0.5**2))

    def test_shift_matches_analytic_in_interior(self):
        # the pulse stays far from the boundary; the exponential of the
        # central difference is a second-order accurate shift
        t, errs = 0.3, []
        for dx in (0.1, 0.05, 0.025):
            grid = self.grid(dx)
            x = grid.points()
            out = central_difference_operator("T", 1.0, grid).semigroup(t, self.pulse(x))
            errs.append(np.max(np.abs(out - self.pulse(x, center=-t))))
        assert errs[0] <= 1e-2
        assert min(errs[0] / errs[1], errs[1] / errs[2]) >= 3.5, errs

    def test_semigroup_law_interior(self):
        # on the whole grid: the pulse runs into the boundary
        grid = self.grid()
        op = central_difference_operator("T", -0.8, grid)
        v = self.pulse(grid.points(), center=6.0)
        once = op.semigroup(0.9, v)
        twice = op.semigroup(0.5, op.semigroup(0.4, v))
        assert once.dtype == np.float64
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_central_difference_derivative(self):
        grid = UniformGrid(-8.0, 0.0125, 1281)
        x = grid.points()
        op = central_difference_operator("T", 2.0, grid)
        margin = 4
        exact = 2.0 * (-x / 0.25) * self.pulse(x)  # 2 * d/dx of the pulse
        out = op.apply(self.pulse(x))
        # second-order differences: error ~ speed * dx^2 * |f'''| / 6
        assert np.max(np.abs(out[margin:-margin] - exact[margin:-margin])) <= 1e-3


class TestResolventSolve:
    def test_componentwise_divide(self):
        a = SpectralDiagonalOperator("a", [3.0, 5.0])
        b = SpectralDiagonalOperator("b", [1.0, 1.0])
        assert np.array_equal(resolvent_solve(a, b)(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_equal_operators_not_invertible(self):
        a = SpectralDiagonalOperator("a", [1.0, 2.0])
        with pytest.raises(NotInvertibleError):
            resolvent_solve(a, a)(np.ones(2))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = DenseMatrixOperator("A", q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T)
        b = DenseMatrixOperator("B", q @ np.diag([-1.0, -2.0, 0.5, 0.0]) @ q.T)
        rhs = rng.standard_normal(4)
        w = resolvent_solve(a, b)(rhs)
        back = a.apply(w) - b.apply(w)
        assert np.max(np.abs(back - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))

    def test_threads_sharing_a_dense_solve_get_the_single_thread_values(self):
        # lemma2_rhs and two_operator_closed_form apply one dense solve many
        # times, and no residual gate checks its values: two threads
        # back-substituting through one LU at once must still get exactly
        # the values of one thread
        rng = np.random.default_rng(24)
        a = DenseMatrixOperator("A", rng.standard_normal((24, 24)) + 24.0 * np.eye(24))
        b = DenseMatrixOperator("B", rng.standard_normal((24, 24)))
        solve = resolvent_solve(a, b)
        rhs = 33.0 * rng.standard_normal((8, 24))
        expected = [solve(v) for v in rhs]
        errors = []

        def work():
            try:
                for i in range(2500):
                    if not np.array_equal(solve(rhs[i % 8]), expected[i % 8]):
                        errors.append(i)
            except Exception as exc:  # named in the failure, not lost with the thread
                errors.append(f"{type(exc).__name__}: {exc}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_dense_equal_operators_not_invertible(self):
        a = DenseMatrixOperator("a", [[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(NotInvertibleError, match="singular"):
            resolvent_solve(a, DenseMatrixOperator("b", a.matrix))(np.ones(2))

    def test_dense_overflowing_difference_is_non_finite(self):
        # 1e308 - (-1e308) overflows: a named error with no numpy warning,
        # not a singular difference
        a = DenseMatrixOperator("a", [[1e308, 0.0], [0.0, 1.0]])
        b = DenseMatrixOperator("b", [[-1e308, 0.0], [0.0, 2.0]])
        with pytest.raises(NonFiniteError, match="difference of 'a' and 'b'"):
            resolvent_solve(a, b)(np.ones(2))

    def test_spectral_round_trip_property(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = SpectralDiagonalOperator("a", rng.uniform(1.0, 2.0, 5))
            b = SpectralDiagonalOperator("b", rng.uniform(-1.0, 0.0, 5))
            rhs = rng.standard_normal(5)
            w = resolvent_solve(a, b)(rhs)
            assert np.max(np.abs(a.apply(w) - b.apply(w) - rhs)) <= 1e-9

    def test_translation_equal_speeds_unsupported(self):
        grid = periodic_grid(32)
        a = TranslationOperator("a", 1.0, grid)
        b = TranslationOperator("b", 1.0, grid)
        with pytest.raises(NotInvertibleError, match="coincide on every mode"):
            resolvent_solve(a, b)(np.ones(32))

    def test_translation_distinct_speeds_mean_zero(self):
        grid = periodic_grid(64)
        x = grid.points()
        a = TranslationOperator("a", 1.0, grid)
        b = TranslationOperator("b", -1.0, grid)
        rhs = np.sin(x)
        w = resolvent_solve(a, b)(rhs)
        assert np.max(np.abs(a.apply(w) - b.apply(w) - rhs)) <= 1e-9

    def test_translation_constant_mode_rejected(self):
        grid = periodic_grid(64)
        a = TranslationOperator("a", 1.0, grid)
        b = TranslationOperator("b", -1.0, grid)
        with pytest.raises(NotInvertibleError):
            resolvent_solve(a, b)(np.ones(64))

    def test_partial_coincidence_follows_confluent_rule(self):
        # coincident on mode 0 only: fine while the data leaves mode 0 alone
        a = SpectralDiagonalOperator("a", [1.0, -1.5, -2.0])
        b = SpectralDiagonalOperator("b", [1.0, 0.7, 0.4])
        w = resolvent_solve(a, b)(np.array([0.0, 2.2, -4.8]))
        assert np.allclose(w, [0.0, -1.0, 2.0], rtol=1e-15, atol=0.0)
        with pytest.raises(NotInvertibleError, match="right-hand side"):
            resolvent_solve(a, b)(np.array([1e-3, 2.2, -4.8]))

    def test_mixed_families_rejected(self):
        a = SpectralDiagonalOperator("a", [1.0, 2.0])
        b = DenseMatrixOperator("b", np.eye(2))
        with pytest.raises(MixedBackendError):
            resolvent_solve(a, b)(np.ones(2))


class TestCommutationDefect:
    def test_diagonal_operators_commute_exactly(self):
        a = SpectralDiagonalOperator("a", [1.0, 2.0, 3.0])
        b = SpectralDiagonalOperator("b", [-1.0, 5.0, 0.0])
        assert commutation_defect(a, b) == 0.0

    def test_nilpotent_pair(self):
        # AB - BA = diag(1, -1), whose Frobenius norm is sqrt(2)
        a = DenseMatrixOperator("a", [[0.0, 1.0], [0.0, 0.0]])
        b = DenseMatrixOperator("b", [[0.0, 0.0], [1.0, 0.0]])
        assert commutation_defect(a, b) == pytest.approx(np.sqrt(2.0))

    def test_operator_with_itself(self):
        rng = np.random.default_rng(12)
        op = DenseMatrixOperator("a", rng.standard_normal((3, 3)))
        assert commutation_defect(op, op) == 0.0

    def test_wide_translation_pair_commutes_exactly(self):
        # ||ABv - BAv|| / ||v|| carries about 3e-11 of FFT rounding on
        # random v; the modal blocks commute exactly
        grid = UniformGrid(0.0, 2 * np.pi / 1024, 1024)
        a = TranslationOperator("a", 0.7, grid)
        b = TranslationOperator("b", -1.3, grid)
        assert commutation_defect(a, b) == 0.0

    @pytest.mark.parametrize(
        "a_values, b_values, defect",
        [
            ([1e150, 2.0], [1e150, -3.0], 0.0),
            ([1e200, 1.0], [-1e200, 2.0], np.nan),
            ([1e200 + 1e200j, 1.0], [1e200, 2.0], np.nan),
            ([1e100 - 2e100j, 1j], [3e100j, -1.0 + 0.5j], 0.0),
        ],
    )
    def test_modal_defect_is_zero_or_nan(self, a_values, b_values, defect):
        # exactly what the (d, 1, 1) block commutator reads: 0.0 where every
        # product a_k b_k is finite, else nan
        a, b = SpectralDiagonalOperator("a", a_values), SpectralDiagonalOperator("b", b_values)
        ab, bb = (np.asarray(v)[:, None, None] for v in (a.modal_values, b.modal_values))
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = float(np.linalg.norm(ab @ bb - bb @ ab))
        for reading in (commutation_defect(a, b), blocks):
            assert reading == defect or (np.isnan(reading) and np.isnan(defect))

    @staticmethod
    def _pair(kind, rng, d=12):
        """Two exactly (skew-)Hermitian matrices: commuting ones share an
        eigenbasis, the others are drawn on their own."""
        def hermitian(complex_, sign=1):
            m = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_ else 0)
            return m + sign * m.conj().T

        q = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        shared = [(q * rng.standard_normal(d)) @ q.conj().T for _ in range(2)]
        shared = [0.5 * (m + m.conj().T) for m in shared]
        return {
            "hermitian": (hermitian(False), hermitian(False)),
            "complex-hermitian": (hermitian(True), hermitian(True)),
            "skew": (hermitian(True, -1), hermitian(False, -1)),
            "mixed": (hermitian(True), 1j * hermitian(True)),
            "commuting-hermitian": tuple(shared),
            "commuting-mixed": (shared[0], 1j * shared[1]),
        }[kind]

    @pytest.mark.parametrize(
        "kind", ["hermitian", "complex-hermitian", "skew", "mixed", "commuting-hermitian", "commuting-mixed"]
    )
    def test_hermitian_pair_takes_one_product(self, kind):
        # BA = s_A s_B (AB)^H: the one-product reading agrees with the two
        # products to rounding and gives the same verdict
        a_mat, b_mat = self._pair(kind, np.random.default_rng(83))
        a, b = DenseMatrixOperator("a", a_mat), DenseMatrixOperator("b", b_mat)
        assert a.exact_symmetry != 0 and b.exact_symmetry != 0
        assert (a.exact_symmetry * b.exact_symmetry < 0) == (kind in ("mixed", "commuting-mixed"))
        two = float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix))
        one = commutation_defect(a, b)
        floor = np.finfo(float).eps * a.dim * np.linalg.norm(a.matrix) * np.linalg.norm(b.matrix)
        assert abs(one - two) <= 4 * floor
        assert (one <= COMMUTATION_TOL) == (two <= COMMUTATION_TOL) == kind.startswith("commuting")
        # and the reading is the one product's
        c = a.matrix @ b.matrix
        assert one == float(np.linalg.norm(c - a.exact_symmetry * b.exact_symmetry * c.conj().T))

    def test_pair_symmetric_only_to_tolerance_takes_two_products(self):
        rng = np.random.default_rng(84)
        m = rng.standard_normal((12, 12))
        m = m + m.T
        nearly = m + 1e-15 * np.triu(np.abs(m), 1)  # Hermitian to SYMMETRY_RTOL, not exactly
        assert statespace._hermitian(nearly) and not np.array_equal(nearly, nearly.T)
        n = rng.standard_normal((12, 12))
        for a_mat, b_mat in ((nearly, n + n.T), (n + n.T, nearly)):
            a, b = DenseMatrixOperator("a", a_mat), DenseMatrixOperator("b", b_mat)
            assert a.exact_symmetry * b.exact_symmetry == 0
            assert commutation_defect(a, b) == float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix))

    @pytest.mark.parametrize(
        "matrix, symmetry",
        [
            ([[1.0, 2.0], [2.0, -1.0]], 1),
            ([[0.0, 2.0], [-2.0, 0.0]], -1),
            ([[1j, 2.0 + 1j], [-2.0 + 1j, 0.0]], -1),
            ([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]], 1),
            ([[0.0, 0.0], [0.0, 0.0]], 1),
            ([[1.0, 2.0], [0.0, 1.0]], 0),
            ([[1j, 0.0], [0.0, 1.0]], 0),
        ],
    )
    def test_exact_symmetry(self, matrix, symmetry):
        assert DenseMatrixOperator("a", matrix).exact_symmetry == symmetry

    def test_mixed_families_rejected(self):
        a = SpectralDiagonalOperator("a", [1.0, 2.0])
        b = DenseMatrixOperator("b", np.eye(2))
        with pytest.raises(MixedBackendError):
            commutation_defect(a, b)


class TestReadOnlyArrays:
    """An operator's arrays are fixed once it is built: a kept confluent
    matrix and a kept gate verdict rely on it."""

    @staticmethod
    def arrays():
        rng = np.random.default_rng(31)
        sym = rng.standard_normal((4, 4))
        yield from (
            DenseMatrixOperator("S", sym + sym.T).matrix,
            *DenseMatrixOperator("S", sym + sym.T).eig,
            *DenseMatrixOperator("K", sym - sym.T).eig,
            DenseMatrixOperator("N", sym).matrix,
            SpectralDiagonalOperator("L", [1.0, 2.0], scale=-0.5).eigenvalues,
            SpectralDiagonalOperator("L", [1.0, 2.0], scale=-0.5).modal_values,
            TranslationOperator("T", 0.7, periodic_grid(8)).modal_values,
        )

    def test_in_place_write_raises(self):
        for arr in self.arrays():
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0

    def test_caller_array_stays_writable(self):
        values, matrix = np.array([1.0, 2.0]), np.eye(2)
        SpectralDiagonalOperator("L", values)
        DenseMatrixOperator("D", matrix)
        values[0] = matrix[0, 0] = 3.0
