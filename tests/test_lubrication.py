"""Thin-film mobility, assembly, touching-set tracking, and the 1D/2D drivers."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffpde.cutoff import CutoffParams
from cutoffpde.grids import Field, Grid1D, Grid2D, trapezoid_weights
from cutoffpde.linalg import Factorization, SolveError, SparseMatrix, identity_plus
from cutoffpde.lubrication import (
    SNAPSHOT_EVERY_DEFAULT,
    ZERO_PLATEAU_MIN_WIDTH,
    ZERO_PLATEAU_TOL,
    LubricationSpec,
    MobilitySpec,
    SingularityRecord,
    assemble_lubrication_1d,
    assemble_lubrication_2d,
    default_initial_1d,
    default_initial_2d,
    has_zero_plateau,
    mobility,
    run_lubrication,
    touching_length,
    track_singularity,
)
from cutoffpde.lubrication import _laplacian_1d, _laplacian_2d, _stencil_map
from cutoffpde.stepping import SDIRK3_GAMMA, DivergenceError, StepperConfig

from conftest import (
    SCALES,
    assert_acts_as_csr,
    assert_same_csr_bits,
    assert_shifts_as_csr,
    canonical,
    reference_identity_plus,
    same_bits,
    snapshot_near,
    sparse_matrix,
)


def reference_operator_1d(u_lagged, spec):
    """The 1D film operator as the sparse product -(D @ Lap) of the flux
    divergence D and the reflected Laplacian: the oracle of the direct
    five-diagonal assembly."""
    grid = spec.grid
    n = grid.node_count
    h = grid.h
    vol = np.full(n, h)
    vol[0] = vol[-1] = 0.5 * h
    f = mobility(u_lagged.values, spec.mobility)
    c = 0.5 * (f[:-1] + f[1:]) / h
    left = np.arange(n - 1)
    right = left + 1
    rows = np.concatenate([left, left, right, right])
    cols = np.concatenate([right, left, right, left])
    vals = np.concatenate([c / vol[left], -c / vol[left], -c / vol[right], c / vol[right]])
    div = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    div.eliminate_zeros()
    return canonical(-(div @ _laplacian_1d(grid).csr))


def reference_operator_2d(u_lagged, spec):
    """The 2D film operator as the sparse product -(D @ Lap), D the flux
    divergence collected face by face in coordinate format: the oracle of
    the direct 13-point assembly."""
    grid = spec.grid
    nx, ny = grid.nx_cells, grid.ny_cells
    hx, hy = grid.hx, grid.hy
    f = mobility(u_lagged.values, spec.mobility)
    volx = np.full(nx + 1, hx)
    volx[0] = volx[-1] = 0.5 * hx
    voly = np.full(ny + 1, hy)
    voly[0] = voly[-1] = 0.5 * hy
    rows, cols, vals = [], [], []
    # x-faces between (i, j) and (i+1, j)
    gi, gj = np.meshgrid(np.arange(nx), np.arange(ny + 1))
    left = (gj * (nx + 1) + gi).ravel()
    right = left + 1
    c = 0.5 * (f[left] + f[right]) / hx
    vleft, vright = volx[gi.ravel()], volx[gi.ravel() + 1]
    rows += [left, left, right, right]
    cols += [right, left, right, left]
    vals += [c / vleft, -c / vleft, -c / vright, c / vright]
    # y-faces between (i, j) and (i, j+1)
    gi, gj = np.meshgrid(np.arange(nx + 1), np.arange(ny))
    low = (gj * (nx + 1) + gi).ravel()
    high = low + (nx + 1)
    c = 0.5 * (f[low] + f[high]) / hy
    vlow, vhigh = voly[gj.ravel()], voly[gj.ravel() + 1]
    rows += [low, low, high, high]
    cols += [high, low, high, low]
    vals += [c / vlow, -c / vlow, -c / vhigh, c / vhigh]
    n = grid.node_count
    div = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()
    div.eliminate_zeros()
    return canonical(-(div @ _laplacian_2d(grid).csr))


class TestMobility:
    def test_square_root_default(self):
        spec = MobilitySpec()
        assert mobility(0.04, spec) == pytest.approx(0.2, rel=1e-15)
        assert mobility(0.0, spec) == 0.0
        assert isinstance(mobility(0.25, spec), float)

    def test_rejects_negative_naming_the_node(self):
        spec = MobilitySpec()
        with pytest.raises(ValueError, match=r"node 1 has .*-0\.2"):
            mobility(np.array([0.1, -0.2, 0.3]), spec)
        with pytest.raises(ValueError, match="node 0"):
            mobility(-1.0, spec)
        with pytest.raises(ValueError, match="node 0"):
            mobility(np.array([np.nan, 1.0]), spec)

    def test_error_prints_the_value_as_a_number(self):
        # a numpy scalar's repr under numpy 2 reads np.float64(...)
        with pytest.raises(ValueError) as info:
            mobility(np.array([0.5, -1.334787384077131e-05]), MobilitySpec())
        message = str(info.value)
        assert message.endswith("node 1 has -1.334787384077131e-05")
        assert "np.float64" not in message

    def test_mollified_value(self):
        # f_eps(u) = u^4 f / (eps f + u^4); at u = 0.01, eps = 1e-14 the
        # correction enters in the eighth digit
        spec = MobilitySpec(epsilon=1e-14)
        assert mobility(0.01, spec) == pytest.approx(0.09999999000000099, rel=1e-15)
        assert mobility(0.0, spec) == 0.0

    def test_mollification_never_increases(self):
        u = np.linspace(0.0, 2.0, 101)
        bare = mobility(u, MobilitySpec())
        for eps in (1e-14, 1e-6, 1e-2):
            soft = mobility(u, MobilitySpec(epsilon=eps))
            assert np.all(soft <= bare + 1e-16)

    def test_quartic_behavior_near_zero(self):
        eps, u = 1e-2, 1e-5
        assert mobility(u, MobilitySpec(epsilon=eps)) == pytest.approx(u**4 / eps, rel=1e-2)

    def test_exponent_zero_keeps_degenerate_origin(self):
        spec = MobilitySpec(exponent=0.0)
        got = mobility(np.array([0.0, 2.0, 0.5]), spec)
        assert np.array_equal(got, [0.0, 1.0, 1.0])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            MobilitySpec(exponent=-0.5)
        with pytest.raises(ValueError, match="epsilon"):
            MobilitySpec(epsilon=-1e-10)
        with pytest.raises(ValueError, match="exponent"):
            MobilitySpec(exponent=float("nan"))
        MobilitySpec(exponent=0.0)  # boundary value is legal

    @settings(max_examples=150, deadline=None)
    @given(
        u=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=30),
        eps=st.sampled_from([0.0, 1e-14, 1e-8, 1e-2]),
    )
    def test_monotone_on_sorted_input(self, u, eps):
        vals = np.sort(np.asarray(u))
        f = mobility(vals, MobilitySpec(epsilon=eps))
        assert np.all(np.diff(f) >= -1e-12 * max(1.0, f.max()))
        assert np.all(f >= 0.0)


class TestDefaultFilm:
    def test_profile_values(self):
        assert default_initial_1d(0.0) == pytest.approx(0.05, abs=1e-15)
        assert default_initial_1d(1.0) == pytest.approx(2.05, abs=1e-14)
        assert default_initial_1d(-1.0) == pytest.approx(2.05, abs=1e-14)
        assert default_initial_2d(0.0, 0.0) == pytest.approx(0.0025, abs=1e-16)

    def test_spec_defaults(self):
        spec = LubricationSpec.default_1d(200)
        assert spec.grid == Grid1D(-1.0, 1.0, 200)
        assert spec.mobility == MobilitySpec()
        u0 = spec.initial_field()
        assert float(u0.values.min()) == pytest.approx(0.05, abs=1e-12)
        mean = np.sum(trapezoid_weights(spec.grid) * u0.values) / 2.0
        assert mean == pytest.approx(0.8, rel=1e-12)

    def test_custom_initial(self):
        grid = Grid1D(-1.0, 1.0, 4)
        spec = LubricationSpec(grid=grid, initial=lambda x: x + 2.0)
        assert np.array_equal(spec.initial_field().values, grid.nodes() + 2.0)


class TestAssembly1D:
    def test_unit_mobility_rows(self):
        # with f == 1 the operator is -d/dx(d3u/dx3) with reflected ghosts;
        # h = 1/4 makes every entry an exact dyadic rational
        grid = Grid1D(-1.0, 1.0, 8)
        spec = LubricationSpec(grid=grid, initial=lambda x: np.ones_like(x))
        a = assemble_lubrication_1d(spec.initial_field(), spec)
        dense = a.to_dense() * grid.h**4
        n = grid.node_count
        assert np.array_equal(dense[0, :3], [-6.0, 8.0, -2.0])
        assert np.array_equal(dense[1, :4], [4.0, -7.0, 4.0, -1.0])
        for i in range(2, n - 2):
            assert np.array_equal(dense[i, i - 2:i + 3], [-1.0, 4.0, -6.0, 4.0, -1.0])
        assert np.array_equal(dense[n - 1, -3:], [-2.0, 8.0, -6.0])
        assert np.array_equal(dense[n - 2, -4:], [-1.0, 4.0, -7.0, 4.0])

    def test_unit_mobility_conservation_is_exact(self):
        grid = Grid1D(-1.0, 1.0, 8)
        spec = LubricationSpec(grid=grid, initial=lambda x: np.ones_like(x))
        a = assemble_lubrication_1d(spec.initial_field(), spec)
        colsums = trapezoid_weights(grid) @ a.to_dense()
        assert np.array_equal(colsums, np.zeros(grid.node_count))

    def test_weighted_column_sums_vanish(self):
        # conservation must survive arbitrary positive lagged states
        rng = np.random.default_rng(8)
        spec = LubricationSpec.default_1d(50)
        lagged = Field(spec.grid, rng.uniform(0.0, 2.0, spec.grid.node_count))
        a = assemble_lubrication_1d(lagged, spec)
        colsums = trapezoid_weights(spec.grid) @ a.to_dense()
        assert np.max(np.abs(colsums)) <= 1e-12 / spec.grid.h**4

    def test_grid_mismatch_rejected(self):
        spec = LubricationSpec.default_1d(100)
        wrong = Field(Grid1D(-1.0, 1.0, 50), np.ones(51))
        with pytest.raises(ValueError, match="must live on the 1D grid"):
            assemble_lubrication_1d(wrong, spec)

    def test_epsilon_consistency_of_operators(self):
        # eps = 1e-14 perturbs the assembled operator only at roundoff scale
        # on the strictly positive initial film
        bare = LubricationSpec.default_1d(100)
        soft = LubricationSpec.default_1d(100, epsilon=1e-14)
        u0 = bare.initial_field()
        a0 = assemble_lubrication_1d(u0, bare)
        ae = assemble_lubrication_1d(u0, soft)
        rel = sparse_matrix(ae.csr - a0.csr).operator_norm_inf() / a0.operator_norm_inf()
        assert rel <= 1e-10
        assert rel == pytest.approx(5.5898e-11, rel=1e-3)


class TestAssembly1DMatchesProduct:
    """The direct assembly must reproduce the sparse product to the bit, so
    runs stay bit-identical to the product-based operator."""

    def test_initial_film(self):
        spec = LubricationSpec.default_1d(1000)
        u0 = spec.initial_field()
        assert_same_csr_bits(assemble_lubrication_1d(u0, spec).csr, reference_operator_1d(u0, spec))

    def test_zeroed_interval(self):
        # zero-mobility faces inside the interval leave zero rows there
        spec = LubricationSpec.default_1d(1000)
        vals = spec.initial_field().values.copy()
        vals[400:601] = 0.0
        u = Field(spec.grid, vals)
        a = assemble_lubrication_1d(u, spec)
        assert_same_csr_bits(a.csr, reference_operator_1d(u, spec))
        assert np.all(np.diff(a.csr.indptr)[402:599] == 0)

    def test_mollified_mobility(self):
        spec = LubricationSpec.default_1d(1000, epsilon=1e-14)
        u0 = spec.initial_field()
        assert_same_csr_bits(assemble_lubrication_1d(u0, spec).csr, reference_operator_1d(u0, spec))

    def test_overflowed_mobility_stays_on_the_matrix(self):
        # u^4 overflows at a boundary node: the entries that its faces meet
        # turn inf or NaN, and none may be stored as columns -2, -1, n or n+1
        spec = LubricationSpec(grid=Grid1D(-1.0, 1.0, 8), mobility=MobilitySpec(exponent=4.0))
        vals = np.ones(9)
        vals[0] = vals[-1] = 1e100
        with np.errstate(over="ignore", invalid="ignore"):
            a = assemble_lubrication_1d(Field(spec.grid, vals), spec)
            ref = reference_operator_1d(Field(spec.grid, vals), spec)
        assert 0 <= a.csr.indices.min() and a.csr.indices.max() <= 8
        assert np.array_equal(a.csr.indptr, ref.indptr)
        assert not np.all(np.isfinite(a.csr.data))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_random_states(self, n, seed, zero_share):
        rng = np.random.default_rng(seed)
        spec = LubricationSpec.default_1d(n)
        vals = rng.uniform(0.0, 2.0, n + 1)
        vals[rng.random(n + 1) < zero_share] = 0.0
        u = Field(spec.grid, vals)
        assert_same_csr_bits(assemble_lubrication_1d(u, spec).csr, reference_operator_1d(u, spec))


class TestAssembly2DMatchesProduct:
    """The direct 13-point assembly reproduces the sparse product to the
    bit, so the 2D film runs on the very matrices the product gave."""

    def test_initial_film(self):
        spec = LubricationSpec.default_2d(40)
        u0 = spec.initial_field()
        assert_same_csr_bits(assemble_lubrication_2d(u0, spec).csr, reference_operator_2d(u0, spec))

    def test_dry_patch(self):
        # nodes whose four faces all carry zero mobility leave empty rows
        spec = LubricationSpec.default_2d(24)
        vals = spec.initial_field().values.copy()
        vals.reshape(25, 25)[8:17, 9:15] = 0.0
        u = Field(spec.grid, vals)
        a = assemble_lubrication_2d(u, spec)
        assert_same_csr_bits(a.csr, reference_operator_2d(u, spec))
        assert np.sum(np.diff(a.csr.indptr) == 0) > 0

    def test_mollified_mobility(self):
        spec = LubricationSpec.default_2d(20, epsilon=1e-3)
        u0 = spec.initial_field()
        assert_same_csr_bits(assemble_lubrication_2d(u0, spec).csr, reference_operator_2d(u0, spec))

    @settings(max_examples=30, deadline=None)
    @given(
        nx=st.integers(min_value=2, max_value=20),
        ny=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
    )
    def test_random_states(self, nx, ny, seed, zero_share):
        rng = np.random.default_rng(seed)
        spec = LubricationSpec(grid=Grid2D(-1.0, 1.0, nx, -0.5, 1.0, ny))
        vals = rng.uniform(0.0, 2.0, spec.grid.node_count)
        vals[rng.random(vals.size) < zero_share] = 0.0
        u = Field(spec.grid, vals)
        assert_same_csr_bits(assemble_lubrication_2d(u, spec).csr, reference_operator_2d(u, spec))


def off_matrix_slots(a):
    """The values a's DIA layout holds in the slots off the matrix."""
    offsets, data = a.diagonals()
    rows = np.arange(a.dimension) - offsets[:, None]
    return data[(rows < 0) | (rows >= a.dimension)]


class TestStencilMapMatchesProduct:
    """On any 1D or rectangular 2D grid and any state, zeros included, the
    operator that the stencil map gives is the sparse product's CSR bit for
    bit, and its slots off the matrix hold 0.0, also where a node at 1e300
    overflows the mobility u^4."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        cells=st.one_of(st.tuples(st.integers(min_value=2, max_value=40)),
                        st.tuples(st.integers(min_value=2, max_value=12),
                                  st.integers(min_value=2, max_value=12))),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        overflow=st.booleans(),
    )
    def test_operator_is_the_sparse_product(self, cells, seed, zero_share, overflow):
        if len(cells) == 1:
            grid = Grid1D(-1.0, 1.0, cells[0])
            assemble, oracle = assemble_lubrication_1d, reference_operator_1d
        else:
            grid = Grid2D(-1.0, 1.0, cells[0], -0.5, 1.0, cells[1])
            assemble, oracle = assemble_lubrication_2d, reference_operator_2d
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.0, 2.0, grid.node_count)
        vals[rng.random(vals.size) < zero_share] = 0.0
        if overflow:
            vals[rng.integers(vals.size)] = 1e300
        spec = LubricationSpec(grid=grid, mobility=MobilitySpec(exponent=4.0 if overflow else 0.5))
        u = Field(grid, vals)
        with np.errstate(over="ignore", invalid="ignore"):
            a, ref = assemble(u, spec), oracle(u, spec)
        off = off_matrix_slots(a)
        assert same_bits(off, np.zeros_like(off))
        if overflow:
            assert not np.all(np.isfinite(a.csr.data))
        # the map skips the Laplacian's zeros as the sparse product does, so
        # even an overflowed mobility gives the product's inf and NaN
        assert_same_csr_bits(a.csr, ref)


def film_states_1d():
    """(name, spec, lagged state): the 1D film cases the diagonal form must
    carry through assembly, shift, product and LU as CSR would."""
    spec = LubricationSpec.default_1d(1000)
    dry = spec.initial_field().values.copy()
    dry[400:601] = 0.0
    overflow = np.ones(9)
    overflow[0] = overflow[-1] = 1e100
    steep = LubricationSpec(grid=Grid1D(-1.0, 1.0, 8), mobility=MobilitySpec(exponent=4.0))
    rng = np.random.default_rng(16)
    speckled = rng.uniform(0.0, 2.0, 41)
    speckled[rng.random(41) < 0.3] = 0.0
    small = LubricationSpec.default_1d(40)
    cases = [
        ("initial", spec, spec.initial_field()),
        ("dry stretch", spec, Field(spec.grid, dry)),
        ("overflowed mobility", steep, Field(steep.grid, overflow)),
        ("speckled", small, Field(small.grid, speckled)),
        ("all dry", small, Field(small.grid, np.zeros(41))),
        ("mollified", LubricationSpec.default_1d(1000, epsilon=1e-14), spec.initial_field()),
    ]
    return [pytest.param(spec, u, id=name) for name, spec, u in cases]


class TestDiagonalForm:
    """The 1D film's operator lives on its five diagonals from assembly to
    backsubstitution.  Each step on them must give the bits scipy gives on
    the sparse product -(D @ Lap): the operator entry for entry, its
    product, its shift and the solves of its LU."""

    @pytest.fixture(autouse=True)
    def quiet_overflow(self):
        # inf and NaN entries of an overflowed mobility warn in numpy's
        # arithmetic, as they did in the assembly before
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    @staticmethod
    def with_oracle(u, spec):
        """(the assembled operator, the scipy CSR matrix it must act as)."""
        banded = assemble_lubrication_1d(u, spec)
        offsets, data = banded.diagonals()
        assert np.array_equal(offsets, [-2, -1, 0, 1, 2])
        assert data.shape == (5, spec.grid.node_count)
        return banded, reference_operator_1d(u, spec)

    @pytest.mark.parametrize("spec,u", film_states_1d())
    def test_operator_matches_the_sparse_product(self, spec, u):
        banded = assemble_lubrication_1d(u, spec)
        ref = reference_operator_1d(u, spec)
        offsets, data = banded.diagonals()
        n = spec.grid.node_count
        # every slot off the matrix holds a zero, NaN mobilities or not
        for o, diagonal in zip(offsets, data):
            assert not np.any(np.delete(diagonal, np.arange(max(o, 0), n + min(o, 0))))
        assert banded.nnz == ref.nnz
        # an overflowed mobility's inf and NaN included: the stencil map
        # skips the Laplacian's zeros, as the sparse product does
        assert_same_csr_bits(banded.csr, ref)
        # every slot on the matrix holds its entry
        dense = ref.toarray()
        for o, diagonal in zip(offsets, data):
            on = np.arange(max(o, 0), n + min(o, 0))
            assert np.array_equal(diagonal[on], dense[on - o, on], equal_nan=True)

    @pytest.mark.parametrize("spec,u", film_states_1d())
    def test_matvec_norm_and_pattern(self, spec, u):
        assert_acts_as_csr(*self.with_oracle(u, spec))

    @pytest.mark.parametrize("spec,u", film_states_1d())
    def test_identity_plus(self, spec, u):
        assert_shifts_as_csr(*self.with_oracle(u, spec))

    @pytest.mark.parametrize("spec,u", film_states_1d())
    def test_solves(self, spec, u):
        banded, ref = self.with_oracle(u, spec)
        rhs = np.random.default_rng(5).uniform(0.0, 2.0, banded.dimension)

        def outcome(a):
            try:
                fact = Factorization(a)
                x, report = fact.solve(rhs)
            except SolveError as err:
                return str(err)
            # the LU itself, signed zeros included: the diagonals may hold
            # -0.0 where CSR stores nothing
            return fact.route, fact.fill, report, x, fact._lu, fact._ipiv

        for scale in SCALES[:3]:
            got = outcome(identity_plus(banded, scale))
            want = outcome(sparse_matrix(reference_identity_plus(ref, scale)))
            if isinstance(want, str):
                assert got == want
                continue
            assert got[:3] == want[:3] and got[0] == "banded-lu"
            for part, wanted in zip(got[3:], want[3:]):
                assert same_bits(part, wanted)

    def test_a_step_builds_no_scipy_sparse_matrix(self, monkeypatch):
        from scipy.sparse._base import _spbase

        spec = LubricationSpec(grid=Grid1D(-1.0, 1.0, 64),
                               initial=lambda x: np.maximum(default_initial_1d(x) - 0.2, 0.0))
        cfg = StepperConfig(dt=1e-6, t_end=3e-6, cutoff=CutoffParams(0.0))
        # the per-grid stencil map is built once, before any step
        a = assemble_lubrication_1d(spec.initial_field(), spec)
        assert np.any(np.diff(a.csr.indptr) == 0)  # dry rows store no diagonal

        def refuse(matrix, *args, **kwargs):
            raise AssertionError(f"built a scipy {type(matrix).__name__}")

        monkeypatch.setattr(_spbase, "__init__", refuse)
        with pytest.raises(AssertionError, match="built a scipy csr_matrix"):
            sp.csr_matrix(np.eye(2))
        _, trace, _ = run_lubrication(spec, cfg)
        assert trace.solver.routes == ["banded-lu"]
        assert trace.solver.factorizations == cfg.n_steps


def film_states_2d():
    """(name, spec, lagged state): 2D films whose 13 diagonals must act as
    the sparse product's CSR, dry patches included."""
    spec = LubricationSpec.default_2d(24)
    patch = spec.initial_field().values.copy()
    patch.reshape(25, 25)[8:17, 9:15] = 0.0
    wide = LubricationSpec(grid=Grid2D(-1.0, 1.0, 11, -0.5, 1.0, 7))
    rng = np.random.default_rng(17)
    speckled = rng.uniform(0.0, 2.0, wide.grid.node_count)
    speckled[rng.random(speckled.size) < 0.3] = 0.0
    cases = [
        ("initial", spec, spec.initial_field()),
        ("dry patch", spec, Field(spec.grid, patch)),
        ("speckled", wide, Field(wide.grid, speckled)),
        ("all dry", wide, Field(wide.grid, np.zeros(wide.grid.node_count))),
    ]
    return [pytest.param(spec, u, id=name) for name, spec, u in cases]


class TestDiagonalForm2D:
    """The 2D film's operator lives on its 13 diagonals too: product, norm,
    pattern and shift give the bits scipy gives on the sparse product, and
    CSR is formed only for the LU."""

    @staticmethod
    def with_oracle(u, spec):
        a = assemble_lubrication_2d(u, spec)
        assert a.diagonals()[1].shape == (13, spec.grid.node_count)
        ref = reference_operator_2d(u, spec)
        assert_same_csr_bits(a.csr, ref)
        return a, ref

    @pytest.mark.parametrize("spec,u", film_states_2d())
    def test_matvec_norm_and_pattern(self, spec, u):
        assert_acts_as_csr(*self.with_oracle(u, spec))

    @pytest.mark.parametrize("spec,u", film_states_2d())
    def test_identity_plus(self, spec, u):
        assert_shifts_as_csr(*self.with_oracle(u, spec))

    def test_scipy_matrices_only_on_factoring_steps(self, monkeypatch):
        from scipy.sparse._base import _spbase

        from cutoffpde import lubrication

        spec = LubricationSpec.default_2d(40)
        cfg = StepperConfig(dt=1e-6, t_end=4e-4, cutoff=CutoffParams(0.0))
        _stencil_map(spec.grid)  # built once per grid, before any step
        step = [0]
        built, factored = Counter(), Counter()

        def counting(original, counter):
            def wrapper(*args, **kwargs):
                counter[step[0]] += 1
                return original(*args, **kwargs)
            return wrapper

        def assemble(*args):
            step[0] += 1  # each step assembles its operator first
            return assemble_lubrication_2d(*args)

        monkeypatch.setattr(lubrication, "assemble_lubrication_2d", assemble)
        monkeypatch.setattr(_spbase, "__init__", counting(_spbase.__init__, built))
        monkeypatch.setattr(Factorization, "__init__", counting(Factorization.__init__, factored))
        _, trace, _ = run_lubrication(spec, cfg)
        assert step[0] == cfg.n_steps == 400
        assert trace.solver.factorizations == sum(factored.values()) == 2
        assert sorted(built) == sorted(factored)


class TestLaplacianCache:
    """The stencil map, read off the Laplacian's diagonals, is built once
    per grid and shared by every assembly on it, so its arrays are
    read-only."""

    @staticmethod
    def arrays(stencil_map):
        offsets, product = stencil_map
        return offsets, product.data, product.indices, product.indptr

    def test_one_build_per_grid(self):
        _stencil_map.cache_clear()
        grids = [Grid1D(-1.0, 1.0, 64), Grid2D.square(-1.0, 1.0, 6), Grid1D(-1.0, 1.0, 65)]
        maps = [_stencil_map(grid) for grid in grids]
        # equal grids, built apart, share the one map
        assert _stencil_map(Grid1D(-1.0, 1.0, 64)) is maps[0]
        assert _stencil_map(Grid2D.square(-1.0, 1.0, 6)) is maps[1]
        assert maps[0] is not maps[2]
        assert _stencil_map.cache_info().misses == 3
        for stencil_map in maps:
            assert not any(array.flags.writeable for array in self.arrays(stencil_map))

    def test_unchanged_by_a_run(self):
        for spec in (LubricationSpec.default_1d(64), LubricationSpec.default_2d(6)):
            stencil_map = _stencil_map(spec.grid)
            before = [array.copy() for array in self.arrays(stencil_map)]
            run_lubrication(spec, StepperConfig(dt=1e-6, t_end=1e-5, cutoff=CutoffParams(0.0)))
            assert _stencil_map(spec.grid) is stencil_map
            for old, new in zip(before, self.arrays(stencil_map)):
                assert same_bits(old, new)
                assert not new.flags.writeable


class TestAssembly2D:
    def test_weighted_column_sums_vanish(self):
        spec = LubricationSpec.default_2d(10)
        a = assemble_lubrication_2d(spec.initial_field(), spec)
        colsums = trapezoid_weights(spec.grid) @ a.to_dense()
        assert np.max(np.abs(colsums)) <= 1e-12 / spec.grid.hx**4

    def test_symmetry_under_axis_swap(self):
        # the tensor-product film is symmetric in x <-> y, so conjugating the
        # operator by the transpose permutation must reproduce it
        spec = LubricationSpec.default_2d(6)
        a = assemble_lubrication_2d(spec.initial_field(), spec).to_dense()
        n = spec.grid.nx_cells + 1
        perm = np.arange(n * n).reshape(n, n).T.ravel()
        assert np.allclose(a, a[np.ix_(perm, perm)], atol=1e-9)

    def test_grid_mismatch_rejected(self):
        spec = LubricationSpec.default_2d(8)
        wrong = Field(Grid2D.square(-1.0, 1.0, 6), np.ones(49))
        with pytest.raises(ValueError, match="must live on the 2D grid"):
            assemble_lubrication_2d(wrong, spec)


class TestTouchingLength:
    @staticmethod
    def field_with_zeros(n, zero_idx):
        grid = Grid1D(-1.0, 1.0, n)
        vals = np.ones(grid.node_count)
        vals[list(zero_idx)] = 0.0
        return Field(grid, vals)

    def test_empty(self):
        assert touching_length(self.field_with_zeros(10, [])) == 0.0

    def test_isolated_node_is_half_cell(self):
        f = self.field_with_zeros(10, [4])
        assert touching_length(f) == pytest.approx(0.5 * f.grid.h, rel=1e-15)

    def test_span_is_fencepost(self):
        f = self.field_with_zeros(10, [3, 7])
        assert touching_length(f) == pytest.approx(4 * f.grid.h, rel=1e-15)
        g = self.field_with_zeros(10, [3, 4, 5, 6, 7])
        assert touching_length(g) == touching_length(f)

    def test_2d_weighted_area(self):
        grid = Grid2D.square(-1.0, 1.0, 4)
        vals = np.ones(grid.node_count)
        f = Field(grid, vals.copy())
        assert touching_length(f) == 0.0
        vals[0] = 0.0  # corner: quarter cell
        assert touching_length(Field(grid, vals)) == pytest.approx(
            0.25 * grid.hx * grid.hy, rel=1e-15
        )
        assert touching_length(Field(grid, np.zeros(grid.node_count))) == pytest.approx(
            4.0, rel=1e-14
        )


class TestZeroPlateau:
    @staticmethod
    def snap(vals, n=200):
        grid = Grid1D(-1.0, 1.0, n)
        return (0.0, Field(grid, np.asarray(vals, dtype=float)))

    def make_values(self, n=200, block=(100, 106), fill=0.0):
        vals = np.ones(n + 1)
        lo, hi = block
        vals[lo:hi] = fill
        return vals

    def test_detects_wide_exact_block(self):
        vals = self.make_values()
        assert has_zero_plateau([self.snap(vals)])

    def test_interior_bump_blocks_detection(self):
        vals = self.make_values()
        vals[103] = 1e-6
        assert not has_zero_plateau([self.snap(vals)])

    def test_solver_dust_is_tolerated(self):
        vals = self.make_values()
        vals[103] = 1e-13
        assert has_zero_plateau([self.snap(vals)])

    def test_narrow_block_does_not_count(self):
        vals = np.ones(201)
        vals[100:102] = 0.0  # span h = 0.01 < min width
        assert not has_zero_plateau([self.snap(vals)])

    def test_constants(self):
        assert ZERO_PLATEAU_MIN_WIDTH == 0.02
        assert ZERO_PLATEAU_TOL == 1e-12

    def test_rejects_2d(self):
        grid = Grid2D.square(-1.0, 1.0, 4)
        with pytest.raises(ValueError, match="1D fields"):
            has_zero_plateau([(0.0, Field(grid, np.zeros(grid.node_count)))])

    def test_empty_series(self):
        assert not has_zero_plateau([])


class TestTrackSingularity:
    @staticmethod
    def series(flags, n=10):
        grid = Grid1D(-1.0, 1.0, n)
        out = []
        for k, touching in enumerate(flags):
            vals = np.ones(grid.node_count)
            if touching:
                vals[4:7] = 0.0
            out.append((float(k), Field(grid, vals)))
        return out

    def test_onset_and_persistent_liftoff(self):
        rec = track_singularity(self.series([False, True, True, False, False]))
        assert rec.onset_time == 1.0
        assert rec.liftoff_time == 3.0
        assert rec.max_touching_length == pytest.approx(2 * 0.2, rel=1e-15)

    def test_flicker_does_not_end_the_episode(self):
        rec = track_singularity(self.series([False, True, False, True, False, False]))
        assert rec.onset_time == 1.0
        assert rec.liftoff_time == 4.0

    def test_never_lifts(self):
        rec = track_singularity(self.series([False, True, True]))
        assert rec.onset_time == 1.0
        assert rec.liftoff_time is None

    def test_never_touches(self):
        rec = track_singularity(self.series([False, False]))
        assert rec.onset_time is None
        assert rec.liftoff_time is None
        assert rec.max_touching_length == 0.0
        assert rec.onset_precutoff_time is None

    def test_times_must_increase(self):
        snaps = self.series([False, True])
        snaps[1] = (0.0, snaps[1][1])
        with pytest.raises(ValueError, match="strictly increasing"):
            track_singularity(snaps)

    def test_record_csv(self, tmp_path):
        rec = SingularityRecord(
            onset_time=0.5, liftoff_time=None, touching=[(0.0, 0.0), (0.5, 0.25)],
            max_touching_length=0.25, onset_precutoff_time=0.375,
        )
        p = tmp_path / "sing.csv"
        rec.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "onset=0.5"
        assert lines[1] == "liftoff=none"
        assert lines[2] == "max_length=0.25"
        assert lines[3] == "onset_precutoff=0.375"
        assert lines[4] == "t,touching_length"
        assert lines[5] == "0,0"
        assert lines[6] == "0.5,0.25"


class TestRunLubrication:
    def test_guards(self):
        spec = LubricationSpec.default_1d(50)
        with pytest.raises(ValueError, match="needs the cutoff"):
            run_lubrication(spec, StepperConfig(dt=1e-6, t_end=1e-5))

    def test_mollified_run_without_cutoff(self):
        spec = LubricationSpec.default_1d(50, epsilon=1e-2)
        cfg = StepperConfig(dt=1e-6, t_end=1e-5)
        final, trace, rec = run_lubrication(spec, cfg)
        assert len(trace.records) == 11
        assert rec.onset_time is None

    def test_mollified_film_without_cutoff_fails_with_its_trace(self):
        # the lagged state goes negative at touchdown, where the mobility
        # cannot be evaluated; the run stops with the trace up to that step
        spec = LubricationSpec.default_1d(100, epsilon=1e-14)
        cfg = StepperConfig(dt=1e-6, t_end=1e-3)
        with pytest.raises(DivergenceError, match="node 50") as info:
            run_lubrication(spec, cfg)
        trace = info.value.trace
        assert trace.records[-1].min_pre < 0.0
        assert all(r.min_pre > 0.0 for r in trace.records[:-1])

    def test_coarse_draining_film(self):
        # 100 cells, run through touchdown: the film drains at the center,
        # the cutoff keeps the post state nonnegative, and the pre-cutoff
        # minimum crosses zero strictly before any snapshot shows touching
        spec = LubricationSpec.default_1d(100)
        cfg = StepperConfig(dt=1e-6, t_end=1e-3, cutoff=CutoffParams(0.0))
        final, trace, rec = run_lubrication(spec, cfg)

        assert len(trace.records) == 1001
        assert trace.records[0].residual == 0.0
        assert all(r.min_post >= 0.0 for r in trace.records)
        assert float(final.values.min()) >= 0.0

        assert rec.onset_precutoff_time is not None
        assert 5e-4 <= rec.onset_precutoff_time <= 9e-4
        assert rec.onset_time is not None
        assert rec.onset_time >= rec.onset_precutoff_time - 1e-12
        assert rec.max_touching_length > 0.0

        # the recorded pre-cutoff onset is the first record with min_pre <= 0
        first = next(r.t for r in trace.records if r.min_pre <= 0.0)
        assert rec.onset_precutoff_time == first

    def test_mass_drift_before_onset(self):
        spec = LubricationSpec.default_1d(100)
        cfg = StepperConfig(dt=1e-6, t_end=2e-4, cutoff=CutoffParams(0.0))
        _, trace, rec = run_lubrication(spec, cfg)
        assert rec.onset_precutoff_time is None or rec.onset_precutoff_time > 2e-4
        drifts = [
            abs(b.mass_pre - a.mass_post)
            for a, b in zip(trace.records, trace.records[1:])
        ]
        assert max(drifts) <= 1e-9

    def test_reflection_symmetry_preserved(self):
        spec = LubricationSpec.default_1d(100)
        cfg = StepperConfig(dt=1e-6, t_end=1e-4, cutoff=CutoffParams(0.0))
        final, _, _ = run_lubrication(spec, cfg)
        assert np.allclose(final.values, final.values[::-1], atol=1e-10)

    def test_2d_film_keeps_its_symmetries(self):
        # the initial film is even in x and in y and symmetric in x <-> y;
        # the final field must be too, to 1e-10 of its height
        spec = LubricationSpec.default_2d(16)
        cfg = StepperConfig(dt=1e-6, t_end=4e-4, cutoff=CutoffParams(0.0))
        final, _, _ = run_lubrication(spec, cfg)
        n = spec.grid.nx_cells + 1
        u = final.values.reshape(n, n)
        tol = 1e-10 * float(np.max(np.abs(u)))
        for image in (u.T, u[:, ::-1], u[::-1, :]):
            assert float(np.max(np.abs(u - image))) <= tol

    def test_snapshot_controls(self):
        spec = LubricationSpec.default_1d(50)
        cfg = StepperConfig(
            dt=1e-6, t_end=2e-5, cutoff=CutoffParams(0.0),
            snapshot_every=4, snapshot_times=(5e-6,),
        )
        _, trace, _ = run_lubrication(spec, cfg)
        steps = sorted(round(t / 1e-6) for t, _ in trace.snapshots)
        assert steps == [0, 4, 5, 8, 12, 16, 20]
        snapshot_near(trace, 5e-6, 1e-12)
        assert SNAPSHOT_EVERY_DEFAULT == 10

    def test_small_2d_run(self):
        spec = LubricationSpec.default_2d(12)
        cfg = StepperConfig(dt=1e-6, t_end=2e-5, cutoff=CutoffParams(0.0))
        final, trace, rec = run_lubrication(spec, cfg)
        assert len(trace.records) == 21
        assert float(final.values.min()) >= 0.0
        drifts = [
            abs(b.mass_pre - a.mass_post)
            for a, b in zip(trace.records, trace.records[1:])
        ]
        assert max(drifts) <= 1e-9


class TestWholeRunConservation:
    """Through touchdown, where the cutoff clips mass every step, each step's
    solve still conserves the mass of the floored state it started from, and
    every floored state is nonnegative."""

    @pytest.mark.parametrize("spec, t_end", [
        (LubricationSpec.default_1d(100), 2.5e-3),   # touchdown and liftoff
        (LubricationSpec.default_2d(12), 1e-3),
    ], ids=["1d", "2d"])
    def test_every_step(self, spec, t_end):
        cfg = StepperConfig(dt=1e-5, t_end=t_end, cutoff=CutoffParams(0.0))
        _, trace, record = run_lubrication(spec, cfg)
        records = trace.records
        assert len(records) == round(t_end / 1e-5) + 1
        assert record.onset_precutoff_time is not None
        assert any(r.mass_post > r.mass_pre for r in records)
        for prev, cur in zip(records, records[1:]):
            assert abs(cur.mass_pre - prev.mass_post) <= 1e-9 * prev.mass_post, cur.step
        assert all(r.min_post >= 0.0 for r in records)
