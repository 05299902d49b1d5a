"""Thin-film mobility, assembly, touching-set tracking, and the 1D/2D drivers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutoffpde.cutoff import CutoffParams
from cutoffpde.grids import (
    Field,
    Grid1D,
    Grid2D,
    domain_measure,
    mass,
    trapezoid_weights,
)
from cutoffpde.linalg import SparseMatrix
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
from cutoffpde.lubrication import (
    _face_mean,
    _lagged_face_mobilities_1d,
    _laplacian_1d,
    _laplacian_2d,
)
from cutoffpde.stepping import DivergenceError, StepperConfig


def reference_operator_1d(u_lagged, spec):
    """The 1D film operator as the sparse product -(D @ Lap) of the flux
    divergence D and the reflected Laplacian: the oracle of the direct
    five-diagonal assembly."""
    grid = spec.grid
    n = grid.node_count
    h = grid.h
    vol = np.full(n, h)
    vol[0] = vol[-1] = 0.5 * h
    c = _lagged_face_mobilities_1d(u_lagged, spec) / h
    left = np.arange(n - 1)
    right = left + 1
    rows = np.concatenate([left, left, right, right])
    cols = np.concatenate([right, left, right, left])
    vals = np.concatenate([c / vol[left], -c / vol[left], -c / vol[right], c / vol[right]])
    div = SparseMatrix.from_coo(n, rows, cols, vals)
    return SparseMatrix(-(div.csr @ _laplacian_1d(grid).csr))


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
    c = _face_mean(f[left], f[right]) / hx
    vleft, vright = volx[gi.ravel()], volx[gi.ravel() + 1]
    rows += [left, left, right, right]
    cols += [right, left, right, left]
    vals += [c / vleft, -c / vleft, -c / vright, c / vright]
    # y-faces between (i, j) and (i, j+1)
    gi, gj = np.meshgrid(np.arange(nx + 1), np.arange(ny))
    low = (gj * (nx + 1) + gi).ravel()
    high = low + (nx + 1)
    c = _face_mean(f[low], f[high]) / hy
    vlow, vhigh = voly[gj.ravel()], voly[gj.ravel() + 1]
    rows += [low, low, high, high]
    cols += [high, low, high, low]
    vals += [c / vlow, -c / vlow, -c / vhigh, c / vhigh]
    div = SparseMatrix.from_coo(
        grid.node_count, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    )
    return SparseMatrix(-(div.csr @ _laplacian_2d(grid).csr))


def assert_same_csr(a, b):
    """Equal indptr, indices and data, values and dtypes alike."""
    for part in ("indptr", "indices", "data"):
        x, y = getattr(a, part), getattr(b, part)
        assert x.dtype == y.dtype, part
        assert np.array_equal(x, y), part


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
        assert mass(u0) / domain_measure(spec.grid) == pytest.approx(0.8, rel=1e-12)

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
        rel = SparseMatrix(ae.csr - a0.csr).operator_norm_inf() / a0.operator_norm_inf()
        assert rel <= 1e-10
        assert rel == pytest.approx(5.5898e-11, rel=1e-3)


class TestAssembly1DMatchesProduct:
    """The direct assembly must reproduce the sparse product to the bit, so
    runs stay bit-identical to the product-based operator."""

    def test_initial_film(self):
        spec = LubricationSpec.default_1d(1000)
        u0 = spec.initial_field()
        assert_same_csr(assemble_lubrication_1d(u0, spec), reference_operator_1d(u0, spec))

    def test_zeroed_interval(self):
        # zero-mobility faces inside the interval leave zero rows there
        spec = LubricationSpec.default_1d(1000)
        vals = spec.initial_field().values.copy()
        vals[400:601] = 0.0
        u = Field(spec.grid, vals)
        a = assemble_lubrication_1d(u, spec)
        assert_same_csr(a, reference_operator_1d(u, spec))
        assert np.all(np.diff(a.indptr)[402:599] == 0)

    def test_mollified_mobility(self):
        spec = LubricationSpec.default_1d(1000, epsilon=1e-14)
        u0 = spec.initial_field()
        assert_same_csr(assemble_lubrication_1d(u0, spec), reference_operator_1d(u0, spec))

    def test_overflowed_mobility_stays_on_the_matrix(self):
        # u^4 overflows at a boundary node: the slots off the matrix then hold
        # NaN, and must still not be stored as columns -2, -1, n or n+1
        spec = LubricationSpec(grid=Grid1D(-1.0, 1.0, 8), mobility=MobilitySpec(exponent=4.0))
        vals = np.ones(9)
        vals[0] = vals[-1] = 1e100
        with np.errstate(over="ignore", invalid="ignore"):
            a = assemble_lubrication_1d(Field(spec.grid, vals), spec)
            ref = reference_operator_1d(Field(spec.grid, vals), spec)
        assert 0 <= a.indices.min() and a.indices.max() <= 8
        assert np.array_equal(a.indptr, ref.indptr)
        assert not np.all(np.isfinite(a.data))

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
        assert_same_csr(assemble_lubrication_1d(u, spec), reference_operator_1d(u, spec))


class TestAssembly2DMatchesProduct:
    """The direct 13-point assembly reproduces the sparse product to the
    bit, so the 2D film runs on the very matrices the product gave."""

    def test_initial_film(self):
        spec = LubricationSpec.default_2d(40)
        u0 = spec.initial_field()
        assert_same_csr(assemble_lubrication_2d(u0, spec), reference_operator_2d(u0, spec))

    def test_dry_patch(self):
        # nodes whose four faces all carry zero mobility leave empty rows
        spec = LubricationSpec.default_2d(24)
        vals = spec.initial_field().values.copy()
        vals.reshape(25, 25)[8:17, 9:15] = 0.0
        u = Field(spec.grid, vals)
        a = assemble_lubrication_2d(u, spec)
        assert_same_csr(a, reference_operator_2d(u, spec))
        assert np.sum(np.diff(a.indptr) == 0) > 0

    def test_mollified_mobility(self):
        spec = LubricationSpec.default_2d(20, epsilon=1e-3)
        u0 = spec.initial_field()
        assert_same_csr(assemble_lubrication_2d(u0, spec), reference_operator_2d(u0, spec))

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
        assert_same_csr(assemble_lubrication_2d(u, spec), reference_operator_2d(u, spec))


class TestLaplacianCache:
    def test_one_build_per_grid(self):
        assert _laplacian_1d(Grid1D(-1.0, 1.0, 64)) is _laplacian_1d(Grid1D(-1.0, 1.0, 64))
        assert _laplacian_2d(Grid2D.square(-1.0, 1.0, 6)) is _laplacian_2d(Grid2D.square(-1.0, 1.0, 6))
        assert _laplacian_1d(Grid1D(-1.0, 1.0, 64)) is not _laplacian_1d(Grid1D(-1.0, 1.0, 65))

    def test_unchanged_by_a_run(self):
        spec = LubricationSpec.default_1d(64)
        lap = _laplacian_1d(spec.grid)
        before = [arr.copy() for arr in (lap.indptr, lap.indices, lap.data)]
        run_lubrication(spec, StepperConfig(dt=1e-6, t_end=1e-5, cutoff=CutoffParams(0.0)))
        assert _laplacian_1d(spec.grid) is lap
        for old, new in zip(before, (lap.indptr, lap.indices, lap.data)):
            assert np.array_equal(old, new)
        assert not lap.data.flags.writeable


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

    def test_threshold(self):
        grid = Grid1D(0.0, 1.0, 4)
        f = Field(grid, np.array([1.0, 0.05, 1.0, 0.02, 1.0]))
        assert touching_length(f) == 0.0
        assert touching_length(f, threshold=0.05) == pytest.approx(2 * grid.h, rel=1e-15)

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
            domain_measure(grid), rel=1e-14
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
        with pytest.raises(ValueError, match="sdirk3 integrator only"):
            run_lubrication(spec, StepperConfig(dt=1e-6, t_end=1e-5, integrator="theta"))
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
        assert trace.diverged
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
        trace.snapshot_near(5e-6, 1e-12)
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
