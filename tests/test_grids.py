"""Grids, fields, quadrature, norms, and field CSV i/o."""

import math

import numpy as np
import pytest

from cutoffpde.cutoff import cutoff_nonneg
from cutoffpde.grids import (
    Field,
    Grid1D,
    Grid2D,
    domain_measure,
    l2_norm,
    mass,
    max_norm,
    max_undershoot,
    read_field_csv,
    trapezoid_weights,
    write_field_csv,
)
from cutoffpde.lubrication import default_initial_1d, default_initial_2d


class TestGrid1D:
    def test_geometry(self):
        g = Grid1D(-1.0, 1.0, 4)
        assert g.h == 0.5
        assert g.node_count == 5
        assert np.array_equal(g.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 4)

    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)

    def test_rejects_nonfinite_endpoint(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, float("inf"), 4)


class TestGrid2D:
    def test_square(self):
        g = Grid2D.square(0.0, 1.0, 3)
        assert g.node_count == 16
        assert g.shape == (4, 4)
        assert g.hx == g.hy

    def test_row_major_ordering(self):
        g = Grid2D(0.0, 1.0, 2, 10.0, 12.0, 2)
        x, y = g.node_xy()
        # flat index j*(nx+1) + i holds (x_i, y_j)
        assert x[0 * 3 + 1] == 0.5 and y[0 * 3 + 1] == 10.0
        assert x[2 * 3 + 0] == 0.0 and y[2 * 3 + 0] == 12.0

    def test_axis_validation_applies(self):
        with pytest.raises(ValueError):
            Grid2D(0.0, 1.0, 1, 0.0, 1.0, 4)


class TestField:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            Field(Grid1D(0.0, 1.0, 4), np.zeros(4))

    def test_from_function_1d(self):
        g = Grid1D(0.0, 1.0, 4)
        f = Field.from_function(g, lambda x: 2.0 * x)
        assert np.array_equal(f.values, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_from_function_2d_and_reshape(self):
        g = Grid2D.square(0.0, 1.0, 2)
        f = Field.from_function(g, lambda x, y: x + 10.0 * y)
        assert f.values.reshape(g.shape)[1, 2] == 1.0 + 5.0  # (x=1, y=0.5)

    def test_cross_grid_arithmetic_rejected(self):
        a = Field(Grid1D(0.0, 1.0, 4), np.zeros(5))
        b = Field(Grid1D(0.0, 2.0, 4), np.zeros(5))
        with pytest.raises(ValueError):
            a - b

    def test_sub(self):
        g = Grid1D(0.0, 1.0, 2)
        a = Field(g, np.array([1.0, 2.0, 3.0]))
        b = Field(g, np.array([0.5, 0.5, 0.5]))
        assert np.array_equal((a - b).values, [0.5, 1.5, 2.5])


class TestQuadrature:
    def test_weights_1d(self):
        w = trapezoid_weights(Grid1D(0.0, 1.0, 4))
        assert np.array_equal(w, [0.125, 0.25, 0.25, 0.25, 0.125])

    def test_weights_2d_corner_quarter(self):
        g = Grid2D.square(0.0, 1.0, 2)
        w = trapezoid_weights(g).reshape(g.shape)
        h2 = 0.5 * 0.5
        assert w[0, 0] == 0.25 * h2
        assert w[0, 1] == 0.5 * h2
        assert w[1, 1] == h2

    def test_weights_sum_to_measure(self):
        g1 = Grid1D(-1.0, 1.0, 7)
        g2 = Grid2D.square(-1.0, 1.0, 5)
        assert trapezoid_weights(g1).sum() == pytest.approx(domain_measure(g1), rel=1e-14)
        assert trapezoid_weights(g2).sum() == pytest.approx(domain_measure(g2), rel=1e-14)


class TestL2Norm:
    def test_constant_one(self):
        for n in (4, 7, 33):
            f = Field(Grid1D(0.0, 1.0, n), np.ones(n + 1))
            assert l2_norm(f) == pytest.approx(1.0, rel=1e-13)

    def test_zero_field(self):
        assert l2_norm(Field(Grid1D(0.0, 1.0, 4), np.zeros(5))) == 0.0

    def test_hand_trapezoid_sum(self):
        # e_j = x_j on [0,1], 4 cells: sqrt(h*(0/2 + .25^2 + .5^2 + .75^2 + 1/2))
        # = sqrt(0.25 * 1.375) = sqrt(0.34375)
        g = Grid1D(0.0, 1.0, 4)
        val = l2_norm(Field(g, g.nodes()))
        assert val == pytest.approx(math.sqrt(0.34375), abs=1e-16)
        assert val == pytest.approx(0.5863019699779287, abs=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            l2_norm(Field(Grid1D(0.0, 1.0, 2), np.array([0.0, float("nan"), 0.0])))

    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(3)
        g = Grid1D(-2.0, 3.0, 17)
        for _ in range(100):
            a = Field(g, rng.normal(size=18))
            b = Field(g, rng.normal(size=18))
            s = float(rng.normal())
            assert l2_norm(Field(g, s * a.values)) == pytest.approx(abs(s) * l2_norm(a), rel=1e-12)
            assert l2_norm(Field(g, a.values + b.values)) <= l2_norm(a) + l2_norm(b) + 1e-12


class TestMaxUndershoot:
    def test_simple(self):
        f = Field(Grid1D(0.0, 1.0, 2), np.array([0.2, -0.003, 0.5]))
        assert max_undershoot(f) == 0.003

    def test_nonnegative_field(self):
        f = Field(Grid1D(0.0, 1.0, 2), np.array([0.0, 1.0, 2.0]))
        assert max_undershoot(f) == 0.0

    def test_equals_cutoff_distance(self):
        rng = np.random.default_rng(11)
        g = Grid1D(0.0, 1.0, 30)
        for _ in range(100):
            f = Field(g, rng.uniform(-5, 5, 31))
            dist = np.max(np.abs(f.values - cutoff_nonneg(f).values))
            assert max_undershoot(f) == dist

    def test_max_norm(self):
        f = Field(Grid1D(0.0, 1.0, 2), np.array([-3.0, 1.0, 2.0]))
        assert max_norm(f) == 3.0


class TestMass:
    def test_default_film_mean(self):
        g = Grid1D(-1.0, 1.0, 1000)
        f = Field.from_function(g, default_initial_1d)
        # cosine terms integrate to zero over whole periods, and uniform
        # trapezoid sums of whole-period cosines vanish as well
        assert mass(f) == pytest.approx(1.6, rel=1e-12)
        assert mass(f) / domain_measure(g) == pytest.approx(0.8, rel=1e-12)
        assert float(f.values.min()) == pytest.approx(0.05, abs=1e-12)

    def test_constant(self):
        g = Grid1D(-1.0, 1.0, 9)
        assert mass(Field(g, np.full(10, 3.0))) == pytest.approx(6.0, rel=1e-14)

    def test_product_film_mean_2d(self):
        g = Grid2D.square(-1.0, 1.0, 100)
        f = Field.from_function(g, default_initial_2d)
        assert mass(f) / domain_measure(g) == pytest.approx(0.64, rel=1e-12)

    def test_linear_in_field(self):
        g = Grid1D(0.0, 1.0, 12)
        rng = np.random.default_rng(5)
        a = Field(g, rng.normal(size=13))
        b = Field(g, rng.normal(size=13))
        assert mass(Field(g, a.values + b.values)) == pytest.approx(mass(a) + mass(b), abs=1e-13)


class TestFieldCsv:
    def test_roundtrip_1d(self, tmp_path):
        g = Grid1D(-1.0, 1.0, 6)
        f = Field(g, np.linspace(-0.3, 2.7, 7))
        p = tmp_path / "f.csv"
        write_field_csv(f, p)
        back = read_field_csv(g, p)
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(back.values, f.values)
        header = p.read_text().splitlines()[0]
        assert header == "x,value"

    def test_roundtrip_2d(self, tmp_path):
        g = Grid2D.square(0.0, 1.0, 3)
        rng = np.random.default_rng(2)
        f = Field(g, rng.normal(size=g.node_count))
        p = tmp_path / "f2.csv"
        write_field_csv(f, p)
        back = read_field_csv(g, p)
        assert np.array_equal(back.values, f.values)
        assert p.read_text().splitlines()[0] == "x,y,value"
