"""Cutoff projections: worked examples plus the exact inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cutoffpde.cutoff import CutoffParams, apply_floor, lemma_gap
from cutoffpde.grids import Field, Grid1D


def field1d(values):
    values = np.asarray(values, dtype=float)
    return Field(Grid1D(0.0, 1.0, values.size - 1), values)


# bounded finite floats keep |f - u| representable, so the inequalities
# must hold with zero tolerance
finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
shapes = st.shared(st.integers(min_value=3, max_value=40), key="n")


class TestCutoffParams:
    def test_default_is_plain(self):
        assert CutoffParams().delta == 0.0

    @pytest.mark.parametrize("bad", [-1e-12, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_delta(self, bad):
        with pytest.raises(ValueError):
            CutoffParams(bad)


class TestCutoffNonneg:
    """apply_floor at delta = 0, the plain cutoff max(f, 0)."""

    def test_sign_cases(self):
        out = apply_floor(np.array([-1.0, 0.5, 0.0]))
        assert np.array_equal(out, [0.0, 0.5, 0.0])

    def test_identity_on_nonnegative(self):
        f = np.array([0.0, 0.25, 1.5, 3.0])
        assert np.array_equal(apply_floor(f, 0.0), f)

    def test_everywhere_negative(self):
        grid = Grid1D(-1.0, 1.0, 10)
        assert np.array_equal(apply_floor(-np.abs(grid.nodes()), 0.0), np.zeros(11))

    def test_rejects_nan_naming_node(self):
        with pytest.raises(ValueError, match="node 2"):
            apply_floor(np.array([0.0, 1.0, float("nan"), 2.0]), 0.0)

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="node 0"):
            apply_floor(np.array([float("inf"), 1.0, 2.0]), 0.0)


class TestCutoffDelta:
    """apply_floor at a configured delta, the floor max(f, delta)."""

    def test_floor_case(self):
        out = apply_floor(np.array([0.05, 0.2, 0.3]), CutoffParams(0.1).delta)
        assert np.array_equal(out, [0.1, 0.2, 0.3])

    def test_bound_attained(self):
        f = np.full(3, -5.0)
        delta = 0.2
        fd = apply_floor(f, CutoffParams(delta).delta)
        fp = apply_floor(f, 0.0)
        assert np.all(fd == 0.2)
        assert np.max(np.abs(fd - fp)) == delta

    def test_zero_delta_degenerates(self):
        f = np.array([-1.0, 0.5, 2.0])
        assert np.array_equal(apply_floor(f, CutoffParams().delta), np.maximum(f, 0.0))


class TestLemmaGap:
    def test_single_node_arithmetic(self):
        gaps = lemma_gap(field1d([-2.0, -2.0, -2.0]), field1d([1.0, 1.0, 1.0]))
        assert gaps == (-2.0, -1.0)

    def test_coincident_nonnegative(self):
        f = field1d([0.0, 1.0, 2.5])
        gaps = lemma_gap(f, f)
        assert gaps[0] == 0.0
        assert gaps[1] <= 0.0

    def test_rejects_negative_reference(self):
        with pytest.raises(ValueError, match=r"u\[1\]"):
            lemma_gap(field1d([1.0, 1.0, 1.0]), field1d([1.0, -0.5, 1.0]))

    def test_random_pairs_never_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(3, 30)
            f = field1d(rng.uniform(-10, 10, n))
            u = field1d(rng.uniform(0, 10, n))
            ga, gc = lemma_gap(f, u)
            assert ga <= 0.0 and gc <= 0.0


class TestExactProperties:
    @given(arrays(float, shapes, elements=finite))
    @settings(max_examples=200)
    def test_idempotent(self, vals):
        once = apply_floor(vals, 0.0)
        assert np.array_equal(apply_floor(once, 0.0), once)

    @given(arrays(float, shapes, elements=finite),
           st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=200)
    def test_floor_is_lower_bound_and_tight(self, vals, delta):
        out = apply_floor(vals, delta)
        assert np.all(out >= delta)
        # entries already above the floor pass through bitwise
        keep = vals >= delta
        assert np.array_equal(out[keep], vals[keep])

    @given(arrays(float, shapes, elements=finite),
           arrays(float, shapes, elements=nonneg))
    @settings(max_examples=300)
    def test_lemma_accuracy_and_correction(self, f, u):
        fp = apply_floor(f, 0.0)
        assert np.all(np.abs(fp - u) <= np.abs(f - u))
        assert np.all(np.abs(fp - f) <= np.abs(u - f))

    @given(arrays(float, shapes, elements=finite),
           arrays(float, shapes, elements=nonneg),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300)
    def test_lemma_delta_bounds(self, f, u, delta):
        fp = apply_floor(f, 0.0)
        fd = apply_floor(f, delta)
        assert np.all(np.abs(fd - fp) <= delta)
        assert np.all(np.abs(fd - u) <= np.abs(f - u) + delta)

    @given(arrays(float, shapes, elements=finite),
           arrays(float, shapes, elements=st.floats(min_value=0.0, max_value=1e6)))
    @settings(max_examples=200)
    def test_monotone(self, f, bump):
        g = f + bump
        assert np.all(apply_floor(f, 0.0) <= apply_floor(g, 0.0))

    @given(arrays(float, shapes, elements=finite),
           arrays(float, shapes, elements=finite))
    @settings(max_examples=200)
    def test_nonexpansive_max_norm(self, f, g):
        fp = apply_floor(f, 0.0)
        gp = apply_floor(g, 0.0)
        assert np.max(np.abs(fp - gp)) <= np.max(np.abs(f - g))
