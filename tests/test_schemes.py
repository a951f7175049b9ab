"""Rectangle and trapezoid discretizations of the VIX^2 window integral."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from roughvix import SchemeKind, UsageError, stream_for
from roughvix.sampler import vix2_runs
from roughvix.schemes import _weight_rows

from oracles import contract_normals, quadrature_weights


def _law(mean, factor=None):
    """A stand-in law on grid points 0..n: `mean`, and the factor `factor`
    (none by default, so every draw is exactly `mean`)."""
    mean = np.asarray(mean, dtype=float)
    L = np.zeros((mean.size, 0)) if factor is None else np.asarray(factor, dtype=float)
    return SimpleNamespace(
        n=mean.size - 1,
        mean=mean,
        factor=SimpleNamespace(L=L, rank=L.shape[1]),
    )


def _kernel(kind, law, total=3, coarse_steps=()):
    """The kernel's fine and coarse VIX^2 of `total` draws, in one batch."""
    ((_, fine, coarse, _),) = vix2_runs(kind, [(law, total, (1,), coarse_steps)], 0)
    return fine, coarse


def _within_bound(value, *summed):
    """`value` against the mean of the exact averages of the `summed` rows.

    Each average is shifted by the first grid value: over k rows it is
    within (k+2) * 2**-53 * (1 + shift/mean) of the exact one, relative,
    and the trapezoid's mean of two averages adds one rounding.
    """
    exact = [math.fsum(v) / len(v) for v in summed]
    bound = max((len(v) + 3) * 2.0**-53 * (1.0 + v[0] / m) for v, m in zip(summed, exact))
    return abs(value / (sum(exact) / len(exact)) - 1.0) <= bound


# --- weight rows ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 6, 12, 250, 768])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_weight_rows_are_the_restricted_rules(kind, n):
    # Every step s dividing n reads the n/s grid's rule on the fine
    # indices 0, s, 2s, ..., n, and its integer row sums to exactly its
    # divisor, which makes a flat model exact on every grid.
    steps = [s for s in range(1, n + 1) if n % s == 0]
    rows, divisors = _weight_rows(kind, n, steps)
    assert rows.shape == (len(steps), n + 1)
    for row, d, step in zip(rows, divisors, steps):
        assert row.sum() == d
        assert math.fsum(row) == d
        assert np.array_equal(row / d, quadrature_weights(kind.value, n, n // step))
        (a,), (d_coarse,) = _weight_rows(kind, n // step, (1,))
        assert d == d_coarse and np.array_equal(row[::step], a)


def test_weight_rows_reject_a_step_that_does_not_divide_the_grid():
    for step in (0, 5, 24):
        with pytest.raises(UsageError, match="does not divide"):
            _weight_rows(SchemeKind.RECTANGLE, 12, (1, step))
    with pytest.raises(UsageError, match="unknown scheme"):
        _weight_rows("rect", 12, (1,))


# --- the kernel on hand-made values -----------------------------------------


def test_rectangle_uses_right_endpoints():
    # The left endpoint must not contribute.
    assert _weight_rows(SchemeKind.RECTANGLE, 3, (1,))[0][0, 0] == 0.0
    fine, _ = _kernel(SchemeKind.RECTANGLE, _law(np.log([9.0, 1.0, 2.0, 3.0])))
    np.testing.assert_allclose(fine, 2.0, rtol=1e-15)


def test_small_case_against_exact_sum():
    x = np.array([0.1, -0.4, 0.25, -1.0])
    expected_rect = math.fsum(math.exp(v) for v in x[1:]) / 3
    expected_trap = (
        math.fsum(math.exp(v) for v in x[1:]) + math.fsum(math.exp(v) for v in x[:-1])
    ) / 6
    np.testing.assert_allclose(_kernel(SchemeKind.RECTANGLE, _law(x))[0], expected_rect, rtol=1e-14)
    np.testing.assert_allclose(_kernel(SchemeKind.TRAPEZOID, _law(x))[0], expected_trap, rtol=1e-14)


def test_scheme_sums_match_fsum_on_positive_input():
    n = 400
    x = np.random.default_rng(3).normal(0.0, 2.0, size=n + 1)
    e = np.exp(x)
    (rect,), _ = _kernel(SchemeKind.RECTANGLE, _law(x), total=1)
    (trap,), _ = _kernel(SchemeKind.TRAPEZOID, _law(x), total=1)
    assert _within_bound(rect, e[1:])
    assert _within_bound(trap, e[:-1], e[1:])


def test_constant_exponent_is_reproduced_exactly():
    # Equal grid values shift to zero, so every grid gives the first
    # exponentiated value itself.
    law = _law(np.full(13, -2.5))
    for kind in SchemeKind:
        fine, coarse = _kernel(kind, law, coarse_steps=(2, 3, 4, 6, 12))
        assert fine == pytest.approx(math.exp(-2.5), rel=1e-15)
        for values in coarse:
            assert np.array_equal(values, fine)


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_scheme_sums_are_columnwise(kind):
    # Each draw (column) is averaged on its own grid values: against the
    # rule's formula per column, on the draws mean + F G of the batch's
    # normals.  The kernel forms its draws by a different product, which
    # moves them by far less than 1e-15 here.
    n, width = 64, 5
    rng = np.random.default_rng(4)
    mean = rng.normal(-3.0, 0.5, size=n + 1)
    factor = rng.normal(0.0, 0.5, size=(n + 1, 3))
    fine, _ = _kernel(kind, _law(mean, factor), total=width)
    draws = np.exp(mean[:, None] + factor @ contract_normals(stream_for(0, 1, 0), (3, width)))
    assert fine.shape == (width,)
    for j in range(width):
        e = draws[:, j]
        summed = (e[1:],) if kind is SchemeKind.RECTANGLE else (e[:-1], e[1:])
        exact = sum(math.fsum(v) / n for v in summed) / len(summed)
        assert fine[j] == pytest.approx(exact, rel=1e-13)


def test_trapezoid_is_mean_of_left_and_right_rectangles():
    x = np.random.default_rng(42).normal(size=25)
    trap, _ = _kernel(SchemeKind.TRAPEZOID, _law(x))
    right, _ = _kernel(SchemeKind.RECTANGLE, _law(x))
    left, _ = _kernel(SchemeKind.RECTANGLE, _law(x[::-1]))
    np.testing.assert_allclose(trap, (left + right) / 2.0, rtol=1e-15)


COARSE_STEPS = (2, 3, 4, 6, 8, 12, 24)


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_coarse_grids_are_the_rule_on_the_restricted_values(kind):
    # A coarse grid of step s is the n/s grid's rule on the fine values
    # at 0, s, 2s, ...: the restricted law, coupled to the fine one.
    x = np.random.default_rng(42).normal(size=25)
    _, coarse = _kernel(kind, _law(x), coarse_steps=COARSE_STEPS)
    for step, values in zip(COARSE_STEPS, coarse, strict=True):
        restricted, _ = _kernel(kind, _law(x[::step]))
        np.testing.assert_allclose(values, restricted, rtol=1e-14)

