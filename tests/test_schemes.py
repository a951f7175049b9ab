"""Rectangle and trapezoid discretizations of the VIX^2 window integral."""

import math

import numpy as np
import pytest

from roughvix import (
    GaussianSample,
    SchemeKind,
    UsageError,
    geometric_vix2,
    rectangle_vix2,
    scheme_vix2,
    trapezoid_vix2,
    vix_from_vix2,
)
from roughvix.schemes import _GridMean, quadrature_mean

from oracles import row_order_scheme_mean


def _sample(values):
    arr = np.asarray(values, dtype=float)
    return GaussianSample(values=arr, grid_n=arr.shape[0] - 1)


def _within_bound(value, *summed):
    """`value` against the mean of the exact averages of the `summed` rows.

    Each average is shifted by its first value: over k rows it is within
    (k+2) * 2**-53 * (1 + shift/mean) of the exact one, relative, and the
    trapezoid's mean of two averages adds one rounding.
    """
    exact = [math.fsum(v) / len(v) for v in summed]
    bound = max((len(v) + 3) * 2.0**-53 * (1.0 + v[0] / m) for v, m in zip(summed, exact))
    return abs(value / (sum(exact) / len(exact)) - 1.0) <= bound


def test_scheme_sums_match_fsum_on_positive_input():
    n = 400
    x = np.random.default_rng(3).normal(0.0, 2.0, size=n + 1)
    e = np.exp(x)
    assert _within_bound(rectangle_vix2(_sample(x)), e[1:])
    assert _within_bound(trapezoid_vix2(_sample(x)), e[:-1], e[1:])


def test_scheme_sums_are_columnwise():
    n = 64
    x = np.random.default_rng(4).normal(0.0, 2.0, size=(n + 1, 3))
    e = np.exp(x)
    rect = rectangle_vix2(_sample(x))
    trap = trapezoid_vix2(_sample(x))
    assert rect.shape == trap.shape == (3,)
    for j in range(3):
        assert _within_bound(rect[j], e[1:, j])
        assert _within_bound(trap[j], e[:-1, j], e[1:, j])


def test_rectangle_uses_right_endpoints():
    x = np.log(np.array([9.0, 1.0, 2.0, 3.0]))
    # The left endpoint must not contribute.
    assert rectangle_vix2(_sample(x)) == pytest.approx(2.0, rel=1e-15)


def test_trapezoid_is_mean_of_left_and_right_rectangles():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(9, 7))
    sample = _sample(x)
    e = np.exp(x)
    left = np.mean(e[:-1], axis=0)
    right = np.mean(e[1:], axis=0)
    np.testing.assert_allclose(
        trapezoid_vix2(sample), (left + right) / 2.0, rtol=1e-15
    )


def test_constant_exponent_is_reproduced_exactly():
    x = np.full(11, -2.5)
    sample = _sample(x)
    assert rectangle_vix2(sample) == pytest.approx(math.exp(-2.5), rel=1e-15)
    assert trapezoid_vix2(sample) == pytest.approx(math.exp(-2.5), rel=1e-15)


def test_scheme_dispatch():
    x = np.linspace(-1.0, 1.0, 5)
    sample = _sample(x)
    assert scheme_vix2(SchemeKind.RECTANGLE, sample) == rectangle_vix2(sample)
    assert scheme_vix2(SchemeKind.TRAPEZOID, sample) == trapezoid_vix2(sample)


def test_small_case_against_exact_sum():
    x = np.array([0.1, -0.4, 0.25, -1.0])
    expected_rect = math.fsum(math.exp(v) for v in x[1:]) / 3
    expected_trap = (
        math.fsum(math.exp(v) for v in x[1:]) + math.fsum(math.exp(v) for v in x[:-1])
    ) / 6
    assert rectangle_vix2(_sample(x)) == pytest.approx(expected_rect, rel=1e-14)
    assert trapezoid_vix2(_sample(x)) == pytest.approx(expected_trap, rel=1e-14)


def test_batched_values_reduce_per_column():
    # At 40 rows NumPy's pairwise summation, which np.sum uses for a 1-D
    # draw or a width-1 batch, differs from row order in the last bits, so
    # equality pins the row order: a column's value is the same whatever
    # the width of its batch.
    x = np.random.default_rng(1).normal(size=(40, 5))
    reducers = [
        rectangle_vix2,
        trapezoid_vix2,
        lambda s: geometric_vix2(s.values, SchemeKind.RECTANGLE),
        lambda s: geometric_vix2(s.values, SchemeKind.TRAPEZOID),
    ]
    for reduce in reducers:
        out = reduce(_sample(x))
        assert out.shape == (5,)
        for j in range(5):
            column = x[:, j]
            assert reduce(_sample(column[:, None]))[0] == out[j]
            assert reduce(_sample(column)) == out[j]


@pytest.mark.parametrize("step", [1, 2, 3, 4, 6, 12])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_running_average_matches_the_one_pass_average(kind, step):
    # The batch kernel feeds a grid's average one block of consecutive
    # rows at a time, each block in a reused buffer; whatever the block
    # bounds, every step-th row must be added as one pass over the
    # restricted grid adds it, bit for bit.
    n = 24
    x = np.random.default_rng(5).normal(size=(n + 1, 4))
    expected = row_order_scheme_mean(kind, x[::step])
    np.testing.assert_array_equal(quadrature_mean(kind, x[::step]), expected)
    # Bounds that split the grid anywhere, including after row 12, so a
    # side can end in a block that later blocks overwrite.
    for bounds in ([0, 25], [0, 1, 25], [0, 13, 25], [0, 2, 4, 5, 13, 24, 25], [*range(25), 25]):
        grid = _GridMean(kind, n, step)
        buffer = np.empty_like(x)
        for a, b in zip(bounds, bounds[1:]):
            block = buffer[: b - a]
            block[...] = x[a:b]
            grid.fold(block, a)
            buffer.fill(np.nan)
        np.testing.assert_array_equal(grid.value(), expected)


def test_vix_is_square_root_with_validation():
    assert vix_from_vix2(0.04) == pytest.approx(0.2, rel=1e-15)
    np.testing.assert_allclose(
        vix_from_vix2(np.array([0.01, 0.09])), [0.1, 0.3], rtol=1e-15
    )
    with pytest.raises(UsageError):
        vix_from_vix2(-1e-9)
