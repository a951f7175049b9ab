"""Gauss hypergeometric evaluation on the negative real axis."""

import mpmath
import numpy as np
import pytest

from roughvix import UsageError, hyp2f1

from oracles import euler_hyp2f1

# (a, b, c, x) -> value, frozen from an independent quadrature oracle.
FROZEN = [
    ((0.2, 0.8, 1.8, -3.0), 0.8605304168899135),
    ((0.4, 0.6, 1.6, -0.5), 0.9376320677407469),
    ((0.4, 0.6, 1.6, -500.0), 0.19348638150355946),
    ((0.45, 0.55, 1.55, -1.618), 0.8399328291913524),
    ((0.05, 0.95, 1.95, -40.0), 0.8716342336922872),
]


@pytest.mark.parametrize("args,expected", FROZEN)
def test_frozen_values(args, expected):
    assert hyp2f1(*args) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("args,expected", FROZEN)
def test_frozen_values_match_euler_oracle(args, expected):
    assert euler_hyp2f1(*args) == pytest.approx(expected, rel=1e-11)


def _parameter_triple(H):
    return 0.5 - H, 0.5 + H, 1.5 + H


def _reference(a, b, c, xs):
    """2F1 at the exact binary values of the arguments, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        values = [float(mpmath.hyp2f1(a, b, c, float(x))) for x in np.ravel(xs)]
    return np.reshape(values, np.shape(xs))


# 1e-4 .. 0.45 take the direct call; 0.9985 is the edge of the band around
# a - b = -2 and 0.999 .. 0.9999999 lie inside it (Pfaff route).
@pytest.mark.parametrize(
    "H",
    [1e-4, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.75, 0.99, 0.9985, 0.999, 0.99975,
     0.99999, 0.9999999],
)
def test_matches_scipy_across_magnitudes(H):
    # The reference is mpmath: scipy is what the wrapper calls.
    a, b, c = _parameter_triple(H)
    xs = -np.logspace(-10, 8, 61)
    ours = hyp2f1(a, b, c, xs)
    np.testing.assert_allclose(ours, _reference(a, b, c, xs), rtol=5e-12, atol=0.0)


def test_unit_argument_region_near_series_boundary():
    # |x| around 1, where the Pfaff argument x/(x-1) crosses 1/2.
    for H in (0.25, 0.5 + 1e-8, 0.9999):
        a, b, c = _parameter_triple(H)
        xs = -np.linspace(0.5, 2.5, 31)
        ours = hyp2f1(a, b, c, xs)
        np.testing.assert_allclose(ours, _reference(a, b, c, xs), rtol=5e-12)


def test_zero_argument_is_one():
    assert hyp2f1(0.2, 0.8, 1.8, 0.0) == 1.0
    out = hyp2f1(0.2, 0.8, 1.8, np.array([0.0, -1.0]))
    assert out[0] == 1.0


def test_zero_numerator_parameter_is_constant_one():
    # a = 0 terminates the series at its first term.
    assert hyp2f1(0.0, 1.0, 2.0, -7.5) == 1.0
    assert np.all(hyp2f1(0.0, 1.0, 2.0, np.array([-1e8, -3.0])) == 1.0)


def test_scalar_and_array_agree():
    a, b, c = _parameter_triple(0.3)
    xs = np.array([-0.25, -2.0, -1e4])
    arr = hyp2f1(a, b, c, xs)
    for x, v in zip(xs, arr):
        assert hyp2f1(a, b, c, float(x)) == v


def test_near_half_hurst_matches_mpmath():
    # a - b = -2H approaches -1, where scipy's 1/x transformation cancels.
    # 0.5 +- 1.5e-5 is the edge of the Pfaff band; 0.4999 stays outside it.
    xs = -np.logspace(-10, 8, 37)
    offsets = [1e-4, 1.5e-5] + [10.0**-k for k in (5, 7, 8, 9, 13, 14, 15)]
    for H in [0.5 + s * d for d in offsets for s in (-1.0, 1.0)]:
        a, b, c = _parameter_triple(H)
        np.testing.assert_allclose(
            hyp2f1(a, b, c, xs), _reference(a, b, c, xs), rtol=5e-12, atol=0.0,
            err_msg=f"H={H!r}",
        )


def test_positive_argument_rejected():
    with pytest.raises(UsageError):
        hyp2f1(0.2, 0.8, 1.8, 0.5)


def test_nonpositive_c_rejected():
    with pytest.raises(UsageError):
        hyp2f1(0.2, 0.8, -1.0, -0.5)
    with pytest.raises(UsageError):
        hyp2f1(0.2, 0.8, 0.0, -0.5)


def test_nan_a_rejected():
    with pytest.raises(UsageError, match="a=nan"):
        hyp2f1(np.nan, 0.6, 1.6, -1.0)


def test_infinite_b_rejected():
    with pytest.raises(UsageError, match="b=inf"):
        hyp2f1(0.4, np.inf, 1.6, -1.0)


def test_non_finite_c_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(UsageError, match="c="):
            hyp2f1(0.4, 0.6, bad, -1.0)


def test_bool_parameters_rejected():
    for args in ((True, 0.6, 1.6), (0.4, True, 1.6), (0.4, 0.6, True)):
        with pytest.raises(UsageError, match="=True"):
            hyp2f1(*args, -1.0)


def test_non_finite_argument_rejected():
    for bad in (np.nan, -np.inf):
        with pytest.raises(UsageError):
            hyp2f1(0.2, 0.8, 1.8, bad)
        with pytest.raises(UsageError):
            hyp2f1(0.2, 0.8, 1.8, np.array([-1.0, bad]))


def test_preserves_input_shape():
    a, b, c = _parameter_triple(0.2)
    xs = -np.linspace(0.1, 3.0, 6).reshape(2, 3)
    out = hyp2f1(a, b, c, xs)
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out, _reference(a, b, c, xs), rtol=5e-12)
