import itertools
import math
import random

import numpy as np
import pytest

from decoy_hsps.bounds import _e1_mass
from decoy_hsps.channel import ChannelParams
from decoy_hsps.numerics import FLOATS, binary_entropy
from decoy_hsps.optimizer import ARRAYS, EXACT
from decoy_hsps.sources import COHERENT, triggered_source


def test_arrays_exp_is_numpys():
    # numpy's exp differs from math's in the last place for some inputs, so the
    # mu' search takes its weights at mu on FLOATS and only arrays reach this one
    rng = random.Random(3)
    arr = np.array([rng.uniform(-50.0, 50.0) for _ in range(2000)])
    assert ARRAYS.exp(arr).tobytes() == np.exp(arr).tobytes()


def test_exp_saturates_in_both_namespaces():
    assert FLOATS.exp(800.0) == math.inf
    with np.errstate(over="ignore"):
        assert ARRAYS.exp(np.array([800.0]))[0] == math.inf


def test_zero_ratio_and_entropy_edges_agree():
    assert math.isnan(FLOATS.ratio(0.0, 0.0))
    with np.errstate(invalid="ignore"):
        assert np.isnan(ARRAYS.ratio(np.array([0.0]), np.array([0.0])))[0]
    ps = np.array([0.0, 1e-300, 0.11, 0.5, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        arr = ARRAYS.entropy(ps)
    assert arr[[0, 4]].tolist() == [0.0, 0.0]
    np.testing.assert_allclose(arr, [binary_entropy(p) for p in ps.tolist()], rtol=1e-14, atol=0.0)


# EXACT is FLOATS on arrays, bit for bit: edge values of every function, NaN
# included where the chain lets it through (a NaN compares false everywhere)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 0.25, 0.5, 1.0, -1.0, 1e308, math.inf, -math.inf, math.nan]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _same_elementwise(exact_fn, floats_fn, *columns):
    with np.errstate(all="ignore"):
        got = exact_fn(*(np.asarray(c, dtype=float) for c in columns))
    want = [floats_fn(*args) for args in zip(*columns)]
    return _bits(got) == _bits(want)


def test_exact_selections_and_ratio_are_floats_bit_for_bit():
    a, b = zip(*itertools.product(EDGES, repeat=2))
    assert _same_elementwise(EXACT.minimum, FLOATS.minimum, a, b)
    assert _same_elementwise(lambda x, y: EXACT.where(x > y, x, y), lambda x, y: FLOATS.where(x > y, x, y), a, b)
    # a zero divisor, of either sign, gives NaN; 0/0 never reaches a division
    assert _same_elementwise(EXACT.ratio, FLOATS.ratio, a, b)
    for lo, hi in ((0.0, 0.5), (-0.0, 1.0)):
        assert _same_elementwise(lambda x: EXACT.clip(x, lo, hi), lambda x: FLOATS.clip(x, lo, hi), EDGES)


def test_exact_math_is_floats_bit_for_bit():
    assert _same_elementwise(EXACT.entropy, FLOATS.entropy, [0.0, -0.0, 5e-324, 0.11, 0.5, 1.0 - 2**-53, 1.0])
    # exp saturates at inf past 709.78, as FLOATS' does
    assert _same_elementwise(EXACT.exp, FLOATS.exp, [709.8, 800.0, -800.0, 709.7, 0.0, -0.0, 5e-324, -745.2])
    with np.errstate(over="ignore"):
        assert EXACT.exp(np.asarray([800.0])).tolist() == [math.inf]
    # numpy's expm1 differs from math's in the last place at -0.2387298371237824
    near_zero = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-10, -1e-10, 2**-30, -0.2387298371237824, -700.0]
    assert np.expm1(-0.2387298371237824) != math.expm1(-0.2387298371237824)
    assert _same_elementwise(EXACT.expm1, FLOATS.expm1, near_zero)


def test_exact_square_is_pythons_pow():
    # numpy's square is x*x, which rounds differently from pow on about 0.1 % of
    # inputs: a triggered source's v at mu' = 0.2801 is one, and so is this value
    v = triggered_source(0.8, 1e-5).weights(FLOATS, 0.2801)[4]
    values = [v, 0.633541589146366]
    assert all(x * x != x**2 for x in values)
    assert _bits(EXACT.square(np.asarray(values))) == _bits([x**2 for x in values])
    assert _bits([FLOATS.square(x) for x in values]) == _bits([x**2 for x in values])
    assert _bits(ARRAYS.square(np.asarray(values))) == _bits([x * x for x in values])
    # a square past the float range saturates at inf on arrays, where Python's raises
    assert EXACT.square(np.asarray([1e200])).tolist() == [math.inf]
    with np.errstate(over="ignore"):
        assert ARRAYS.square(np.asarray([1e200])).tolist() == [math.inf]
    with pytest.raises(OverflowError):
        FLOATS.square(1e200)


@pytest.mark.parametrize("ch", [ChannelParams(), ChannelParams(d_b=0.0), ChannelParams(e_0=1.0)],
                         ids=["default", "d_b 0", "e_0 1"])
@pytest.mark.parametrize("src", [triggered_source(0.8, 1e-5), COHERENT], ids=["hsps", "wcs"])
@pytest.mark.parametrize("mu", [1e-10, 0.05, 0.99])
def test_exact_signal_column_is_floats_row_by_row(mu, src, ch):
    # a sweep's part takes each source's signal triple at mu, and its e1 mass, in one
    # EXACT call over the eta column: each row has the bits of the float call at its
    # eta, NaN included (d_b = 0 leaves no yield at eta = 0), and e_0 = 1 meets the cap
    etas = [0.0, 5e-324, 1e-300, 1e-16, 0.045, 1.0]
    w = src.weights(FLOATS, mu)
    with np.errstate(all="ignore"):
        p, ty, e = np.broadcast_arrays(*src.signal(EXACT, mu, np.array(etas)[:, None], ch))
        mass = _e1_mass(w, e, ty, ch.d_b, ch.e_0)
    rows = [src.signal(FLOATS, mu, eta, ch) for eta in etas]
    for got, want in zip((p, ty, e), zip(*rows)):
        assert _bits(got.ravel()) == _bits(want)
    assert _bits(mass.ravel()) == _bits([_e1_mass(w, e, ty, ch.d_b, ch.e_0) for _, ty, e in rows])
