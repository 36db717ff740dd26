import math
import random

import numpy as np

from decoy_hsps.numerics import FLOATS, binary_entropy
from decoy_hsps.optimizer import ARRAYS


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
