"""Numeric namespaces, so one text of the forecast, bounds and rate serves
Python floats and numpy arrays.

Source terms and the bound and rate cores call only a namespace xp's
functions besides + - * / and comparisons. FLOATS runs them with math on
Python floats (the scalar chain behind every reported number); ARRAYS
with numpy on broadcasting arrays (the mu' search), where the caller sets
what numpy does on a zero division. numpy's exp/log differ from math's in
the last place, so ARRAYS takes a Python float's exp as FLOATS does.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _exp(x: float) -> float:
    """math.exp, saturating at inf as numpy's exp does."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _array_entropy(p):
    h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


# minimum(a, b) is min(a, b), NaN and -0.0 included, at under half the cost
# of the builtin's two-argument call; clip keeps x unless it lies past a bound.
FLOATS = SimpleNamespace(
    exp=_exp, expm1=math.expm1, minimum=lambda a, b: b if b < a else a,
    clip=lambda x, lo, hi: hi if x > hi else (lo if x < lo else x),
    where=lambda c, a, b: a if c else b, ratio=lambda a, b: a / b if b else math.nan,
    entropy=binary_entropy,
)
ARRAYS = SimpleNamespace(
    exp=lambda x: np.exp(x) if isinstance(x, np.ndarray) else _exp(x), expm1=np.expm1,
    minimum=np.minimum, clip=np.clip, where=np.where, ratio=np.divide, entropy=_array_entropy,
)
