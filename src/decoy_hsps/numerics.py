"""The float namespace FLOATS: with its array twins, one text of the
forecast, bounds and rate serves Python floats and numpy arrays.

Source terms and the bound and rate cores call only a namespace xp's
functions besides + - * / and comparisons. FLOATS runs them with math and
Python's ** on Python floats (the scalar chain) and imports no numpy. Its
array twins live next to the mu' search in .optimizer: ARRAYS, with
numpy's own functions, for the search, and EXACT, which gives FLOATS' bits
on plain arrays, for a sweep's columns and the report of every swept point.
"""
from __future__ import annotations

import math
from types import SimpleNamespace


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


def _log1p(x: float) -> float:
    """math.log1p, -inf at -1 as numpy's log1p."""
    return -math.inf if x == -1.0 else math.log1p(x)


# minimum(a, b) is min(a, b), NaN and -0.0 included, at under half the cost
# of the builtin's two-argument call; clip keeps x unless it lies past a bound,
# and positive unless it is not above 0 (a NaN too), where it gives 0.
# square is Python's x ** 2, which raises OverflowError past the float range.
# any tells whether a test holds anywhere: on floats, whether it holds.
FLOATS = SimpleNamespace(
    exp=_exp, expm1=math.expm1, log1p=_log1p, square=lambda x: x**2, minimum=lambda a, b: b if b < a else a,
    clip=lambda x, lo, hi: hi if x > hi else (lo if x < lo else x), positive=lambda x: x if x > 0.0 else 0.0,
    ratio=lambda a, b: a / b if b else math.nan, entropy=binary_entropy, any=bool,
)
