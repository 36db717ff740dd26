"""The float namespace FLOATS: with its array twin, one text of the
forecast, bounds and rate serves Python floats and numpy arrays.

Source terms and the bound and rate cores call only a namespace xp's
functions besides + - * / and comparisons. FLOATS runs them with math on
Python floats (the scalar chain behind every reported number) and imports
no numpy. Its array twin ARRAYS, for the mu' search, lives next to that
search in .optimizer.
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


# minimum(a, b) is min(a, b), NaN and -0.0 included, at under half the cost
# of the builtin's two-argument call; clip keeps x unless it lies past a bound.
FLOATS = SimpleNamespace(
    exp=_exp, expm1=math.expm1, minimum=lambda a, b: b if b < a else a,
    clip=lambda x, lo, hi: hi if x > hi else (lo if x < lo else x),
    where=lambda c, a, b: a if c else b, ratio=lambda a, b: a / b if b else math.nan,
    entropy=binary_entropy,
)
