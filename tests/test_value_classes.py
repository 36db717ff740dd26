"""The contract of the frozen value classes.

ObservedStatistics, SecurityBounds and KeyRatePoint are built once per
reported point, 1,267 times each over figures 1-3 at the defaults, so each
writes its own __init__: the range checks on the arguments, then every
field stored at once, about twice as fast as the generated frozen __init__
and a __post_init__. ChannelParams is built once per resolved configuration
and keeps the generated __init__, with its checks in __post_init__. Each
must behave as the frozen dataclass it is declared as, and raise the same
messages on the same values.
"""
import inspect
import math
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

from decoy_hsps.bounds import KeyRatePoint, SecurityBounds
from decoy_hsps.channel import ChannelParams
from decoy_hsps.observables import ObservedStatistics

OBS = dict(y0=1.7e-6, y_mu=0.004, y_mu_prime=0.02, ty_mu=0.003, ty_mu_prime=0.015,
           e_mu=0.04, e_mu_prime=0.035)
BOUNDS = dict(y1_lower=0.03, delta1=0.6, e1_upper=0.1, feasible=True)
POINT = dict(distance_km=50.0, mu=0.05, mu_prime=0.5, key_rate=1e-4, ideal_rate=2e-4,
             source_kind="hsps", bounds=SecurityBounds(**BOUNDS),
             observables=ObservedStatistics(**OBS), feasible=True)
CHANNEL = dict(alpha_db_per_km=0.21, distance_km=50.0, eta_b=0.045, d_b=1.7e-6, e_d=0.033,
               e_0=0.5)

# each class with valid arguments and one field moved to another valid value
VALID = [(ObservedStatistics, OBS, ("y0", 2e-6)), (SecurityBounds, BOUNDS, ("y1_lower", 0.04)),
         (KeyRatePoint, POINT, ("distance_km", 60.0)),
         (ChannelParams, CHANNEL, ("alpha_db_per_km", 0.25))]
CLASS_IDS = [cls.__name__ for cls, _, _ in VALID]

BELOW_ZERO = math.nextafter(0.0, -math.inf)
NON_FINITE = (math.nan, math.inf, -math.inf)


def _interval(name, hi, label, open_hi=False, finite_first=False):
    """(field, value, message) at and just past [0, hi] or [0, hi); message None means accepted.

    finite_first: NaN and inf fail an earlier finiteness check with its own message.
    """
    accepted = [0.0, -0.0, math.nextafter(hi, 0.0)] + ([] if open_hi else [hi])
    past_hi = hi if open_hi else math.nextafter(hi, math.inf)
    in_range = [(name, v, f"{name} must be in {label}, got {v}") for v in (BELOW_ZERO, past_hi)]
    problem = "must be finite" if finite_first else f"must be in {label}"
    return ([(name, v, None) for v in accepted] + in_range
            + [(name, v, f"{name} {problem}, got {v}") for v in NON_FINITE])


def _half_line(name):
    """The same for a finite value >= 0, which ChannelParams checks finite first."""
    return ([(name, v, None) for v in (0.0, -0.0, 1e300)]
            + [(name, BELOW_ZERO, f"{name} must be >= 0, got {BELOW_ZERO}")]
            + [(name, v, f"{name} must be finite, got {v}") for v in NON_FINITE])


_OVER_IDEAL = math.nextafter(2e-4 + 1e-12, math.inf)
RANGES = {
    ObservedStatistics: [
        case
        for name in ("y0", "y_mu", "y_mu_prime", "ty_mu", "ty_mu_prime", "e_mu", "e_mu_prime")
        for case in _interval(name, 1.0, "[0, 1]")
    ] + [("e_mu", None, None), ("e_mu_prime", None, None)],
    SecurityBounds: (_interval("y1_lower", 1.0, "[0, 1]") + _interval("delta1", 1.0, "[0, 1]")
                     + _interval("e1_upper", 0.5, "[0, 0.5]")),
    KeyRatePoint: [
        ("source_kind", "wcs", None),
        ("source_kind", "laser", "source_kind must be 'hsps' or 'wcs', got 'laser'"),
        ("key_rate", 0.0, None),
        ("key_rate", -0.0, None),
        ("key_rate", 2e-4 + 1e-12, None),
        ("key_rate", BELOW_ZERO, f"key_rate must be >= 0, got {BELOW_ZERO}"),
        ("key_rate", -math.inf, "key_rate must be >= 0, got -inf"),
        ("key_rate", _OVER_IDEAL, f"key_rate {_OVER_IDEAL} exceeds ideal benchmark 0.0002"),
        ("key_rate", math.inf, "key_rate inf exceeds ideal benchmark 0.0002"),
        ("key_rate", math.nan, "key_rate must be >= 0, got nan"),
        # no benchmark (NaN) or an infinite one bounds nothing
        ("ideal_rate", math.nan, None),
        ("ideal_rate", math.inf, None),
        ("ideal_rate", 0.0, "key_rate 0.0001 exceeds ideal benchmark 0.0"),
        ("ideal_rate", -math.inf, "key_rate 0.0001 exceeds ideal benchmark -inf"),
    ],
    ChannelParams: (_half_line("alpha_db_per_km") + _half_line("distance_km")
                    + _interval("eta_b", 1.0, "[0, 1]", finite_first=True)
                    + _interval("d_b", 1.0, "[0, 1)", open_hi=True, finite_first=True)
                    + _interval("e_d", 0.5, "[0, 0.5]", finite_first=True)
                    + _interval("e_0", 1.0, "[0, 1]", finite_first=True)),
}
RANGE_CASES = [(cls, *case) for cls, cases in RANGES.items() for case in cases]


@pytest.mark.parametrize("cls, valid, moved", VALID, ids=CLASS_IDS)
class TestDataclassContract:
    def test_signature_matches_fields(self, cls, valid, moved):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == [f.name for f in fields(cls)]
        for p, f in zip(params, fields(cls)):
            assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            assert p.default == (inspect.Parameter.empty if f.default is MISSING else f.default)

    def test_positional_equals_keyword_and_stores_every_field(self, cls, valid, moved):
        obj = cls(**valid)
        assert cls(*valid.values()) == obj
        assert vars(obj) == valid and list(vars(obj)) == [f.name for f in fields(cls)]

    def test_frozen(self, cls, valid, moved):
        obj = cls(**valid)
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(obj, f.name)
        assert vars(obj) == valid

    def test_replace_round_trips(self, cls, valid, moved):
        obj = cls(**valid)
        assert replace(obj) == obj and replace(obj) is not obj
        name, value = moved
        assert vars(replace(obj, **{name: value})) == {**valid, name: value}
        assert replace(replace(obj, **{name: value}), **{name: valid[name]}) == obj

    def test_eq_hash_repr(self, cls, valid, moved):
        a, b = cls(**valid), cls(**valid)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(valid.values()))
        assert a != replace(a, **dict([moved]))
        assert a != tuple(valid.values())
        body = ", ".join(f"{name}={value!r}" for name, value in valid.items())
        assert repr(a) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize(
    "cls, name, value, message", RANGE_CASES,
    ids=[f"{c.__name__}.{n}={v!r}" for c, n, v, _ in RANGE_CASES])
def test_range_checks_keep_their_messages(cls, name, value, message):
    valid = next(v for c, v, _ in VALID if c is cls)
    kwargs = dict(valid, **{name: value})
    if message is None:
        obj = cls(**kwargs)
        assert getattr(obj, name) is value
    else:
        with pytest.raises(ValueError) as exc:
            cls(**kwargs)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            replace(cls(**valid), **{name: value})
        assert str(exc.value) == message


def test_first_failing_field_is_reported():
    # the per-field checks run in field order, as before
    with pytest.raises(ValueError, match=r"^y_mu must be"):
        ObservedStatistics(**dict(OBS, y_mu=2.0, ty_mu_prime=math.nan, e_mu=None))
    with pytest.raises(ValueError, match=r"^delta1 must be"):
        SecurityBounds(0.5, -1.0, 0.9, False)
    with pytest.raises(ValueError, match=r"^d_b must be finite"):
        ChannelParams(-1.0, 0.0, 2.0, math.inf)
    with pytest.raises(ValueError, match=r"^source_kind must be"):
        KeyRatePoint(**dict(POINT, source_kind="x", key_rate=-1.0))
