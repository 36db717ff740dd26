"""Photon-number statistics of the triggered heralded source and of the
Poissonian coherent source used for comparison.

A heralded single photon source (HSPS) emits photon pairs; detecting one
mode ("trigger") post-selects the other. Conditioned on a trigger, the
heralded mode follows a thermal photon-number distribution reshaped by the
trigger detector's efficiency and dark counts. All infinite sums over the
thermal weights are geometric, so every quantity here has a closed form;
truncated-series twins in tests/oracles.py check them.

The forecast, bounds and key rate are written once for both sources. The
sources differ only in their objects, TriggeredSource and CoherentSource:
each gives its signal terms at an intensity (signal) and states its
photon-number law, the weight P_n(x) of the n-photon yield in the
constraint sum_n P_n(x) Y_n = tY_x that its rescaled yield obeys, in the
factored form P_n(x) = g(x) * k_n * u(x)^n (weights gives g, 1/g, k0, k1
and u). The one decoy-state elimination in .bounds derives Y1, Delta1 and
e1 from these alone; the two-photon factor k2 cancels there, so no source
states it. Each term takes a numeric namespace xp (.numerics), so one
text serves Python floats and numpy arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HeraldedSourceParams:
    """Trigger-side parameters of a heralded single photon source.

    x: mean photon number of one mode before triggering.
    eta_a: trigger-detector efficiency, in [0, 1].
    d_a: trigger dark-count rate per pulse, in [0, 1).
    """

    x: float
    eta_a: float
    d_a: float

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"mean photon number x must be >= 0, got {self.x}")
        if not 0.0 <= self.eta_a <= 1.0:
            raise ValueError(f"eta_a must be in [0, 1], got {self.eta_a}")
        if not 0.0 <= self.d_a < 1.0:
            raise ValueError(f"d_a must be in [0, 1), got {self.d_a}")


def at_least_one_probability(p: float, n: int) -> float:
    """Probability 1 - (1-p)^n that at least one of n tries succeeds.

    Uses expm1/log1p so tiny p keeps full relative precision and p = 0
    gives exactly 0.
    """
    if n < 0:
        raise ValueError(f"count n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p must be in [0, 1], got {p}")
    if p == 1.0:
        return 1.0 if n > 0 else 0.0
    return -math.expm1(n * math.log1p(-p))


def post_selection_probability(src: HeraldedSourceParams) -> float:
    """Probability that the trigger detector fires for a pulse of intensity x."""
    x = src.x
    return src.d_a / (1.0 + x) + x * src.eta_a / (1.0 + x * src.eta_a)


def _coincidence_sum(x, eta_a: float, eta):
    """Closed form of sum_n a_n(x) [1-(1-eta_a)^n] [1-(1-eta)^n].

    Expanding the product gives four geometric sums over the thermal
    weights a_n(x); combining them over common denominators factors the
    overall transmittance out analytically, so the both-detectors-click
    mass stays fully accurate (and exactly zero) as eta -> 0.
    """
    p = 1.0 - eta_a
    x_eta = x * eta
    return x_eta * (
        1.0 / (1.0 + x_eta)
        - p / ((1.0 + x * eta_a) * (1.0 + x * (1.0 - p * (1.0 - eta))))
    )


@dataclass(frozen=True)
class TriggeredSource:
    """Heralded source: thermal pairs, the heralded mode post-selected by a trigger.

    eta_a: trigger-detector efficiency, in [ETA_A_MIN, 1].
    d_a: trigger dark-count rate per pulse, in [0, 1).
    """

    eta_a: float
    d_a: float

    # _coincidence_sum forms 1 - eta_a and the Y1 bound divides by k1 =
    # eta_a, so the rounding grows as eta_a shrinks. Against the series
    # oracle, over x in [0.01, 1] and the default 0-180 km channel, the
    # closed form drifts up to 3.5e-12 relative at 1e-4, 3.2e-10 at 1e-6 and
    # 3.5e-8 at 1e-8; at 1e-16 a default sweep's Y1 bound is up to 16x the
    # true Y1.
    ETA_A_MIN = 1e-4

    def __post_init__(self):
        if not self.ETA_A_MIN <= self.eta_a <= 1.0:
            raise ValueError(f"eta_a must be in [{self.ETA_A_MIN:g}, 1], got {self.eta_a}")
        if not 0.0 <= self.d_a < 1.0:
            raise ValueError(f"d_a must be in [0, 1), got {self.d_a}")

    def signal(self, xp, x, eta, ch):
        """P_post, rescaled yield and QBER of triggered pulses of intensity x.

        eta is the overall transmittance. The rescaled yield sums double-dark
        coincidences, dark counts on triggered photons and photon
        coincidences, capped at P_post (one click per triggered pulse); the
        QBER is the error mass e_0*d_b*P_post + e_d*coincidences over the
        uncapped yield, NaN when nothing can click, and capped at 1: the
        mass groups the dark terms apart from the yield's, so at e_0 = 1
        with no coincidences it can exceed the yield by an ulp.
        """
        eta_a, d_a = self.eta_a, self.d_a
        coincidences = _coincidence_sum(x, eta_a, eta)
        one_x = 1.0 + x
        x_a = x * eta_a
        one_xa = 1.0 + x_a
        ty = d_a * ch.d_b / one_x + ch.d_b * eta_a * x / one_xa + coincidences
        p_post = d_a / one_x + x_a / one_xa
        err = ch.e_0 * ch.d_b * p_post + ch.e_d * coincidences
        return p_post, xp.minimum(ty, p_post), xp.minimum(xp.ratio(err, ty), 1.0)

    def weights(self, xp, x):
        """(g, 1/g, k0, k1, u) of the thermal law P_n = k_n x^n / (1+x)^(n+1).

        A pulse of n >= 1 photons triggers with k_n = 1 - (1-eta_a)^n, so
        k1 = eta_a; a vacuum pulse only on a dark count, k0 = d_a.
        """
        one_x = 1.0 + x
        return 1.0 / one_x, one_x, self.d_a, self.eta_a, x / one_x


@functools.lru_cache(maxsize=32)
def triggered_source(eta_a: float, d_a: float) -> TriggeredSource:
    """The TriggeredSource of (eta_a, d_a), built once per pair, not per call."""
    return TriggeredSource(eta_a, d_a)


@dataclass(frozen=True)
class CoherentSource:
    """Weak coherent pulses: Poissonian statistics, every pulse sent (P_post = 1)."""

    def signal(self, xp, x, eta, ch):
        """P_post = 1, gain and QBER of coherent pulses of intensity x.

        The additive dark-count gain d_b + 1 - e^(-eta*x) is capped at 1; the
        QBER is the error share of the uncapped gain, NaN when nothing clicks.
        It needs no cap at 1: e_0 and e_d are at most 1, so the error mass is
        at most the gain, as e_0*d_b is d_b at e_0 = 1 and rounding is monotone.
        """
        lost = xp.expm1(-eta * x)
        q = ch.d_b - lost
        return 1.0, xp.minimum(q, 1.0), xp.ratio(ch.e_0 * ch.d_b - ch.e_d * lost, q)

    def weights(self, xp, x):
        """(g, 1/g, k0, k1, u) of the Poisson law P_n = e^(-x) x^n / n!."""
        return xp.exp(-x), xp.exp(x), 1.0, 1.0, x


COHERENT = CoherentSource()
