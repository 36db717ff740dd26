"""Photon-number statistics of the triggered heralded source and of the
Poissonian coherent source used for comparison.

A heralded single photon source (HSPS) emits photon pairs; detecting one
mode ("trigger") post-selects the other. Conditioned on a trigger, the
heralded mode follows a thermal photon-number distribution reshaped by the
trigger detector's efficiency and dark counts. All infinite sums over the
thermal weights are geometric, so every quantity here has a closed form;
truncated-series twins in tests/oracles.py check them.

The forecast, bounds and key rate are written once for both sources. The
sources differ only in the terms of their objects, TriggeredSource and
CoherentSource: the signal terms at an intensity, raw Y1 from the decoy
and signal constraints, the single-photon share of the clicks, and the e1
error mass with its normaliser. Each term takes a numeric namespace xp
(.numerics), so one text serves Python floats and numpy arrays.
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

    eta_a: trigger-detector efficiency, in (0, 1].
    d_a: trigger dark-count rate per pulse, in [0, 1).
    """

    eta_a: float
    d_a: float

    def __post_init__(self):
        if not 0.0 < self.eta_a <= 1.0:
            raise ValueError(f"eta_a must be in (0, 1], got {self.eta_a}")
        if not 0.0 <= self.d_a < 1.0:
            raise ValueError(f"d_a must be in [0, 1), got {self.d_a}")

    def signal(self, xp, x, eta, ch):
        """P_post, rescaled yield and QBER of triggered pulses of intensity x.

        eta is the overall transmittance. The rescaled yield sums double-dark
        coincidences, dark counts on triggered photons and photon
        coincidences, capped at P_post (one click per triggered pulse); the
        QBER is the error mass e_0*d_b*P_post + e_d*coincidences over the
        uncapped yield, NaN when nothing can click.
        """
        eta_a, d_a = self.eta_a, self.d_a
        coincidences = _coincidence_sum(x, eta_a, eta)
        one_x = 1.0 + x
        x_a = x * eta_a
        one_xa = 1.0 + x_a
        ty = d_a * ch.d_b / one_x + ch.d_b * eta_a * x / one_xa + coincidences
        p_post = d_a / one_x + x_a / one_xa
        err = ch.e_0 * ch.d_b * p_post + ch.e_d * coincidences
        return p_post, xp.minimum(ty, p_post), xp.ratio(err, ty)

    def y1_raw(self, xp, y0, ty_mu, ty_mu_prime, mu, mu_prime):
        """Unclamped Y1 bound from the rescaled-yield constraints (see bounds)."""
        up, down = mu_prime / mu, mu / mu_prime
        one_mu, one_mu_prime = 1.0 + mu, 1.0 + mu_prime
        lead = up * one_mu ** 3 * ty_mu - down * one_mu_prime ** 3 * ty_mu_prime
        vac = y0 * self.d_a * (up * one_mu ** 2 - down * one_mu_prime ** 2)
        return (lead - vac) / (self.eta_a * (mu_prime - mu))

    def single_photon(self, xp, y1, x, ty_x):
        """Share y1 * eta_a * x / (1+x)^2 of the rescaled yield ty_x, unclamped."""
        return y1 * self.eta_a * x / (ty_x * (1.0 + x) ** 2)

    def e1_mass(self, xp, x, e_x, ty_x, y0, e_0):
        """Error mass at intensity x less the dark-trigger vacuum's, over (1+x)^-2."""
        return (1.0 + x) ** 2 * e_x * ty_x - (1.0 + x) * y0 * self.d_a * e_0

    def e1_norm(self, y1, x):
        return y1 * self.eta_a * x


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
        """
        lost = xp.expm1(-eta * x)
        q = ch.d_b - lost
        return 1.0, xp.minimum(q, 1.0), xp.ratio(ch.e_0 * ch.d_b - ch.e_d * lost, q)

    def y1_raw(self, xp, y0, q_mu, q_mu_prime, mu, mu_prime):
        """Unclamped Y1 bound from the two Poissonian gain constraints."""
        num = (mu_prime**2 * (q_mu * xp.exp(mu)) - mu**2 * (q_mu_prime * xp.exp(mu_prime))
               - y0 * (mu_prime**2 - mu**2))
        return num / (mu * mu_prime * (mu_prime - mu))

    def single_photon(self, xp, y1, x, q_x):
        """Share y1 * x * e^(-x) of the gain q_x, unclamped."""
        return y1 * x * xp.exp(-x) / q_x

    def e1_mass(self, xp, x, e_x, q_x, y0, e_0):
        """Error mass at intensity x less the vacuum's, over e^(-x)."""
        return e_x * q_x * xp.exp(x) - e_0 * y0

    def e1_norm(self, y1, x):
        return y1 * x


COHERENT = CoherentSource()
