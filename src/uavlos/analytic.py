"""Static line-of-sight probability for one ground-to-air link.

The link from a user at ``g`` to a platform at ``u`` is clear when the first
building across the user's street stays below the link at the contact point
and no later block along either axis reaches up to it.  Writing ``s`` for the
contact's fractional position along the projected link, the probability
factors into

    P = F(h_u * s) * exp(rate_x * |x_u - x0| + rate_y * |y_u - y0|)

where ``F`` is the building height CDF and each rate is the (nonpositive)
density-weighted void integral of ``1 - F`` along that axis.  For Rayleigh
heights both rates collapse to a difference of error functions and the whole
expression is closed form; any other height law takes the quadrature path
(absolute tolerance 1e-10, delegated to an adaptive routine run well below
that).

The per-instant pieces (height CDF, void rate, ``erf_diff`` and
``p_los_contact``) take floats or NumPy arrays, so an epoch evaluator can
price every contact of every segment in one call.  The error function is
``scipy.special.erf``, within 2 ulp of the correctly rounded value over the
real line; the test suite pins it against high precision reference values.
The difference of two nearly equal erf values is the one cancellation-prone
spot, so ``erf_diff`` switches to a midpoint series there.  A ``CdfHeights``
law has no array form: it is evaluated one element at a time, and its void
rate integrated once per distinct (contact fraction, platform height) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf

from .env import Uav

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass
class RayleighHeights:
    """Rayleigh building height law with scale ``sigma`` (mode, not mean)."""

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cdf(self, h):
        """CDF at a height or an array of heights (0 at and below the ground)."""
        h = np.asarray(h, dtype=float)
        f = -np.expm1(-(h * h) / (2.0 * self.sigma * self.sigma))
        return np.where(h > 0, f, 0.0)[()]

    @property
    def mean(self) -> float:
        return self.sigma * math.sqrt(math.pi / 2.0)


@dataclass
class CdfHeights:
    """Arbitrary building height law given by its CDF."""

    cdf_fn: Callable[[float], float]

    def cdf(self, h: float) -> float:
        if math.isinf(h):
            return 1.0
        return min(max(float(self.cdf_fn(h)), 0.0), 1.0)


HeightModel = RayleighHeights | CdfHeights


def _cdf(model: HeightModel, h):
    """Height CDF at a float or elementwise over an array."""
    if isinstance(model, RayleighHeights):
        return model.cdf(h)
    if np.ndim(h) == 0:
        return model.cdf(float(h))
    return np.array([model.cdf(float(x)) for x in h])


def erf_diff(a, b):
    """erf(a) - erf(b), elementwise, safe against cancellation when a is close to b.

    For |a - b| below 1e-5 the direct difference loses relative accuracy, so
    the integral of exp(-t^2) over [b, a] is expanded around the midpoint;
    the kept terms leave a relative error below 1e-12 there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = a - b
    out = erf(a) - erf(b)
    near = np.abs(h) < 1e-5
    if near.any():  # the series only where it is needed
        out = np.asarray(out)
        a, b, h = np.broadcast_to(a, h.shape)[near], np.broadcast_to(b, h.shape)[near], h[near]
        m = 0.5 * (a + b)
        c2 = 2.0 * m * m - 1.0
        out[near] = _TWO_OVER_SQRT_PI * np.exp(-m * m) * h * (1.0 + c2 * h * h / 12.0)
    return out[()] if isinstance(out, np.ndarray) else out


def _rayleigh_rate(s, lam: float, sigma: float, height: float):
    """Closed-form void rate: -lam * sqrt(pi/2) * (sigma/h) * [erf(c) - erf(c*s)]."""
    c = height / (_SQRT2 * sigma)
    return -lam * math.sqrt(math.pi / 2.0) * (sigma / height) * erf_diff(c, c * s)


def _generic_rate(s: float, lam: float, model: HeightModel, height: float) -> float:
    """Void rate for an arbitrary height CDF, by adaptive quadrature.

    Integrates 1 - F(height * q) for q in [s, 1]; tolerance comfortably under
    the documented 1e-10 absolute.
    """
    from scipy.integrate import quad  # imported here: it is most of ``import uavlos``
    val, _ = quad(
        lambda q: 1.0 - model.cdf(height * q), s, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return -lam * val


def void_rate(s, lam: float, model: HeightModel, height):
    """Nonpositive decay rate of the void probabilities past the contact at s.

    ``s`` and ``height`` may be arrays; the generic law then runs one
    quadrature per distinct (s, height) pair.
    """
    if isinstance(model, RayleighHeights):
        return _rayleigh_rate(s, lam, model.sigma, height)
    if np.ndim(s) == 0 and np.ndim(height) == 0:
        return _generic_rate(float(s), lam, model, float(height))
    s, height = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(height, dtype=float))
    pairs, at = np.unique(np.stack([s.ravel(), height.ravel()]), axis=1, return_inverse=True)
    rates = np.array([_generic_rate(q, lam, model, h) for q, h in pairs.T.tolist()])
    return rates[at.ravel()].reshape(s.shape)


def p_los_contact(s, span, lam: float, model: HeightModel, height):
    """Clear probability for a contact at fraction s of a link with horizontal span.

    ``F(height * s) * exp(rate(s) * span)``, elementwise over arrays; span is
    the sum of the link's |dx| and |dy|.
    """
    return _cdf(model, height * s) * np.exp(void_rate(s, lam, model, height) * span)


def p_los_static(
    g: tuple[float, float], u: Uav, street_width: float, lam: float, model: HeightModel
) -> float:
    """Probability that the link from g to u is unobstructed, right now.

    The user stands on the low edge of a street of the given width, so the
    link meets the building front line across the street at fraction
    ``street_width / dy``.  A platform over the user's own street
    (dy <= street_width) leaves no contact at all: probability 1.
    Raises ValueError unless street_width > 0.
    """
    if not street_width > 0:
        raise ValueError("street width must be positive")
    dy = u.y - g[1]
    if dy <= street_width:
        return 1.0
    return p_los_contact(street_width / dy, abs(u.x - g[0]) + abs(dy), lam, model, u.height)
