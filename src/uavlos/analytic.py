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
expression is closed form.  Any other height law is integrated numerically:
for each distinct platform height, [0, 1] is cut into Chebyshev panels that
every contact fraction of the call shares (absolute error within 1e-12 on a
law that is smooth between a few kinks or jumps; 1e-10 is the promise).

The per-instant pieces (height CDF, void rate, ``erf_diff`` and
``p_los_contact``) take floats or NumPy arrays, so an epoch evaluator can
price every contact of every segment in one call.  The error function is
``scipy.special.erf``, within 2 ulp of the correctly rounded value over the
real line; the test suite pins it against high precision reference values.
The difference of two nearly equal erf values is the one cancellation-prone
spot, so ``erf_diff`` switches to a midpoint series there.  A ``CdfHeights``
law calls its Python CDF once per height, on arrays too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev
from scipy.special import erf

from .env import Uav, _check_finite

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
    """Arbitrary building height law given by its CDF on one height at a time."""

    cdf_fn: Callable[[float], float]

    def cdf(self, h):
        """CDF at a height or an array of heights, one ``cdf_fn`` call per
        finite height, clamped to [0, 1]; 1 at +inf and 0 at -inf or nan.

        Raises ValueError at the first height where ``cdf_fn`` is not finite.
        """
        h = np.asarray(h, dtype=float)
        f = np.array([self.cdf_fn(x) if math.isfinite(x) else float(x > 0.0)
                      for x in h.ravel().tolist()], dtype=float).reshape(h.shape)
        bad = ~np.isfinite(f)
        if bad.any():
            raise ValueError(f"height CDF is {f[bad][0]} at height {h[bad][0]} m")
        return np.clip(f, 0.0, 1.0)[()]


HeightModel = RayleighHeights | CdfHeights


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


# Each panel of [0, 1] is fitted at 17 Chebyshev points (ascending on [-1, 1]).
_X = -np.cos(np.pi * np.arange(17) / 16)
_TOL = 1e-14  # bound on a kept panel's last three Chebyshev coefficients
_FLOOR = 2.0 ** -44  # panels this narrow are kept whatever their fit
_MAX_PENDING = 4096  # more failing panels than this at once: the law is too rough


def _panel_matrix() -> np.ndarray:
    """Constant map from a panel's node values to, row by row: the Chebyshev
    coefficients of the integral from x to the panel's right edge (on [-1, 1]),
    and the panel's own last three Chebyshev coefficients."""
    n = _X.size - 1
    k = np.arange(n + 1)
    ends = np.where((k == 0) | (k == n), 0.5, 1.0)
    # node values to coefficients is a discrete cosine transform at these
    # points, written out so that the import makes no LAPACK call
    to_coef = (2.0 / n) * np.outer(ends, ends) * np.cos(np.pi * np.outer(k, n - k) / n)
    anti = chebyshev.chebint(np.eye(n + 1), lbnd=-1.0)  # each column vanishes at -1
    tail = -anti
    tail[0] += chebyshev.chebval(1.0, anti)
    return np.vstack([np.einsum("ij,jk->ik", tail, to_coef), to_coef[-3:]])


_PANEL = _panel_matrix()


def _tail_integral(model: CdfHeights, height: float, s: np.ndarray) -> np.ndarray:
    """Integral of 1 - F(height * q) over q in [s, 1], elementwise over s in [0, 1].

    The eighths of [0, 1] are bisected until each panel's last three
    Chebyshev coefficients are within ``_TOL`` (error about 1e-14 times its
    width) or the panel is ``_FLOOR`` wide (a jump there costs about its
    width).  A fraction's integral is its panel's polynomial plus the panel
    integrals to its right, summed from 1 down.  The panels depend on the
    height alone, so a fraction gets the same value whichever others share
    the call.
    """
    left, width, done = np.arange(8) / 8.0, np.full(8, 0.125), []
    while left.size:
        if left.size > _MAX_PENDING:
            raise ValueError(f"height CDF too rough to integrate at platform height {height} m")
        q = height * (left[:, None] + width[:, None] * (_X + 1.0) / 2.0)
        g = 1.0 - model.cdf(q)
        coef = np.einsum("pk,jk->pj", g, _PANEL)  # numpy's loop: no BLAS kernel choices
        ok = (np.abs(coef[:, -3:]).max(axis=1) <= _TOL) | (width <= _FLOOR)
        done.append((left[ok], width[ok], coef[ok, :-3]))
        width = np.repeat(width[~ok] / 2.0, 2)
        left = np.stack([left[~ok], left[~ok] + width[::2]], axis=1).ravel()
    left, width, coef = (np.concatenate(x) for x in zip(*done))
    order = np.argsort(left)
    left, half, coef = left[order], width[order] / 2.0, coef[order].T
    whole = half * (coef[::2].sum(axis=0) - coef[1::2].sum(axis=0))  # each tail at x = -1
    after = np.append(np.cumsum(whole[::-1])[::-1][1:], 0.0)  # from each right edge to 1
    at = np.searchsorted(left, s, side="right") - 1
    x = (s - left[at]) / half[at] - 1.0
    part = half[at] * chebyshev.chebval(x, coef[:, at], tensor=False)
    return np.maximum(part + after[at], 0.0)


def void_rate(s, lam: float, model: HeightModel, height):
    """Nonpositive decay rate of the void probabilities past the contact at s.

    ``s`` and ``height`` may be arrays.  A generic law is integrated once per
    distinct height, on one set of panels that all of that height's
    fractions share (see ``_tail_integral``); its ``s`` must lie in [0, 1].
    The panels are built per call and kept by nothing, so a caller prices
    all of its fractions in one call to build each height's panels once, as
    ``mobility`` does with a table's face and wall contacts.  Each rate
    depends on its own (s, height) alone, whatever else shares the call.
    Raises ValueError where the law's CDF is not finite or too rough to
    integrate.
    """
    if isinstance(model, RayleighHeights):
        return _rayleigh_rate(s, lam, model.sigma, height)
    s, height = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(height, dtype=float))
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("contact fractions must lie in [0, 1]")
    heights, which = np.unique(height, return_inverse=True)
    which = which.reshape(s.shape)
    out = np.empty(s.shape)
    for i, h in enumerate(heights.tolist()):
        at = which == i
        out[at] = -lam * _tail_integral(model, h, s[at])
    return out[()]


def p_los_contact(s, span, lam: float, model: HeightModel, height):
    """Clear probability for a contact at fraction s of a link with horizontal span.

    ``F(height * s) * exp(rate(s) * span)``, elementwise over arrays; span is
    the sum of the link's |dx| and |dy|.
    """
    return model.cdf(height * s) * np.exp(void_rate(s, lam, model, height) * span)


def p_los_static(
    g: tuple[float, float], u: Uav, street_width: float, lam: float, model: HeightModel
) -> float:
    """Probability that the link from g to u is unobstructed, right now.

    The user stands on the low edge of a street of the given width, so the
    link meets the building front line across the street at fraction
    ``street_width / dy``.  A platform over the user's own street
    (dy <= street_width) leaves no contact at all: probability 1.
    Raises ValueError unless g is finite and street_width > 0.
    """
    _check_finite(*g)
    if not street_width > 0:
        raise ValueError("street width must be positive")
    dy = u.y - g[1]
    if dy <= street_width:
        return 1.0
    return p_los_contact(street_width / dy, abs(u.x - g[0]) + abs(dy), lam, model, u.height)
