"""Weak-field Schwarzschild kinematics around a spherical central mass.

Everything here is a pure function of immutable value types, in SI units.
The one numerically delicate operation is :func:`dilation_difference`: near
the surface of a planet the two dilation factors agree to ~10 decimal
digits, so the textbook two-square-root subtraction loses essentially all
significant bits.  The conjugate rearrangement used here is exact algebra
and keeps full double precision.

Radii, masses and the body's fields may be numbers or equal-length numpy
columns (one entry per point of a sweep); a column gives the same bits at
each point as that point's number would.  Domain checks name the first bad
point through :class:`DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# CODATA 2018
C_LIGHT = 299792458.0        # speed of light (m/s, exact)
G_NEWTON = 6.67430e-11       # gravitational constant (m^3 kg^-1 s^-2)
HBAR = 1.054571817e-34       # reduced Planck constant (J s)


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants, overridable for pinned-constant tests."""

    c: float = C_LIGHT
    G: float = G_NEWTON
    hbar: float = HBAR

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.c, self.G, self.hbar)):
            raise ValueError("physical constants must be finite and strictly positive")


CODATA2018 = PhysicalConstants()


class DomainError(ValueError):
    """An input outside a formula's domain; `index` is its point in a column."""

    def __init__(self, message, index=0):
        super().__init__(message)
        self.index = index


def value_at(x, i):
    """Point i of a number or column, as a Python number."""
    x = np.asarray(x)
    return x.item(i if x.ndim else 0)


def point_message(check, i):
    """The message of a check (bad, template, *values) at point i."""
    _, template, *values = check
    return template.format(*(value_at(v, i) for v in values))


def check_domain(*checks):
    """Raise DomainError at the first point that fails any check.

    Each check is (bad, template, *values): `bad` a truth value or a column
    of them, the error the template filled with the point's values.  Checks
    are listed in the order one point meets them, so a point failing
    several gets the first message.
    """
    for bad, *_ in checks:
        if isinstance(bad, np.ndarray) and bad.ndim:
            break
    else:
        for check in checks:
            if check[0]:
                raise DomainError(point_message(check, 0))
        return
    for i, messages in point_failures(checks, len(bad)):
        raise DomainError(messages[0], i)


def broadcast_checks(checks, n):
    """Each check's `bad` as a row over n points, and the points failing any."""
    bads = np.empty((len(checks), n), dtype=bool)
    for k, check in enumerate(checks):
        bads[k] = check[0]
    return bads, np.logical_or.reduce(bads)


def point_failures(checks, n):
    """(point, the messages of the checks it fails, in check order) of each of
    n points that fails any, made as they are read; a scalar check covers all n."""
    bads, hit = broadcast_checks(checks, n)
    for i in np.flatnonzero(hit).tolist():
        yield i, [point_message(c, i) for bad, c in zip(bads, checks) if bad[i]]


def check_warnings(checks):
    """The messages of the scalar checks that fail, in check order: the
    warnings of one point, where check_domain raises the first error."""
    return [message for _, messages in point_failures(checks, 1) for message in messages]


def each_distinct(fn, column, dtype):
    """fn at each point of a 1-D column, as an array of dtype: fn is called
    once, on the column's distinct values as an array, and gives their
    results in that order.  Floats are distinct by bit pattern (so 0.0 and
    -0.0 apart), other dtypes by value; a stride-0 (broadcast) column has its
    one value, and gives a stride-0 result."""
    if column.strides == (0,):
        return np.broadcast_to(np.array(fn(column[:1]), dtype), column.shape)
    floats = column.dtype == float
    distinct, where = np.unique(column.view(np.int64) if floats else column, return_inverse=True)
    return np.array(fn(distinct.view(float) if floats else distinct), dtype)[where]


def libm(fn, x):
    """fn, a C library function of one double, once per distinct value of x,
    for what no single IEEE operation gives (squares are products x*x): asinh,
    whose numpy form would round some points unlike their single runs (1 in 5
    large arguments), and R^3, which pow rounds once and r*r*r twice."""
    if np.ndim(x) == 0:
        return fn(float(x))
    return each_distinct(lambda values: list(map(fn, values.tolist())), x, float)


def sqrt(x):
    """Square root of a number (math.sqrt, which keeps it a Python float) or
    of a column (np.sqrt); both are correctly rounded."""
    return math.sqrt(x) if isinstance(x, float) else np.sqrt(x)


def schwarzschild_radius(mass, constants=CODATA2018):
    """Schwarzschild radius 2GM/c^2 in meters."""
    check_domain((np.logical_not(mass > 0), "mass must be positive, got {}", mass))
    return 2.0 * constants.G * mass / (constants.c * constants.c)


@dataclass(frozen=True)
class CentralBody:
    """Spherical mass sourcing the exterior field.

    Construction enforces the weak-field regime R_S < R; the protocol never
    probes the interior or the strong-field exterior.

    Parameters
    ----------
    mass : float
        Mass M in kg.
    radius : float
        Surface radius R in m.
    constants : PhysicalConstants, optional
        Constants used for every derived quantity.
    """

    mass: float
    radius: float
    constants: PhysicalConstants = field(default=CODATA2018)

    def __post_init__(self):
        mass, radius = self.mass, self.radius
        check_domain(
            (~(np.isfinite(mass) & (mass > 0)), "mass must be finite and positive, got {}", mass),
            (~(np.isfinite(radius) & (radius > 0)),
             "radius must be finite and positive, got {}", radius),
        )
        r_s = self.schwarzschild_radius
        check_domain(
            (np.logical_not(r_s > 0), "R_S = 2GM/c^2 underflows to 0 at mass {:g} kg", mass),
            (r_s >= radius, "body is not in the weak-field regime: R_S={:g} m >= R={:g} m",
             r_s, radius),
        )

    @cached_property
    def schwarzschild_radius(self):
        """R_S = 2GM/c^2 (m)."""
        return schwarzschild_radius(self.mass, self.constants)

    @property
    def surface_gravity(self):
        """g = GM/R^2 (m/s^2)."""
        return self.constants.G * self.mass / (self.radius * self.radius)

    @property
    def curvature_r0101(self):
        """R_0101 = -c^2 R_S / R^3, the tidal curvature component (1/s^2)."""
        c = self.constants.c
        return -c * c * self.schwarzschild_radius / libm(lambda r: r**3, self.radius)


def dilation_factor(r, body):
    """Proper-time rate dtau/dt = sqrt(1 - R_S/r) for a static clock at radius r.

    Strictly increasing in r, approaching 1 from below as r -> infinity.
    Raises ValueError unless r > R_S (the protocol's exterior regime).
    """
    r_s = body.schwarzschild_radius
    check_domain((np.logical_not(r > r_s), "radius {:g} m is not outside R_S={:g} m", r, r_s))
    return sqrt(1.0 - r_s / r)


def dilation_difference(r_hi, r_lo, body):
    """sqrt(1 - R_S/r_hi) - sqrt(1 - R_S/r_lo), free of subtractive cancellation.

    Uses the conjugate identity

        s_hi - s_lo = (R_S/r_lo - R_S/r_hi) / (s_hi + s_lo)

    with the numerator formed as R_S*(r_hi - r_lo)/(r_lo*r_hi), so the only
    subtraction is between the exactly-representable radii.  For Earth
    parameters and meter-scale separations the direct subtraction is wrong
    by up to 100%; this path keeps ~15 significant digits.

    Requires R_S < r_lo <= r_hi.  The degenerate input r_hi == r_lo is
    allowed and returns 0.0 (continuous limit); the result is otherwise
    strictly positive.
    """
    r_s = body.schwarzschild_radius
    check_domain(
        (np.logical_not(r_lo > r_s), "lower radius {:g} m is not outside R_S={:g} m", r_lo, r_s),
        (np.logical_not(r_hi >= r_lo),
         "radius ordering violated: r_hi={:g} < r_lo={:g}", r_hi, r_lo),
    )
    s_hi = sqrt(1.0 - r_s / r_hi)
    s_lo = sqrt(1.0 - r_s / r_lo)
    return r_s * (r_hi - r_lo) / (r_lo * r_hi) / (s_hi + s_lo)
