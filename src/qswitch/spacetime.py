"""Weak-field Schwarzschild kinematics around a spherical central mass.

Everything here is a pure function of immutable value types, in SI units.
The one numerically delicate operation is :func:`dilation_difference`: near
the surface of a planet the two dilation factors agree to ~10 decimal
digits, so the textbook two-square-root subtraction loses essentially all
significant bits.  The conjugate rearrangement used here is exact algebra
and keeps full double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def schwarzschild_radius(mass, constants=CODATA2018):
    """Schwarzschild radius 2GM/c^2 in meters."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
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
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be finite and positive, got {self.mass}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if self.schwarzschild_radius >= self.radius:
            raise ValueError(
                "body is not in the weak-field regime: "
                f"R_S={self.schwarzschild_radius:g} m >= R={self.radius:g} m"
            )

    @property
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
        return -c * c * self.schwarzschild_radius / self.radius**3


def dilation_factor(r, body):
    """Proper-time rate dtau/dt = sqrt(1 - R_S/r) for a static clock at radius r.

    Strictly increasing in r, approaching 1 from below as r -> infinity.
    Raises ValueError for r <= R_S (outside the protocol's exterior regime).
    """
    r_s = body.schwarzschild_radius
    if r <= r_s:
        raise ValueError(f"radius {r:g} m is not outside R_S={r_s:g} m")
    return math.sqrt(1.0 - r_s / r)


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
    if r_lo <= r_s:
        raise ValueError(f"lower radius {r_lo:g} m is not outside R_S={r_s:g} m")
    if r_hi < r_lo:
        raise ValueError(f"radius ordering violated: r_hi={r_hi:g} < r_lo={r_lo:g}")
    if r_hi == r_lo:
        return 0.0
    s_hi = math.sqrt(1.0 - r_s / r_hi)
    s_lo = math.sqrt(1.0 - r_s / r_lo)
    return r_s * (r_hi - r_lo) / (r_lo * r_hi) / (s_hi + s_lo)


def gravitational_potential(r, body):
    """Newtonian potential Phi = -GM/r (J/kg), valid for any r > 0."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return -body.constants.G * body.mass / r


def dilated_hamiltonian_factor(r, body):
    """First-order time-dilation factor 1 + Phi/c^2 for the internal Hamiltonian.

    Agrees with :func:`dilation_factor` to first order in R_S/r; the
    difference is O((R_S/r)^2) and documents that the internal-evolution
    Hamiltonian uses the linearized redshift.
    """
    r_s = body.schwarzschild_radius
    if r <= r_s:
        raise ValueError(f"radius {r:g} m is not outside R_S={r_s:g} m")
    c = body.constants.c
    return 1.0 + gravitational_potential(r, body) / (c * c)
