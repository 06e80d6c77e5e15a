"""Proper-time bookkeeping and the path-matching solver.

The protocol splits one agent over two worldlines near a spherical mass:
an "early" path that climbs to radius R+h right away and a "late" path
that waits at the surface before climbing.  A target crossing the early
path at coordinate time t3 and the late path at t4 = t3 + dt_c sees both
branches at the same elapsed proper time tau_star only when

    (s_hi - s_lo) * dt_r = s_hi * dt_c,      s(r) = sqrt(1 - R_S/r),

with dt_r the head start of the early path.  Solving this fixes the
duration of the whole experiment; everything else here is supporting
machinery (the closed-form ascent proper time, feasibility margins).

Every input may be a number or a numpy column (one entry per sweep
point, with a body whose mass and radius may be columns too): a single
run is a batch of one through the same expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spacetime import CentralBody, check_domain, dilation_difference, dilation_factor, libm, sqrt

#: Taylor coefficients of (z - asinh z)/z in z^2, highest order first; 15
#: terms reach double precision for z < _GAP_SERIES_LIMIT.
_GAP_SERIES = tuple(
    (-1) ** (k + 1) * math.comb(2 * k, k) / (4**k * (2 * k + 1)) for k in range(15, 0, -1)
)
_GAP_SERIES_LIMIT = 0.3


def _ascent_proper_time(radius, r_s, h, dt_v):
    """Proper time of a climb from radius to radius+h at constant dr/dt over dt_v.

    With r = R_S cosh^2(theta) the integral of sqrt(1 - R_S/r) dr is
    R_S (sinh(theta) cosh(theta) - theta).  Writing a = sinh(theta_1),
    b = sinh(theta_0), w = 1 / (a cosh(theta_0) + b cosh(theta_1)) and
    z = sinh(theta_1 - theta_0) = w h / R_S,

        dtau_v = dt_v w [cosh(theta_1 + theta_0) - 1 + (z - asinh z)/z].

    Every factor is a sum of positive terms: z and cosh(theta_1 + theta_0) - 1
    come from conjugate forms, and (z - asinh z)/z from its Taylor series
    when z is small, so nothing cancels anywhere from the horizon outwards
    (within about 2e-15 of the exact integral).  h = 0 gives the hold
    rate sqrt(1 - R_S/R) dt_v.
    """
    u0 = radius - r_s
    with np.errstate(over="ignore"):  # each rejected at its point below
        top = (u0 + h) / r_s
        a = sqrt(top)
        b = sqrt(u0 / r_s)
        square = (a + b) * (a + b)
    # h >= 0, so the first also bounds u0/R_S
    check_domain(
        (np.logical_not(top < np.inf),
         "(R - R_S + h)/R_S overflows at R={:g} m, R_S={:g} m, h={:g} m", radius, r_s, h),
        (np.logical_not(square < np.inf),
         "(sqrt((R - R_S + h)/R_S) + sqrt((R - R_S)/R_S))^2 overflows at R={:g} m, "
         "R_S={:g} m, h={:g} m", radius, r_s, h),
    )
    cosh_a = sqrt(1.0 + a * a)
    cosh_b = sqrt(1.0 + b * b)
    w = 1.0 / (a * cosh_b + b * cosh_a)
    cosh_sum_m1 = square / (1.0 + (1.0 + a * a + b * b) / (cosh_a * cosh_b + a * b))
    z = np.asarray(w * h / r_s)
    near = np.minimum(z, _GAP_SERIES_LIMIT)  # far entries are replaced below
    z2 = near * near
    series = 0.0
    for coefficient in _GAP_SERIES:
        series = series * z2 + coefficient
    gap = np.array(series * z2)
    far = z >= _GAP_SERIES_LIMIT
    if far.any():
        z_far = z[far]
        gap[far] = (z_far - libm(math.asinh, z_far)) / z_far
    return dt_v * w * (cosh_sum_m1 + gap[()])


@dataclass(frozen=True)
class ProtocolSchedule:
    """Geometric and timing parameters of one protocol run.

    dt_v is the coordinate duration of the vertical ascent, dt_s the extra
    surface wait of the late path and dt_c the target's crossing time
    between the two branch positions.  h = 0 and dt_v = 0 are allowed as
    degenerate (continuous-limit) inputs; solvers require h > 0.
    """

    body: CentralBody
    h: float
    d: float
    dt_v: float
    dt_s: float
    dt_c: float

    def __post_init__(self):
        h, d, dt_v, dt_s, dt_c = values = (self.h, self.d, self.dt_v, self.dt_s, self.dt_c)
        with np.errstate(over="ignore", invalid="ignore"):  # each rejected at its point below
            t4 = self.t4
        check_domain(
            (~(np.isfinite(h) & np.isfinite(d) & np.isfinite(dt_v) & np.isfinite(dt_s)
               & np.isfinite(dt_c)),
             "require finite h, d, dt_v, dt_s, dt_c, got ({}, {}, {}, {}, {})", *values),
            ((h < 0) | (d <= 0), "require h >= 0 and d > 0, got h={}, d={}", h, d),
            ((dt_v < 0) | (dt_s < 0) | (dt_c <= 0),
             "require dt_v >= 0, dt_s >= 0, dt_c > 0, got dt_v={}, dt_s={}, dt_c={}",
             dt_v, dt_s, dt_c),
            (np.logical_not(t4 < np.inf),
             "t4 = 2 dt_v + dt_s + dt_c overflows at dt_v={:g} s, dt_s={:g} s, dt_c={:g} s",
             dt_v, dt_s, dt_c),
        )

    @property
    def dt_r(self):
        """Head start of the early path: dt_v + dt_s (s)."""
        return self.dt_v + self.dt_s

    @property
    def r_top(self):
        return self.body.radius + self.h

    # event times, from the start of the experiment at 0
    @property
    def t3(self):
        """Target crosses the early path."""
        return self.dt_v + self.dt_r

    @property
    def t4(self):
        """Target crosses the late path; the total coordinate duration dt_exp."""
        return self.t3 + self.dt_c

    @cached_property
    def dtau_v(self):
        """Proper time accumulated during one ascent (identical for both paths)."""
        body = self.body
        return _ascent_proper_time(body.radius, body.schwarzschild_radius, self.h, self.dt_v)

    @property
    def dtau_c(self):
        """Proper time at R+h while the target crosses between the branches."""
        return dilation_factor(self.r_top, self.body) * self.dt_c

    @property
    def tau_star(self):
        """Proper time along the early path from the start to the target crossing.

        Equals the trigger time of both branches when the schedule solves
        the matching condition.
        """
        return self.dtau_v + dilation_factor(self.r_top, self.body) * self.dt_r

    def matching_residual(self):
        """tau(early, to t3) - tau(late, to t4); zero for a solved schedule.

        The shared ascent cancels identically, leaving the cancellation-safe
        combination dilation_difference * dt_r - dtau_c.
        """
        diff = dilation_difference(self.r_top, self.body.radius, self.body)
        return diff * self.dt_r - self.dtau_c


@dataclass(frozen=True)
class MatchingSolution:
    """Solved timing ratio dt_r/dt_c in exact and weak-field forms."""

    body: CentralBody
    h: float
    d: float
    dt_c: float
    ratio_exact: float
    ratio_weak_field: float
    ratio_curvature_form: float
    regime: str

    @property
    def dt_r(self):
        with np.errstate(over="ignore"):  # rejected at its point below
            dt_r = self.ratio_exact * self.dt_c
        check_domain((np.logical_not(dt_r < np.inf),
                      "solved dt_r = (dt_r/dt_c) dt_c overflows at dt_r/dt_c={:g}, dt_c={:g} s",
                      self.ratio_exact, self.dt_c))
        return dt_r

    def schedule(self, dt_v=0.0):
        """The solved schedule whose head start dt_r splits as dt_v + dt_s."""
        dt_r = self.dt_r
        check_domain((np.logical_not((dt_v >= 0) & (dt_v <= dt_r)),
                      "dt_v must lie in [0, dt_r={:g}], got {}", dt_r, dt_v))
        return ProtocolSchedule(
            body=self.body, h=self.h, d=self.d, dt_v=dt_v, dt_s=dt_r - dt_v, dt_c=self.dt_c
        )


def _regime_tag(h, radius):
    return np.where(
        h <= 0.1 * radius, "near-surface", np.where(h >= 10.0 * radius, "small-mass", "general")
    )[()]


def solve_matching(body, h, d, dt_c=None):
    """Solve the proper-time matching condition for height h and separation d.

    dt_c defaults to the photon crossing time d/c.  The exact ratio is the
    rearranged form

        dt_r/dt_c = s_hi * (s_hi + s_lo) * R*(R+h) / (R_S * h),

    which stays fully accurate even when s_hi and s_lo are identical in
    double precision.  Two algebraically identical weak-field forms are
    reported alongside: (R/R_S)(2R/h + 2) and the surface-gravity/curvature
    split c^2/(g h) - (c^2/2) R_0101/g^2.
    """
    check_domain((np.logical_not((0 < h) & (h < np.inf) & (0 < d) & (d < np.inf)),
                  "require h > 0 and d > 0, got h={}, d={}", h, d))
    if dt_c is None:
        dt_c = d / body.constants.c
    else:
        check_domain((~(np.isfinite(dt_c) & (dt_c > 0)), "require dt_c > 0, got {}", dt_c))

    radius, r_s, c = body.radius, body.schwarzschild_radius, body.constants.c
    with np.errstate(over="ignore"):  # each overflow is rejected at its point below
        g = body.surface_gravity
        # the ratios divide by R_S h, g h and g^2 and cube R (where ** raises on overflow)
        check_domain(
            (np.logical_not(r_s * h > 0), "R_S h underflows to 0 at h={:g} m", h),
            (np.logical_not((g * h > 0) & (g * g > 0)),
             "g h or g^2 underflows to 0 at surface gravity g={:g} m/s^2, h={:g} m", g, h),
            (np.logical_not(radius * radius * radius < np.inf), "R^3 overflows at R={:g} m",
             radius),
        )
        # the R^3 that curvature_r0101 divides by
        cube = libm(lambda r: r**3, radius)
        check_domain((np.logical_not(cube > 0), "R^3 underflows to 0 at R={:g} m", radius))
        r_top = radius + h
        s_hi = dilation_factor(r_top, body)
        s_lo = dilation_factor(radius, body)
        ratio_exact = s_hi * (s_hi + s_lo) * radius * r_top / (r_s * h)
        ratio_weak = (radius / r_s) * (2.0 * radius / h + 2.0)
        ratio_curv = c * c / (g * h) - 0.5 * c * c * body.curvature_r0101 / (g * g)
    check_domain((np.logical_not(np.isfinite(ratio_exact) & np.isfinite(ratio_weak)
                                 & np.isfinite(ratio_curv)),
                  "dt_r/dt_c overflows at h={:g} m: exact {}, weak field {}, curvature form {}",
                  h, ratio_exact, ratio_weak, ratio_curv))
    return MatchingSolution(
        body=body,
        h=h,
        d=d,
        dt_c=dt_c,
        ratio_exact=ratio_exact,
        ratio_weak_field=ratio_weak,
        ratio_curvature_form=ratio_curv,
        regime=_regime_tag(h, radius),
    )


def solved_schedule(body, h, d, dt_c=None, dt_v=0.0):
    """Build a ProtocolSchedule satisfying the matching condition.

    The solved head start dt_r is split as dt_v + dt_s for the requested
    ascent duration (dt_v must not exceed dt_r).
    """
    return solve_matching(body, h, d, dt_c).schedule(dt_v)


def small_mass_duration(body, d):
    """Limit h >> R of the solved head start: dt_r = c R d / (G M)."""
    check_domain((np.logical_not(d > 0), "require d > 0, got {}", d))
    k = body.constants
    with np.errstate(over="ignore"):  # rejected at its point below
        duration = k.c * body.radius * d / (k.G * body.mass)
    check_domain((np.logical_not(duration < np.inf),
                  "small-mass dt_r = c R d/(G M) overflows at d={:g} m", d))
    return duration


def static_agent_tau(r_b, body):
    """Minimum proper time 2 r_b^2 c / (G M) for the static-agent protocol.

    Baseline for comparison: agents held at fixed radius r_b instead of
    following the moving-path schedule.
    """
    r_s = body.schwarzschild_radius
    check_domain((np.logical_not(r_b > r_s), "r_b={:g} m is not outside R_S={:g} m", r_b, r_s))
    k = body.constants
    return 2.0 * r_b * r_b * k.c / (k.G * body.mass)


#: smallest margin that counts as "much less" in validate_windows
WINDOW_THRESHOLD = 10.0


@dataclass(frozen=True)
class WindowReport:
    """Feasibility margins for the interaction time windows.

    margin_flight   : (d/c) / dtau_1   -- decay window resolves the photon flight
    margin_decay    : dtau_1 / eps     -- trigger sharpness within the decay window
    margin_crossing : t3 / dt_c        -- crossing time negligible in dt_exp
    """

    margin_flight: float
    margin_decay: float
    margin_crossing: float
    passed_flight: bool = field(init=False)
    passed_decay: bool = field(init=False)
    passed_crossing: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed_flight", self.margin_flight >= WINDOW_THRESHOLD)
        object.__setattr__(self, "passed_decay", self.margin_decay >= WINDOW_THRESHOLD)
        object.__setattr__(self, "passed_crossing", self.margin_crossing >= WINDOW_THRESHOLD)

    @property
    def all_passed(self):
        return self.passed_flight & self.passed_decay & self.passed_crossing


def validate_windows(schedule, dtau_1, eps):
    """Check the hierarchy eps << dtau_1 << d/c (and dt_c << t3).

    "Much less" means a margin of at least WINDOW_THRESHOLD.  Failures are
    reported, never raised.
    """
    check_domain((np.logical_not((0 < dtau_1) & (dtau_1 < np.inf) & (0 < eps) & (eps < np.inf)),
                  "require dtau_1 > 0 and eps > 0, got dtau_1={}, eps={}", dtau_1, eps))
    flight = schedule.d / schedule.body.constants.c
    with np.errstate(over="ignore"):  # rejected at its point below
        t3 = schedule.t3
        report = WindowReport(margin_flight=flight / dtau_1, margin_decay=dtau_1 / eps,
                              margin_crossing=t3 / schedule.dt_c)
    check_domain(
        (np.logical_not(report.margin_flight < np.inf),
         "margin (d/c)/dtau_1 overflows at d={:g} m, dtau_1={:g} s", schedule.d, dtau_1),
        (np.logical_not(report.margin_decay < np.inf),
         "margin dtau_1/eps overflows at dtau_1={:g} s, eps={:g} s", dtau_1, eps),
        (np.logical_not(report.margin_crossing < np.inf),
         "margin t3/dt_c overflows at t3={:g} s, dt_c={:g} s", t3, schedule.dt_c),
    )
    return report

