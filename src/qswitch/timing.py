"""Proper-time bookkeeping and the path-matching solver.

The protocol splits one agent over two worldlines near a spherical mass:
an "early" path that climbs to radius R+h right away and a "late" path
that waits at the surface before climbing.  A target crossing the early
path at coordinate time t3 and the late path at t4 = t3 + dt_c sees both
branches at the same elapsed proper time tau_star only when

    (s_hi - s_lo) * dt_r = s_hi * dt_c,      s(r) = sqrt(1 - R_S/r),

with dt_r the head start of the early path.  Solving this fixes the
duration of the whole experiment; everything else here is supporting
machinery (piecewise path profiles, quadrature, feasibility margins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.integrate import quad

from .spacetime import CentralBody, dilation_difference, dilation_factor

#: Relative tolerance for proper-time quadrature over ascent segments.
QUADRATURE_RTOL = 1e-13


@dataclass(frozen=True)
class Hold:
    """Stay at fixed radius r (m) for coordinate duration dt (s)."""

    r: float
    dt: float


@dataclass(frozen=True)
class LinearAscent:
    """Move from r_start to r_end (m) at constant dr/dt over dt (s)."""

    r_start: float
    r_end: float
    dt: float


@dataclass(frozen=True)
class PathProfile:
    """Contiguous piecewise worldline at fixed angular position."""

    segments: tuple

    def __post_init__(self):
        for seg in self.segments:
            if seg.dt <= 0:
                raise ValueError(f"segment durations must be positive, got {seg.dt}")

    @property
    def total_duration(self):
        return math.fsum(seg.dt for seg in self.segments)

    def truncated(self, duration):
        """Clip the path to the first `duration` seconds of coordinate time."""
        if duration <= 0 or duration > self.total_duration * (1 + 1e-12):
            raise ValueError(
                f"truncation {duration:g} s outside path duration "
                f"{self.total_duration:g} s"
            )
        kept = []
        remaining = duration
        for seg in self.segments:
            if remaining <= 0:
                break
            if seg.dt <= remaining:
                kept.append(seg)
                remaining -= seg.dt
            else:
                if isinstance(seg, Hold):
                    kept.append(Hold(seg.r, remaining))
                else:
                    frac = remaining / seg.dt
                    r_mid = seg.r_start + (seg.r_end - seg.r_start) * frac
                    kept.append(LinearAscent(seg.r_start, r_mid, remaining))
                remaining = 0.0
        return PathProfile(tuple(kept))


def _validate_radii(path, body):
    r_s = body.schwarzschild_radius
    for seg in path.segments:
        radii = (seg.r,) if isinstance(seg, Hold) else (seg.r_start, seg.r_end)
        for r in radii:
            if r <= r_s:
                raise ValueError(f"path radius {r:g} m is not outside R_S={r_s:g} m")


def _segment_proper_time(seg, body):
    if isinstance(seg, Hold):
        return dilation_factor(seg.r, body) * seg.dt
    if seg.r_start == seg.r_end:
        return dilation_factor(seg.r_start, body) * seg.dt
    rate = (seg.r_end - seg.r_start) / seg.dt

    def integrand(t):
        return dilation_factor(seg.r_start + rate * t, body)

    value, _ = quad(integrand, 0.0, seg.dt, epsabs=0.0, epsrel=QUADRATURE_RTOL)
    return value


def proper_time(path, body):
    """Proper time integral sqrt(1 - R_S/r(t)) dt along the path (s).

    Hold segments use the closed form; ascents use adaptive quadrature at
    relative tolerance ``QUADRATURE_RTOL``.
    """
    _validate_radii(path, body)
    return math.fsum(_segment_proper_time(seg, body) for seg in path.segments)


def proper_time_difference(path_a, path_b, body):
    """tau(path_a) - tau(path_b) for paths of equal coordinate duration.

    Proper time is additive over segments, so the difference is assembled
    segment-wise rather than by naive subtraction of two nearly equal
    totals:

    1. segments identical in both paths (e.g. a shared ascent played at
       different coordinate times) cancel exactly and are dropped;
    2. the remaining holds of the two paths are paired chunk-by-chunk in
       coordinate duration, each chunk contributing a cancellation-safe
       ``dilation_difference(r_hi, r_lo) * dt`` with the appropriate sign;
    3. any leftover (unpaired ascents or duration mismatch inside holds)
       falls back on direct quadrature.

    Positive when path_a accumulates more proper time (is higher).
    """
    _validate_radii(path_a, body)
    _validate_radii(path_b, body)
    dur_a, dur_b = path_a.total_duration, path_b.total_duration
    if not math.isclose(dur_a, dur_b, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            f"paths must have equal coordinate durations, got {dur_a:g} and {dur_b:g}"
        )

    rem_a = list(path_a.segments)
    rem_b = list(path_b.segments)
    for seg in list(rem_a):
        if seg in rem_b:
            rem_a.remove(seg)
            rem_b.remove(seg)

    holds_a = [s for s in rem_a if isinstance(s, Hold)]
    holds_b = [s for s in rem_b if isinstance(s, Hold)]
    ascents_a = [s for s in rem_a if not isinstance(s, Hold)]
    ascents_b = [s for s in rem_b if not isinstance(s, Hold)]

    terms = []
    i = j = 0
    left_a = holds_a[0].dt if holds_a else 0.0
    left_b = holds_b[0].dt if holds_b else 0.0
    while i < len(holds_a) and j < len(holds_b):
        dt = min(left_a, left_b)
        r_a, r_b = holds_a[i].r, holds_b[j].r
        if r_a != r_b:
            sign = 1.0 if r_a > r_b else -1.0
            terms.append(sign * dilation_difference(max(r_a, r_b), min(r_a, r_b), body) * dt)
        left_a -= dt
        left_b -= dt
        if left_a <= 0.0:
            i += 1
            left_a = holds_a[i].dt if i < len(holds_a) else 0.0
        if left_b <= 0.0:
            j += 1
            left_b = holds_b[j].dt if j < len(holds_b) else 0.0

    # unpaired leftovers: direct evaluation (no cancellation partner exists)
    if i < len(holds_a):
        terms.append(dilation_factor(holds_a[i].r, body) * left_a)
        terms.extend(_segment_proper_time(s, body) for s in holds_a[i + 1:])
    if j < len(holds_b):
        terms.append(-dilation_factor(holds_b[j].r, body) * left_b)
        terms.extend(-_segment_proper_time(s, body) for s in holds_b[j + 1:])
    terms.extend(_segment_proper_time(s, body) for s in ascents_a)
    terms.extend(-_segment_proper_time(s, body) for s in ascents_b)
    return math.fsum(terms)


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
        values = (self.h, self.d, self.dt_v, self.dt_s, self.dt_c)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"require finite h, d, dt_v, dt_s, dt_c, got {values}")
        if self.h < 0 or self.d <= 0:
            raise ValueError(f"require h >= 0 and d > 0, got h={self.h}, d={self.d}")
        if self.dt_v < 0 or self.dt_s < 0 or self.dt_c <= 0:
            raise ValueError(
                "require dt_v >= 0, dt_s >= 0, dt_c > 0, got "
                f"dt_v={self.dt_v}, dt_s={self.dt_s}, dt_c={self.dt_c}"
            )

    @property
    def dt_r(self):
        """Head start of the early path: dt_v + dt_s (s)."""
        return self.dt_v + self.dt_s

    @property
    def r_top(self):
        return self.body.radius + self.h

    # event times, with t0 = 0
    @property
    def t0(self):
        return 0.0

    @property
    def t1(self):
        """Early path reaches R+h."""
        return self.dt_v

    @property
    def t2(self):
        """Late path starts its ascent."""
        return self.dt_v + self.dt_s

    @property
    def t3(self):
        """Target crosses the early path."""
        return self.dt_v + self.dt_r

    @property
    def t4(self):
        """Target crosses the late path."""
        return self.t3 + self.dt_c

    @property
    def dt_exp(self):
        """Total coordinate duration t4 - t0 of the experiment."""
        return self.t4

    @property
    def dtau_v(self):
        """Proper time accumulated during one ascent (identical for both paths)."""
        if self.dt_v == 0.0:
            return 0.0
        seg = LinearAscent(self.body.radius, self.r_top, self.dt_v)
        return _segment_proper_time(seg, self.body)

    @property
    def dtau_c(self):
        """Proper time at R+h while the target crosses between the branches."""
        return dilation_factor(self.r_top, self.body) * self.dt_c

    @property
    def tau_star(self):
        """Proper time along the early path from t0 to the target crossing.

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
    tau_star: float
    regime: str

    @property
    def dt_r(self):
        return self.ratio_exact * self.dt_c

    @property
    def dt_exp(self):
        """Total duration for the canonical dt_v = 0 schedule."""
        return self.dt_r + self.dt_c


def _regime_tag(h, radius):
    if h <= 0.1 * radius:
        return "near-surface"
    if h >= 10.0 * radius:
        return "small-mass"
    return "general"


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
    if h <= 0 or d <= 0:
        raise ValueError(f"require h > 0 and d > 0, got h={h}, d={d}")
    if dt_c is None:
        dt_c = d / body.constants.c
    elif dt_c <= 0:
        raise ValueError(f"require dt_c > 0, got {dt_c}")

    radius = body.radius
    r_s = body.schwarzschild_radius
    r_top = radius + h
    s_hi = dilation_factor(r_top, body)
    s_lo = dilation_factor(radius, body)
    ratio_exact = s_hi * (s_hi + s_lo) * radius * r_top / (r_s * h)
    ratio_weak = (radius / r_s) * (2.0 * radius / h + 2.0)
    c = body.constants.c
    g = body.surface_gravity
    ratio_curv = c * c / (g * h) - 0.5 * c * c * body.curvature_r0101 / (g * g)
    tau_star = s_hi * ratio_exact * dt_c
    return MatchingSolution(
        body=body,
        h=h,
        d=d,
        dt_c=dt_c,
        ratio_exact=ratio_exact,
        ratio_weak_field=ratio_weak,
        ratio_curvature_form=ratio_curv,
        tau_star=tau_star,
        regime=_regime_tag(h, radius),
    )


def solved_schedule(body, h, d, dt_c=None, dt_v=0.0):
    """Build a ProtocolSchedule satisfying the matching condition.

    The solved head start dt_r is split as dt_v + dt_s for the requested
    ascent duration (dt_v must not exceed dt_r).
    """
    solution = solve_matching(body, h, d, dt_c)
    dt_r = solution.dt_r
    if dt_v < 0 or dt_v > dt_r:
        raise ValueError(f"dt_v must lie in [0, dt_r={dt_r:g}], got {dt_v}")
    return ProtocolSchedule(
        body=body, h=h, d=d, dt_v=dt_v, dt_s=dt_r - dt_v, dt_c=solution.dt_c
    )


def small_mass_duration(body, d):
    """Limit h >> R of the solved head start: dt_r = c R d / (G M)."""
    if d <= 0:
        raise ValueError(f"require d > 0, got {d}")
    k = body.constants
    return k.c * body.radius * d / (k.G * body.mass)


def static_agent_tau(r_b, body):
    """Minimum proper time 2 r_b^2 c / (G M) for the static-agent protocol.

    Baseline for comparison: agents held at fixed radius r_b instead of
    following the moving-path schedule.
    """
    if r_b <= body.schwarzschild_radius:
        raise ValueError(
            f"r_b={r_b:g} m is not outside R_S={body.schwarzschild_radius:g} m"
        )
    k = body.constants
    return 2.0 * r_b * r_b * k.c / (k.G * body.mass)


@dataclass(frozen=True)
class WindowReport:
    """Feasibility margins for the interaction time windows.

    margin_flight   : (d/c) / dtau_1   -- decay window resolves the photon flight
    margin_decay    : dtau_1 / eps     -- trigger sharpness within the decay window
    margin_crossing : (t3 - t0) / dt_c -- crossing time negligible in dt_exp
    """

    margin_flight: float
    margin_decay: float
    margin_crossing: float
    threshold: float
    passed_flight: bool = field(init=False)
    passed_decay: bool = field(init=False)
    passed_crossing: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed_flight", self.margin_flight >= self.threshold)
        object.__setattr__(self, "passed_decay", self.margin_decay >= self.threshold)
        object.__setattr__(
            self, "passed_crossing", self.margin_crossing >= self.threshold
        )

    @property
    def all_passed(self):
        return self.passed_flight and self.passed_decay and self.passed_crossing


def validate_windows(schedule, dtau_1, eps, threshold=10.0):
    """Check the hierarchy eps << dtau_1 << d/c (and dt_c << t3 - t0).

    "Much less" is operationalized as a configurable factor (default 10).
    Failures are reported, never raised.
    """
    if dtau_1 <= 0 or eps <= 0:
        raise ValueError(
            f"require dtau_1 > 0 and eps > 0, got dtau_1={dtau_1}, eps={eps}"
        )
    flight = schedule.d / schedule.body.constants.c
    return WindowReport(
        margin_flight=flight / dtau_1,
        margin_decay=dtau_1 / eps,
        margin_crossing=(schedule.t3 - schedule.t0) / schedule.dt_c,
        threshold=threshold,
    )


def build_paths(schedule):
    """The two branch worldlines, aligned on total duration t4 - t0.

    Early path: ascend during [t0, t1], then hold at R+h through t4.
    Late path: hold at R until t2, ascend during [t2, t3], hold at R+h
    until t4.  Zero-duration segments (dt_v = 0, dt_s = 0) are dropped.
    """
    r_lo = schedule.body.radius
    r_hi = schedule.r_top
    early = []
    late = []
    if schedule.dt_v > 0:
        early.append(LinearAscent(r_lo, r_hi, schedule.dt_v))
    hold_early = schedule.t4 - schedule.t1
    if hold_early > 0:
        early.append(Hold(r_hi, hold_early))
    if schedule.t2 > 0:
        late.append(Hold(r_lo, schedule.t2))
    if schedule.dt_v > 0:
        late.append(LinearAscent(r_lo, r_hi, schedule.dt_v))
    if schedule.dt_c > 0:
        late.append(Hold(r_hi, schedule.dt_c))
    if not early or not late:
        raise ValueError("schedule is empty: no positive-duration segments")
    path_early = PathProfile(tuple(early))
    path_late = PathProfile(tuple(late))
    if not math.isclose(
        path_early.total_duration, path_late.total_duration, rel_tol=1e-12
    ):
        raise ValueError("inconsistent schedule: branch durations differ")
    return path_early, path_late


def path_matching_residual(schedule):
    """Matching residual recomputed from the built paths (consistency check).

    Evaluates tau(early, to t3) - tau(late, to t3) - dtau_c, i.e. the same
    quantity as :meth:`ProtocolSchedule.matching_residual` but assembled
    from the worldline machinery instead of the schedule algebra.
    """
    path_early, path_late = build_paths(schedule)
    t3 = schedule.t3
    diff = proper_time_difference(
        path_early.truncated(t3), path_late.truncated(t3), schedule.body
    )
    return diff - schedule.dtau_c
