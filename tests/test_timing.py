import math
import re

import mpmath as mp
import numpy as np
import pytest

from qswitch.spacetime import (
    CODATA2018,
    CentralBody,
    DomainError,
    dilation_difference,
    dilation_factor,
)
from qswitch.timing import (
    WINDOW_THRESHOLD,
    ProtocolSchedule,
    small_mass_duration,
    solve_matching,
    solved_schedule,
    static_agent_tau,
    validate_windows,
)

from conftest import EARTH_MASS, EARTH_RADIUS

mp.mp.dps = 40


def oracle_proper_time_hold(r, dt, body):
    k = body.constants
    r_s = 2 * mp.mpf(k.G) * mp.mpf(body.mass) / mp.mpf(k.c) ** 2
    return mp.sqrt(1 - r_s / mp.mpf(r)) * mp.mpf(dt)


def oracle_ascent(body, h, dt_v):
    """Proper time of a climb from R to R+h > R at constant dr/dt over dt_v.

    40-digit mp.quad of sqrt(1 - R_S/r(t)) with r(t) = R + h t/dt_v, from
    the same double R, R_S and h as the program.  The range is split where
    r - R_S grows by a factor 4, so climbs that start near the horizon or
    rise far above R converge too.
    """
    r_s, radius, h = mp.mpf(body.schwarzschild_radius), mp.mpf(body.radius), mp.mpf(h)
    gap = radius - r_s
    growth = (gap + h) / gap
    pieces = max(1, int(mp.ceil(mp.log(growth, 4))))
    breaks = [(growth ** (mp.mpf(k) / pieces) - 1) * gap / h for k in range(pieces)]
    rate = mp.quad(lambda s: mp.sqrt(1 - r_s / (radius + h * s)), breaks + [1])
    return mp.mpf(dt_v) * rate


def exact_events(schedule):
    """(t2, t3, t4) summed exactly from the schedule's durations."""
    t2 = mp.mpf(schedule.dt_v) + schedule.dt_s
    t3 = t2 + schedule.dt_v
    return t2, t3, t3 + schedule.dt_c


def oracle_branch_tau(schedule, branch, t_end):
    """Proper time of the "early" or "late" branch from t0 = 0 to t_end.

    From the definition, not from the schedule algebra: the branch holds at
    R until its climb starts (t0 early, t2 late), climbs to R+h over dt_v,
    then holds at R+h, and a hold at r adds sqrt(1 - R_S/r) dt.  t_end must
    not fall before the climb ends.
    """
    body = schedule.body
    r_s, radius = mp.mpf(body.schwarzschild_radius), mp.mpf(body.radius)
    start = mp.mpf(0) if branch == "early" else exact_events(schedule)[0]
    top = start + schedule.dt_v
    assert t_end >= top
    climb = oracle_ascent(body, schedule.h, schedule.dt_v) if schedule.dt_v else 0
    return (
        mp.sqrt(1 - r_s / radius) * start
        + climb
        + mp.sqrt(1 - r_s / (radius + schedule.h)) * (t_end - top)
    )


def oracle_residual(schedule):
    """tau(early, to t3) - tau(late, to t4) from oracle_branch_tau."""
    _, t3, t4 = exact_events(schedule)
    return oracle_branch_tau(schedule, "early", t3) - oracle_branch_tau(schedule, "late", t4)


def ascent(body, h, dt_v):
    """A schedule that only sets the climb; dtau_v depends on nothing else."""
    return ProtocolSchedule(body, h=h, d=1e-6, dt_v=dt_v, dt_s=0.0, dt_c=1.0)


class TestProperTime:
    def test_flat_limit(self):
        far = CentralBody(EARTH_MASS, 1e30)
        assert ascent(far, 1.0, 5.0).dtau_v == pytest.approx(5.0, abs=1e-12)

    def test_hold_at_surface_one_second(self, earth):
        # h = 0 puts the crossing hold at the surface
        schedule = ProtocolSchedule(earth, h=0.0, d=1e-6, dt_v=0.0, dt_s=0.0, dt_c=1.0)
        value = schedule.dtau_c
        assert value == pytest.approx(
            float(oracle_proper_time_hold(EARTH_RADIUS, 1.0, earth)), rel=1e-15, abs=0.0
        )
        assert 1.0 - value == pytest.approx(6.961311e-10, rel=1e-6)

    def test_ascent_reduces_to_hold_for_small_height(self, earth):
        hold = dilation_factor(EARTH_RADIUS, earth) * 3.0
        assert ascent(earth, 1e-9, 3.0).dtau_v == pytest.approx(hold, rel=1e-12)

    def test_ascent_against_quadrature_oracle(self, earth):
        # 40-digit quadrature of the same climb, frozen
        value = ascent(earth, 100.0, 10.0).dtau_v
        assert value == pytest.approx(9.999999993038743319, rel=1e-13)
        assert value == pytest.approx(
            float(oracle_ascent(earth, 100.0, 10.0)), rel=1e-15, abs=0.0
        )

    def test_no_ascent_no_proper_time(self, earth):
        assert ascent(earth, 1.0, 0.0).dtau_v == 0.0

    def test_rejects_overflowing_top(self):
        # (R - R_S + h)/R_S = 4e318 once gave dtau_v nan, even at dt_v = 0
        body = CentralBody(1.6e8, 3.2e-9)
        text = "(R - R_S + h)/R_S overflows at R=3.2e-09 m, R_S=2.37637e-19 m, h=1e+300 m"
        with pytest.raises(DomainError, match=re.escape(text)):
            ascent(body, 1e300, 0.0).dtau_v
        schedule = ProtocolSchedule(body, h=np.array([1.0, 1e300]), d=1.0, dt_v=0.0, dt_s=1.0,
                                    dt_c=1.0)
        with pytest.raises(DomainError, match=re.escape(text)) as caught:
            schedule.dtau_v
        assert caught.value.index == 1

    def test_rejects_overflowing_ascent_square(self):
        # (a + b)^2 with a ~ b ~ 2.3e153 once raised a bare OverflowError
        body = CentralBody(1.55e-78, 1.2e203)
        text = ("(sqrt((R - R_S + h)/R_S) + sqrt((R - R_S)/R_S))^2 overflows at R=1.2e+203 m, "
                "R_S=2.30211e-105 m, h=1 m")
        with pytest.raises(DomainError, match=re.escape(text)):
            ascent(body, 1.0, 1.0).dtau_v
        body = CentralBody(1.55e-78, np.array([1.0, 1.2e203]))
        with pytest.raises(DomainError, match=re.escape(text)) as caught:
            ascent(body, 1.0, 1.0).dtau_v
        assert caught.value.index == 1


class TestProperTimeDifference:
    def test_shared_ascent_cancels_exactly(self, earth):
        # both branches make the same climb, so the residual sees only the
        # head start dt_r, however it splits into climb and wait
        instant = ProtocolSchedule(earth, h=3.0, d=1e-6, dt_v=0.0, dt_s=5.0, dt_c=1e-15)
        climbing = ProtocolSchedule(earth, h=3.0, d=1e-6, dt_v=2.0, dt_s=3.0, dt_c=1e-15)
        assert climbing.matching_residual() == instant.matching_residual()
        oracle = float(oracle_residual(climbing))
        assert climbing.matching_residual() == pytest.approx(oracle, rel=1e-12, abs=0.0)


class TestSolveMatching:
    def test_earth_headline(self, earth):
        solution = solve_matching(earth, 1.0, 0.3e-6)
        schedule = solution.schedule()
        assert solution.dt_r == pytest.approx(9.158348562456938, rel=1e-12)
        assert 8.0 <= schedule.t4 <= 10.5
        assert solution.regime == "near-surface"
        assert schedule.tau_star == pytest.approx(9.158348556081528, rel=1e-12)

    def test_earth_prefactor_frozen(self, earth):
        solution = solve_matching(earth, 1.0, 0.3e-6)
        prefactor = solution.dt_r * 1.0 / 0.3e-6
        assert prefactor == pytest.approx(30527828.54152313, rel=1e-8)

    def test_weak_field_forms_identical(self, earth):
        for h in (0.1, 1.0, 10.0, 1e3, 1e6):
            solution = solve_matching(earth, h, 1e-6)
            assert solution.ratio_curvature_form == pytest.approx(
                solution.ratio_weak_field, rel=1e-12
            )

    def test_weak_field_vs_exact_gap(self, earth):
        # neglected terms are O(R_S/R) ~ 1.4e-9
        for h in (0.1, 1.0, 10.0, 100.0):
            solution = solve_matching(earth, h, 1e-6)
            gap = abs(solution.ratio_weak_field / solution.ratio_exact - 1.0)
            assert gap < 1e-8

    def test_large_height_limit_is_pure_curvature_term(self, earth):
        solution = solve_matching(earth, 1e9 * EARTH_RADIUS, 1e-6)
        limit = 2.0 * EARTH_RADIUS / earth.schwarzschild_radius
        assert solution.ratio_weak_field == pytest.approx(limit, rel=1e-8)
        assert solution.regime == "small-mass"

    def test_near_surface_formula(self, earth):
        # dt_r ~ c R^2 d / (G M h) up to O(h/R, R_S/R)
        k = CODATA2018
        h, d = 1.0, 0.3e-6
        approx = k.c * EARTH_RADIUS**2 * d / (k.G * EARTH_MASS * h)
        solution = solve_matching(earth, h, d)
        assert solution.dt_r == pytest.approx(approx, rel=1e-6)

    def test_rejects_bad_inputs(self, earth):
        with pytest.raises(ValueError):
            solve_matching(earth, 0.0, 1e-6)
        with pytest.raises(ValueError):
            solve_matching(earth, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_matching(earth, 1.0, 1e-6, dt_c=0.0)

    def test_rejects_nan(self, earth):
        with pytest.raises(ValueError, match=r"require h > 0 and d > 0, got h=nan, d=1.0"):
            solve_matching(earth, math.nan, 1.0)
        with pytest.raises(ValueError, match=r"got h=1.0, d=nan"):
            solve_matching(earth, 1.0, math.nan)
        with pytest.raises(ValueError, match=r"require dt_c > 0, got nan"):
            solve_matching(earth, 1.0, 1e-6, dt_c=math.nan)
        with pytest.raises(DomainError, match="got h=nan") as caught:
            solve_matching(earth, np.array([1.0, math.nan, 2.0]), 1.0)
        assert caught.value.index == 1

    @pytest.mark.parametrize("args, text", [
        ((math.inf, 1.0), "require h > 0 and d > 0, got h=inf, d=1.0"),
        ((1.0, math.inf), "require h > 0 and d > 0, got h=1.0, d=inf"),
        ((1.0, 1e-6, math.inf), "require dt_c > 0, got inf"),
    ], ids=["h", "d", "dt_c"])
    def test_rejects_inf(self, earth, args, text):
        # an infinite h once gave ratio_exact nan in the small-mass regime
        with pytest.raises(DomainError, match=re.escape(text)):
            solve_matching(earth, *args)

    def test_rejects_overflowing_solved_dt_r(self):
        # (dt_r/dt_c) dt_c = 3.3e94 * 1.2e291 once failed as an infinite dt_s
        body = CentralBody(1.55e-78, 3.77e-11)
        text = ("solved dt_r = (dt_r/dt_c) dt_c overflows at dt_r/dt_c=3.27526e+94, "
                "dt_c=1.20083e+291 s")
        solution = solve_matching(body, 9.4e5, 3.6e299)
        for solved in (lambda: solution.dt_r, solution.schedule):
            with pytest.raises(DomainError, match=re.escape(text)):
                solved()
        with pytest.raises(DomainError, match=re.escape(text)) as caught:
            solve_matching(body, 9.4e5, np.array([1.0, 3.6e299])).dt_r
        assert caught.value.index == 1
        # an explicit dt_s does not use the solved head start
        explicit = ProtocolSchedule(body, h=9.4e5, d=3.6e299, dt_v=0.0, dt_s=1.0,
                                    dt_c=solution.dt_c)
        assert explicit.dt_r == 1.0

    def test_schedule_rejects_nan_dt_v(self, earth):
        with pytest.raises(ValueError, match=r"dt_v must lie in \[0, dt_r=.*\], got nan"):
            solve_matching(earth, 1.0, 0.3e-6).schedule(math.nan)

    def test_monotonicity_in_h_and_d(self, earth):
        heights = [0.1 * 10**k for k in range(5)]
        dt_rs = [solve_matching(earth, h, 1e-6).dt_r for h in heights]
        assert dt_rs == sorted(dt_rs, reverse=True)
        seps = [1e-8, 1e-7, 1e-6, 1e-5]
        dt_rs = [solve_matching(earth, 1.0, d).dt_r for d in seps]
        assert dt_rs == sorted(dt_rs)
        # linear in d through dt_c
        assert dt_rs[2] == pytest.approx(10.0 * dt_rs[1], rel=1e-12)


class TestSmallMassAndStaticBaseline:
    def test_femtometer_scenario(self):
        body = CentralBody(1e-10, 1e-15)
        value = small_mass_duration(body, 1e-15)
        assert value == pytest.approx(0.044917438233222966, rel=1e-12)
        assert 4e-2 <= value <= 6e-2

    def test_linear_in_d(self):
        body = CentralBody(1e-10, 1e-15)
        assert small_mass_duration(body, 2e-15) == pytest.approx(
            2.0 * small_mass_duration(body, 1e-15), rel=1e-15
        )

    def test_order_one_second_scale(self):
        # R*d ~ 1e-28 m^2 at M = 1e-10 kg sits at the seconds scale
        body = CentralBody(1e-10, 1e-14)
        assert 0.5 <= small_mass_duration(body, 1e-14) <= 10.0

    def test_small_mass_rejects_nan(self):
        with pytest.raises(ValueError, match="require d > 0, got nan"):
            small_mass_duration(CentralBody(1e-10, 1e-15), math.nan)

    def test_static_baseline_earth(self, earth):
        value = static_agent_tau(EARTH_RADIUS, earth)
        assert value == pytest.approx(61055647.58468217, rel=1e-12)
        assert 5.5e7 <= value <= 6.5e7  # order one year

    def test_static_baseline_quadratic(self, earth):
        assert static_agent_tau(2 * EARTH_RADIUS, earth) == pytest.approx(
            4.0 * static_agent_tau(EARTH_RADIUS, earth), rel=1e-15
        )

    def test_static_baseline_rejects_interior(self, earth):
        with pytest.raises(ValueError):
            static_agent_tau(0.5 * earth.schwarzschild_radius, earth)

    def test_static_baseline_rejects_nan(self, earth):
        with pytest.raises(ValueError, match="r_b=nan m is not outside"):
            static_agent_tau(math.nan, earth)


class TestWindows:
    def test_passing_margins(self, earth):
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        report = validate_windows(schedule, 1e-17, 1e-19)
        assert report.margin_flight == pytest.approx(100.0, rel=1e-2)
        assert report.margin_decay == pytest.approx(100.0, rel=1e-12)
        assert report.all_passed

    def test_flight_boundary_fails(self, earth):
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        flight = 0.3e-6 / CODATA2018.c
        report = validate_windows(schedule, flight, 1e-19)
        assert not report.passed_flight
        assert not report.all_passed

    def test_decay_boundary_fails(self, earth):
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        report = validate_windows(schedule, 1e-17, 1e-17)
        assert not report.passed_decay

    def test_decay_margin_at_threshold_passes(self, earth):
        # powers of two scale the margin exactly: dtau_1 / eps is the factor
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        eps = 2.0**-60
        at = validate_windows(schedule, WINDOW_THRESHOLD * eps, eps)
        below = validate_windows(schedule, math.nextafter(WINDOW_THRESHOLD, 0.0) * eps, eps)
        assert at.margin_decay == WINDOW_THRESHOLD
        assert below.margin_decay < WINDOW_THRESHOLD
        assert at.passed_decay and not below.passed_decay

    def test_rejects_nan(self, earth):
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        with pytest.raises(ValueError, match="got dtau_1=nan, eps=1e-19"):
            validate_windows(schedule, math.nan, 1e-19)
        with pytest.raises(ValueError, match="got dtau_1=1e-17, eps=nan"):
            validate_windows(schedule, 1e-17, math.nan)

    @pytest.mark.parametrize("args, text", [
        ((math.inf, 1e-19), "got dtau_1=inf, eps=1e-19"),
        ((1e-17, math.inf), "got dtau_1=1e-17, eps=inf"),
    ], ids=["dtau_1", "eps"])
    def test_rejects_inf(self, earth, args, text):
        # an infinite dtau_1 once gave margin_flight 0.0
        with pytest.raises(DomainError, match=text):
            validate_windows(solved_schedule(earth, 1.0, 0.3e-6), *args)

    def test_rejects_overflowing_decay_margin(self, earth):
        # dtau_1/eps once gave margin_decay inf, which JSON cannot hold
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        text = "margin dtau_1/eps overflows at dtau_1=1e+300 s, eps=1e-300 s"
        with pytest.raises(DomainError, match=re.escape(text)):
            validate_windows(schedule, 1e300, 1e-300)
        with pytest.raises(DomainError, match=re.escape(text)) as caught:
            validate_windows(schedule, 1e300, np.array([1.0, 1e-300]))
        assert caught.value.index == 1

    def test_rejects_overflowing_crossing_margin(self, earth):
        # t3/dt_c once gave margin_crossing inf
        text = "margin t3/dt_c overflows at t3=1e+300 s, dt_c=1e-300 s"
        schedule = ProtocolSchedule(earth, h=1.0, d=0.3e-6, dt_v=0.1, dt_s=1e300, dt_c=1e-300)
        with pytest.raises(DomainError, match=re.escape(text)):
            validate_windows(schedule, 1e-17, 1e-19)
        columns = ProtocolSchedule(earth, h=1.0, d=0.3e-6, dt_v=0.1, dt_s=1e300,
                                   dt_c=np.array([1.0, 1e-300]))
        with pytest.raises(DomainError, match=re.escape(text)) as caught:
            validate_windows(columns, 1e-17, 1e-19)
        assert caught.value.index == 1


class TestSchedulesAndPaths:
    @pytest.mark.parametrize("field", ["h", "d", "dt_v", "dt_s", "dt_c"])
    def test_schedule_rejects_nan(self, earth, field):
        values = dict(h=2.0, d=1e-6, dt_v=1.0, dt_s=3.0, dt_c=0.5)
        values[field] = float("nan")
        with pytest.raises(ValueError, match="finite"):
            ProtocolSchedule(earth, **values)

    def test_schedule_event_times(self, earth):
        schedule = ProtocolSchedule(earth, h=2.0, d=1e-6, dt_v=1.0, dt_s=3.0, dt_c=0.5)
        assert schedule.dt_v == 1.0
        assert schedule.dt_r == 4.0
        assert schedule.t3 == 5.0
        assert schedule.t4 == 5.5

    def test_schedule_rejects_overflowing_t4(self, earth):
        # dt_v + dt_s = inf once ran on to inf and nan cells
        text = "t4 = 2 dt_v + dt_s + dt_c overflows at dt_v=1e+308 s, dt_s=1.7e+308 s, dt_c=1 s"
        with pytest.raises(DomainError, match=re.escape(text)):
            ProtocolSchedule(earth, h=1.0, d=3e-7, dt_v=1e308, dt_s=1.7e308, dt_c=1.0)
        with pytest.raises(DomainError, match=re.escape(text)) as caught:
            ProtocolSchedule(earth, h=1.0, d=3e-7, dt_v=np.array([1.0, 1e308]),
                             dt_s=np.array([1.0, 1.7e308]), dt_c=1.0)
        assert caught.value.index == 1

    def test_solved_schedule_residual_instant_ascent(self, earth):
        schedule = solved_schedule(earth, 1.0, 0.3e-6)
        assert abs(schedule.matching_residual()) < 1e-12 * schedule.tau_star

    def test_solved_schedule_residual_with_ascent(self, earth):
        schedule = solved_schedule(earth, 1.0, 0.3e-6, dt_v=2.0)
        assert abs(schedule.matching_residual()) < 1e-12 * schedule.tau_star
        assert schedule.dtau_v > 0.0

    def test_path_residual_matches_schedule_residual(self, earth):
        for dt_v in (0.0, 2.0):
            schedule = solved_schedule(earth, 1.0, 0.3e-6, dt_v=dt_v)
            assert abs(oracle_residual(schedule)) < 1e-12 * schedule.tau_star

    def test_unsolved_schedule_residual_algebra(self, earth):
        # arbitrary head start: residual must equal the closed combination
        schedule = ProtocolSchedule(earth, h=1.0, d=0.3e-6, dt_v=0.0, dt_s=5.0,
                                    dt_c=0.3e-6 / CODATA2018.c)
        expected = (
            dilation_difference(EARTH_RADIUS + 1.0, EARTH_RADIUS, earth) * 5.0
            - schedule.dtau_c
        )
        assert schedule.matching_residual() == pytest.approx(expected, rel=1e-15, abs=0.0)
        oracle = float(oracle_residual(schedule))
        assert schedule.matching_residual() == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_degenerate_schedule_paths_identical(self, earth):
        # h = 0: the branches never separate, so only the crossing is left
        # and the climb is a hold at R
        schedule = ProtocolSchedule(earth, h=0.0, d=1e-6, dt_v=2.0, dt_s=0.0, dt_c=1.0)
        assert schedule.matching_residual() == -schedule.dtau_c
        hold = dilation_factor(EARTH_RADIUS, earth) * 2.0
        assert schedule.dtau_v == pytest.approx(hold, rel=1e-15, abs=0.0)

    def test_branch_proper_times_reach_tau_star(self, earth):
        # end to end: both branches accumulate tau_star at their crossing
        schedule = solved_schedule(earth, 1.0, 0.3e-6, dt_v=1.0)
        _, t3, t4 = exact_events(schedule)
        tau_early = float(oracle_branch_tau(schedule, "early", t3))
        tau_late = float(oracle_branch_tau(schedule, "late", t4))
        assert tau_early == pytest.approx(schedule.tau_star, rel=1e-12)
        assert tau_late == pytest.approx(schedule.tau_star, rel=1e-12)

    def test_residual_sweep_hundred_points(self, earth):
        # h x d grid; the residual stays at rounding level everywhere
        heights = [0.1 * 10 ** (k / 3.0) for k in range(10)]
        seps = [1e-8 * 10 ** (k / 3.0) for k in range(10)]
        for h in heights:
            for d in seps:
                schedule = solved_schedule(earth, h, d)
                assert abs(schedule.matching_residual()) < 1e-12 * schedule.tau_star

    def test_rejects_bad_schedule_fields(self, earth):
        with pytest.raises(ValueError):
            ProtocolSchedule(earth, h=-1.0, d=1e-6, dt_v=0.0, dt_s=1.0, dt_c=1.0)
        with pytest.raises(ValueError):
            ProtocolSchedule(earth, h=1.0, d=1e-6, dt_v=-1.0, dt_s=1.0, dt_c=1.0)
        with pytest.raises(ValueError):
            ProtocolSchedule(earth, h=1.0, d=1e-6, dt_v=0.0, dt_s=1.0, dt_c=0.0)
        with pytest.raises(ValueError):
            solved_schedule(earth, 1.0, 0.3e-6, dt_v=100.0)  # exceeds dt_r
