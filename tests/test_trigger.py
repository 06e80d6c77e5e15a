import math
import re

import numpy as np
import pytest
import scipy.fft

from qswitch import trigger
from qswitch.trigger import (
    GridSpec,
    TriggerParams,
    _zone_plan,
    analytic_columns,
    check_trigger_condition,
    condition_from_trajectory,
    default_grid,
    numeric_evolve,
    reflection_bound,
)


def params_with_factors(amp_over_delta=12.0, delta_over_sigma=12.0):
    """Natural units m = omega = hbar = 1; v0 fixed by the pi/2 relation."""
    delta = float(delta_over_sigma)  # sigma = 1
    amp = amp_over_delta * delta
    v0 = math.pi * amp / (2.0 * delta)
    return TriggerParams(m=1.0, omega=1.0, delta=delta, v0=v0, hbar=1.0)


FAST = params_with_factors(12.0, 12.0)


def lab_frame_evolve(params, grid, tau_end=None, sample_times=(), n_samples=60):
    """Reference integrator: both sigma_x channels in the lab frame.

    The grid spans x itself, [grid.x_min, grid.x_max] (see lab_grid), and
    the zone stays put, so this shares neither the moving frame nor its
    time-dependent potential with numeric_evolve.  Strang-split Fourier
    steps, half V / full V merged.  Returns lab-frame samples.
    """
    tau_end = params.tau_star if tau_end is None else tau_end
    n, dx = grid.n_points, grid.dx
    x = grid.x_min + dx * np.arange(n)
    k = 2.0 * math.pi * scipy.fft.fftfreq(n, d=dx)
    zone = params.v0 * ((x >= 0.0) & (x <= params.delta))
    harmonic = 0.5 * params.m * params.omega**2 * x**2
    potential = harmonic + np.array([[1.0], [-1.0]]) * zone
    kinetic = params.hbar * k**2 / (2.0 * params.m)
    packet = np.exp(-((x - params.amp) ** 2) / (2.0 * params.sigma**2))
    packet = packet / math.sqrt(float(np.sum(packet**2)) * dx)
    psi = np.tile(packet.astype(complex) / math.sqrt(2.0), (2, 1))

    events = {0.0, float(tau_end), *(float(t) for t in sample_times)}
    events.update(tau_end * i / n_samples for i in range(n_samples + 1))
    taus, states, now = [0.0], [psi], 0.0
    for target in sorted(events):
        if target <= now:
            continue
        steps = max(1, math.ceil((target - now) / grid.dt_max))
        dt = (target - now) / steps
        half = np.exp(-0.5j * potential * dt / params.hbar)
        full = half * half
        kick = np.exp(-1j * kinetic * dt)
        work = half * psi
        for i in range(steps):
            work = scipy.fft.ifft(scipy.fft.fft(work, axis=-1) * kick, axis=-1)
            work *= full if i < steps - 1 else half
        psi, now = work, target
        taus.append(now)
        states.append(psi)

    states = np.asarray(states)
    density = np.sum(np.abs(states) ** 2, axis=1)
    spectrum = np.sum(np.abs(scipy.fft.fft(states, axis=-1)) ** 2, axis=1)
    return {
        "taus": np.asarray(taus),
        "x_mean": density @ x / np.sum(density, axis=-1),
        "p_mean": params.hbar * (spectrum @ k) / np.sum(spectrum, axis=-1),
        "p_off": np.sum(np.abs(states[:, 0] + states[:, 1]) ** 2, axis=-1) * dx / 2.0,
        "norm": np.sqrt(np.sum(density, axis=-1) * dx),
    }


def lab_grid(params, dt_max=None):
    """Lab grid over [-1.5A, 1.5A]: spacing the stricter of sigma/8 and
    pi/k_max with the carrier k_max = m omega A / hbar + 6/sigma, a
    5-smooth point count, and the default step ceiling."""
    k_max = params.m * params.omega * params.amp / params.hbar + 6.0 / params.sigma
    dx_req = min(params.sigma / 8.0, math.pi / k_max)
    n = math.ceil(3.0 * params.amp / dx_req)
    n = min(2**a * 5**b for a in range(40) for b in range(5) if 2**a * 5**b >= n)
    if dt_max is None:
        dt_max = default_grid(params).dt_max
    return GridSpec(-1.5 * params.amp, 1.5 * params.amp, n, dt_max)


class TestParams:
    def test_quarter_period_firing_time(self):
        p = FAST
        assert p.tau_star == p.period / 4.0
        assert p.tau_star == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_derived_quantities(self):
        p = params_with_factors(20.0, 20.0)
        assert p.sigma == pytest.approx(1.0, rel=1e-15)
        assert p.amp == pytest.approx(400.0, rel=1e-15)
        assert p.alpha0 == pytest.approx(400.0 / math.sqrt(2.0), rel=1e-15)
        assert p.epsilon == pytest.approx(20.0 / 400.0, rel=1e-15)
        assert p.validity_factors()[0] == pytest.approx(20.0, rel=1e-12)
        assert p.validity_factors()[1] == pytest.approx(20.0, rel=1e-12)
        assert p.validity_factors()[2] > 100.0

    def test_rotation_angle_is_half_pi_under_defining_relation(self):
        for factors in ((10.0, 15.0), (12.0, 12.0), (25.0, 40.0)):
            p = params_with_factors(*factors)
            assert p.rotation_angle == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_rotation_angle_linear_in_v0_and_delta(self):
        base = params_with_factors(12.0, 12.0)
        half_v0 = TriggerParams(m=1.0, omega=1.0, delta=base.delta,
                                v0=base.v0 / 2.0, hbar=1.0, amplitude=base.amp)
        assert half_v0.rotation_angle == pytest.approx(math.pi / 4.0, rel=1e-15)
        double_delta = TriggerParams(m=1.0, omega=1.0, delta=2.0 * base.delta,
                                     v0=base.v0, hbar=1.0, amplitude=base.amp)
        assert double_delta.rotation_angle == pytest.approx(math.pi, rel=1e-15)

    def test_validity_failures_reported(self):
        p = params_with_factors(12.0, 3.0)  # packet not narrow vs the zone
        failures = p.validity_failures()
        assert any("zone-width/packet-width" in f for f in failures)
        assert not params_with_factors(12.0, 12.0).validity_failures()

    @pytest.mark.parametrize("field", ["m", "omega", "delta", "v0", "hbar", "amplitude"])
    def test_rejects_non_finite(self, field):
        values = dict(m=1.0, omega=1.0, delta=12.0, v0=FAST.v0, hbar=1.0, amplitude=None)
        values[field] = math.nan
        with pytest.raises(ValueError, match="finite"):
            TriggerParams(**values)

    def test_zero_coupling_needs_explicit_amplitude(self):
        with pytest.raises(ValueError):
            TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=0.0, hbar=1.0)
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=0.0, hbar=1.0,
                          amplitude=30.0)
        assert p.rotation_angle == 0.0


def analytic_at(params, tau):
    """(p_off, p_on, x_mean) of the closed form at one time."""
    return tuple(float(c[0]) for c in analytic_columns(params, np.array([tau])))


class TestAnalytic:
    def test_initial_condition(self):
        p_off, p_on, x_mean = analytic_at(FAST, 0.0)
        assert (p_off, p_on) == (1.0, 0.0)
        assert x_mean == pytest.approx(FAST.amp, rel=1e-15)

    def test_fired_at_quarter_period(self):
        p_off, p_on, x_mean = analytic_at(FAST, FAST.tau_star)
        assert p_on == pytest.approx(1.0, abs=1e-15)
        assert p_off == pytest.approx(0.0, abs=1e-15)
        # a quarter turn in phase space brings the packet to the origin
        assert x_mean == pytest.approx(0.0, abs=1e-12 * FAST.amp)

    def test_half_rotation_midway_through_zone(self):
        p_off, p_on, _ = analytic_at(FAST, FAST.tau_star - FAST.epsilon / 2.0)
        assert p_off == pytest.approx(0.5, abs=1e-12)
        assert p_on == pytest.approx(0.5, abs=1e-12)

    def test_armed_before_zone(self):
        assert analytic_at(FAST, FAST.tau_star - 3.0 * FAST.epsilon)[:2] == (1.0, 0.0)

    def test_rejects_out_of_range_tau(self):
        with pytest.raises(ValueError, match="outside"):
            analytic_columns(FAST, np.array([0.0, -0.1]))
        with pytest.raises(ValueError, match="outside"):
            analytic_columns(FAST, np.array([FAST.tau_star * 1.1]))
        # the end point survives a rounding of tau_star
        analytic_columns(FAST, np.array([FAST.tau_star * (1 + 1e-13)]))


class TestReflectionBound:
    def test_vanishes_without_barrier(self):
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=0.0, hbar=1.0,
                          amplitude=30.0)
        assert reflection_bound(p) == 0.0

    def test_energy_twice_barrier(self):
        # closed form ((1 - sqrt(1/2))/(1 + sqrt(1/2)))^2
        v0 = 2.0
        amp = math.sqrt(2.0 * (2.0 * v0))  # m omega^2 A^2/2 = 2 v0
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=v0, hbar=1.0,
                          amplitude=amp)
        assert reflection_bound(p) == pytest.approx(0.029437251522859434, rel=1e-12)

    def test_validity_factor_ten(self):
        v0 = 1.0
        amp = math.sqrt(2.0 * (10.0 * v0))
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=v0, hbar=1.0,
                          amplitude=amp)
        ratio = math.sqrt(1.0 - 1.0 / 10.0)
        closed_form = ((1.0 - ratio) / (1.0 + ratio)) ** 2
        assert reflection_bound(p) == pytest.approx(closed_form, rel=1e-12)
        assert reflection_bound(p) < 7e-4

    def test_below_barrier_flags_invalid_regime(self):
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=10.0, hbar=1.0,
                          amplitude=1.0)
        assert reflection_bound(p) == 1.0
        assert any("kinetic-energy" in f for f in p.validity_failures())


class TestGridValidation:
    """The grid spans the co-moving coordinate y = x - x_cl(t)."""

    def test_default_grid_satisfies_preconditions(self):
        p = FAST
        grid = default_grid(p)
        # the packet and its 10 sigma tails, plus the barrier channel's lag
        k = p.m * p.speed / p.hbar
        k_prime = math.sqrt(2.0 * p.m * (p.kinetic_energy - p.v0)) / p.hbar
        lag = p.delta * (k / k_prime - 1.0)
        assert 0.0 < lag < p.sigma
        assert grid.x_min <= -(10.0 * p.sigma + lag)
        assert grid.x_max >= 10.0 * p.sigma + lag
        # far narrower than the orbit: the carrier is factored out
        assert grid.x_max - grid.x_min < 0.2 * p.amp
        assert grid.dx <= p.sigma / 8.0
        assert math.pi / grid.dx >= 6.0 / p.sigma + (k - k_prime)
        assert grid.dt_max <= min(p.period, math.pi * p.hbar / p.v0) / 200.0

    def test_short_domain_rejected(self):
        good = default_grid(FAST)
        # 8 sigma each side, at the default spacing and step
        short = GridSpec(-8.0 * FAST.sigma, 8.0 * FAST.sigma, 256, good.dt_max)
        assert short.dx <= FAST.sigma / 8.0
        with pytest.raises(ValueError, match="reach"):
            numeric_evolve(FAST, grid=short)

    def test_coarse_spacing_rejected(self):
        good = default_grid(FAST)
        grid = GridSpec(good.x_min, good.x_max, 64, good.dt_max)
        with pytest.raises(ValueError, match="spacing"):
            numeric_evolve(FAST, grid=grid)

    def test_coarse_time_step_rejected(self):
        good = default_grid(FAST)
        bad = GridSpec(good.x_min, good.x_max, good.n_points, FAST.period / 10.0)
        with pytest.raises(ValueError, match="time step"):
            numeric_evolve(FAST, grid=bad)

    @pytest.mark.parametrize("field, value, text", [
        ("dt_max", -1.0, "require finite dt_max > 0, got -1.0"),  # once one step per segment
        ("dt_max", 0.0, "require finite dt_max > 0, got 0.0"),    # once ZeroDivisionError
        ("dt_max", math.nan, "require finite dt_max > 0, got nan"),
        ("dt_max", math.inf, "require finite dt_max > 0, got inf"),
        ("n_points", 0, "require integer n_points > 0, got 0"),   # once ZeroDivisionError
        ("n_points", -256, "require integer n_points > 0, got -256"),
        ("n_points", 256.0, "require integer n_points > 0, got 256.0"),
    ])
    def test_bad_grid_values_rejected(self, field, value, text):
        grid = GridSpec(**{**vars(default_grid(FAST)), field: value})
        with pytest.raises(ValueError, match=re.escape(text)):
            numeric_evolve(FAST, grid=grid)

    @pytest.mark.parametrize("kwargs, text", [
        ({"tau_end": math.nan}, "tau_end > 0, got nan"),
        ({"tau_end": math.inf}, "tau_end > 0, got inf"),
        ({"sample_times": (math.nan,)}, "sample time nan outside"),
        ({"sample_times": (-0.5,)}, "sample time -0.5 outside"),
        ({"sample_times": (2.0,)}, "sample time 2.0 outside [0, tau_end=1.5707963267948966]"),
    ])
    def test_bad_clock_inputs_rejected(self, kwargs, text):
        # a bad sample time was once dropped, so `at` read a neighbour
        with pytest.raises(ValueError, match=re.escape(text)):
            numeric_evolve(FAST, **kwargs)

    def test_below_barrier_reports_failure(self):
        # E = m omega^2 A^2 / 2 = 0.5 < v0 = 10: the barrier channel reflects
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=10.0, hbar=1.0,
                          amplitude=1.0)
        report = condition_from_trajectory(
            p, numeric_evolve(p, sample_times=(p.probe_time, p.tau_star), n_samples=50))
        assert not report.passed
        assert report.reflection == 1.0
        assert any("kinetic-energy/barrier" in f for f in report.validity_failures)
        assert report.norm_drift < 1e-8


@pytest.fixture(scope="module")
def fast_trajectory():
    return numeric_evolve(FAST, sample_times=(FAST.probe_time, FAST.tau_star), n_samples=60)


class TestNumeric:

    def test_trigger_condition(self, fast_trajectory):
        report = condition_from_trajectory(FAST, fast_trajectory)
        assert report.p_ready_before >= 0.99
        assert report.p_fired_at_star >= 0.95
        assert report.passed

    def test_norm_conservation(self, fast_trajectory):
        assert float(np.max(np.abs(fast_trajectory.norm - 1.0))) < 1e-8

    def test_agreement_with_analytic(self, fast_trajectory):
        tolerance = max(0.05, 3.0 * reflection_bound(FAST))
        closed_form = analytic_columns(FAST, np.minimum(fast_trajectory.taus, FAST.tau_star))[0]
        assert np.max(np.abs(closed_form - fast_trajectory.p_off)) <= tolerance

    def test_armed_two_crossing_times_early(self, fast_trajectory):
        assert FAST.probe_time == FAST.tau_star - 2.0 * FAST.epsilon
        assert fast_trajectory.at(FAST.probe_time)["p_off"] >= 0.99

    def test_free_evolution_matches_coherent_motion(self):
        # the lab-frame oracle with no coupling: <x> and <p> must follow the
        # closed-form oscillation; run a full period at a step fine enough
        # for the 1e-6 bar (the default ceiling is only an upper bound)
        p = TriggerParams(m=1.0, omega=1.0, delta=8.0, v0=0.0, hbar=1.0,
                          amplitude=30.0)
        traj = lab_frame_evolve(p, lab_grid(p, dt_max=1e-3), tau_end=p.period,
                                n_samples=50)
        x_expected = p.amp * np.cos(p.omega * traj["taus"])
        x_dev = float(np.max(np.abs(traj["x_mean"] - x_expected))) / p.amp
        assert x_dev < 1e-6
        p_scale = p.m * p.omega * p.amp
        p_expected = -p_scale * np.sin(p.omega * traj["taus"])
        p_dev = float(np.max(np.abs(traj["p_mean"] - p_expected))) / p_scale
        assert p_dev < 1e-6
        assert float(np.max(np.abs(traj["norm"] - 1.0))) < 1e-8

    def test_moving_frame_agrees_with_lab_frame(self, fast_trajectory):
        # same sample times, default grids of each frame; measured
        # |dp_off| 7.9e-4 (the lab grid's own edge error: halving its
        # spacing moves p_off by 5.0e-4), |dx|/A 1.1e-6, |dp|/(m omega A)
        # 1.9e-5, |dnorm| 2e-13
        lab = lab_frame_evolve(FAST, lab_grid(FAST),
                               sample_times=(FAST.probe_time, FAST.tau_star), n_samples=60)
        assert np.array_equal(lab["taus"], fast_trajectory.taus)
        assert np.max(np.abs(fast_trajectory.p_off - lab["p_off"])) < 2e-3
        x_dev = np.max(np.abs(fast_trajectory.x_mean - lab["x_mean"])) / FAST.amp
        assert x_dev < 5e-6
        p_scale = FAST.m * FAST.omega * FAST.amp
        assert np.max(np.abs(fast_trajectory.p_mean - lab["p_mean"])) / p_scale < 1e-4
        assert np.max(np.abs(fast_trajectory.norm - lab["norm"])) < 1e-10

    def test_closed_form_report(self):
        analytic = check_trigger_condition(FAST)
        assert analytic.p_ready_before == 1.0
        assert analytic.p_fired_at_star == pytest.approx(1.0, abs=1e-15)
        assert analytic.norm_drift == 0.0
        assert analytic.reflection == reflection_bound(FAST)
        assert analytic.passed

    def test_crossing_time_too_long_fails_with_diagnostic(self):
        # epsilon = delta / (omega A) = 2 leaves no room before the zone: the
        # probe is floored at 0, and both reports say why they fail
        p = TriggerParams(m=1.0, omega=1.0, delta=10.0, v0=1.0, hbar=1.0, amplitude=5.0)
        assert p.probe_time == 0.0
        analytic = check_trigger_condition(p)
        numeric = condition_from_trajectory(
            p, numeric_evolve(p, sample_times=(p.probe_time, p.tau_star), n_samples=10))
        for report in (analytic, numeric):
            assert not report.passed
            assert report.validity_failures[-1] == (
                "crossing time epsilon=2 too close to tau_star=1.5708")

    def test_violated_hierarchy_fails_with_diagnostic(self):
        p = params_with_factors(12.0, 3.0)
        report = check_trigger_condition(p)
        assert not report.passed
        assert any("zone-width/packet-width" in f for f in report.validity_failures)

    def test_sample_times_landed_exactly(self, fast_trajectory):
        assert np.min(np.abs(fast_trajectory.taus - FAST.probe_time)) < 1e-15
        assert np.min(np.abs(fast_trajectory.taus - FAST.tau_star)) < 1e-15


# the clock benchmark's configuration: A = 196, zone 14 wide
CLOCK = TriggerParams(m=1.0, omega=1.0, delta=14.0, v0=7.0 * math.pi, hbar=1.0)
GATE_11 = TriggerParams(m=1.0, omega=1.0, delta=20.0, v0=10.0 * math.pi, hbar=1.0)


def zone_phase(work, y, dx, delta, x_cl, rate, full):
    """One step's zone factor, cell range by cell range: the loop that the
    plan of trigger._zone_plan replaces, kept as its bit-for-bit reference.

    work *= exp(rate * chi), chi the part of each cell [y -+ dx/2] in [-x_cl, delta - x_cl]:
    the fraction on the 3 cells at each edge (once each), full = exp(rate) between, none outside.
    """
    n = len(y)
    a, b = (math.floor((e - y[0]) / dx + 0.5) for e in (-x_cl, delta - x_cl))
    work[:, min(max(a + 2, 0), n):min(max(b - 1, 0), n)] *= full
    for lo, hi in ((max(a - 1, 0), min(a + 2, n)), (max(b - 1, a + 2, 0), min(b + 2, n))):
        if lo < hi:
            chi = [min(max((min(delta - x_cl, c + 0.5 * dx) - max(-x_cl, c - 0.5 * dx)) / dx,
                           0.0), 1.0) for c in y[lo:hi].tolist()]
            work[:, lo:hi] *= np.exp(rate * np.array(chi))


def clock_run(params, **kwargs):
    """numeric_evolve as `qswitch trigger` calls it."""
    return numeric_evolve(params, sample_times=(params.probe_time, params.tau_star), **kwargs)


class TestStepRule:
    """The coupling's fine step only where the zone can reach the grid."""

    def test_clock_steps_coarse_away_from_zone(self, monkeypatch):
        ffts = []
        fft = np.fft.fft

        def counted(x, *args, **kwargs):
            ffts.append(np.ndim(x))
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        traj = clock_run(CLOCK)
        grid = traj.grid
        # x_cl = A cos t falls monotonically on [0, tau_star], so a segment's
        # range is its ends; the zone term reaches the grid for x_cl in
        # (-(y_max + dx/2), delta - (y_min - dx/2)), and stepping starts at
        # the first segment that reaches it
        y_max = grid.x_min + grid.dx * (grid.n_points - 1)
        near, far = -(y_max + 0.5 * grid.dx), CLOCK.delta - (grid.x_min - 0.5 * grid.dx)
        taus = traj.taus.tolist()
        fine = sum(math.ceil((b - a) / grid.dt_max) for a, b in zip(taus, taus[1:]))
        first = next(i for i, b in enumerate(taus[1:]) if CLOCK.amp * math.cos(b) < far)
        expected = sum(
            math.ceil((b - a) / (grid.dt_max if CLOCK.amp * math.cos(b) < far
                                 and CLOCK.amp * math.cos(a) > near else CLOCK.period / 200.0))
            for a, b in zip(taus[first:], taus[first + 1:])
        )
        assert fine == 2201  # every step at the coupling's scale
        assert traj.n_steps == expected == 176  # 361 when stepped from t = 0
        assert ffts.count(2) == traj.n_steps  # one forward FFT per step

    def test_ceiling_unchanged_without_coupling(self):
        # v0 = 0: the period is the only scale, and both ceilings are dt_max;
        # x_cl = A cos t falls until the first contact
        p = TriggerParams(m=1.0, omega=1.0, delta=8.0, v0=0.0, hbar=1.0, amplitude=30.0)
        traj = numeric_evolve(p, tau_end=p.period, n_samples=20)
        taus = traj.taus.tolist()
        far = p.delta - (traj.grid.x_min - 0.5 * traj.grid.dx)
        first = next(i for i, b in enumerate(taus[1:]) if p.amp * math.cos(b) < far)
        assert traj.n_steps == 181 == sum(math.ceil((b - a) / traj.grid.dt_max)
                                          for a, b in zip(taus[first:], taus[first + 1:]))

    def test_unstepped_before_first_contact(self):
        # up to tau = 1 x_cl >= 105 keeps the 14-wide zone off the 20-wide grid
        traj = numeric_evolve(CLOCK, tau_end=1.0, n_samples=10)
        grid = traj.grid
        assert traj.n_steps == 0
        y = grid.x_min + grid.dx * np.arange(grid.n_points)
        packet = np.exp(-(y**2) / (2.0 * CLOCK.sigma**2))
        packet = packet / math.sqrt(float(np.sum(packet**2)) * grid.dx)
        assert np.array_equal(traj.final.psi, np.tile(packet.astype(complex) / math.sqrt(2.0),
                                                      (2, 1)))
        # in the full run the same samples read the initial packet bit for bit
        whole = clock_run(CLOCK)
        before = whole.taus < 1.0
        assert before.sum() > 100
        for name in ("p_off", "p_on", "norm"):
            column = getattr(whole, name)[before]
            assert np.array_equal(column, np.full_like(column, getattr(traj, name)[0]))

    def test_within_reach_from_start_steps_uniformly(self):
        # A = 5 < delta: the zone stays on the grid for the whole run
        p = TriggerParams(m=1.0, omega=1.0, delta=10.0, v0=1.0, hbar=1.0, amplitude=5.0)
        traj = numeric_evolve(p, sample_times=(p.probe_time,), n_samples=30)
        taus = traj.taus.tolist()
        assert traj.n_steps == sum(max(1, math.ceil((b - a) / traj.grid.dt_max))
                                   for a, b in zip(taus, taus[1:]))

    @pytest.mark.parametrize("delta, n_points", [
        (CLOCK.delta, None),  # the clock config
        (50.0, None),         # a zone wider than the grid
        (0.03, None),         # a zone narrower than one cell
        (0.2, None),          # two to three cells, so the edge cells are near
        (CLOCK.delta, 320),   # a 5-smooth grid that is not a power of two
    ])
    def test_zone_phase_matches_all_cells(self, delta, n_points):
        grid = default_grid(CLOCK)
        n = n_points or grid.n_points
        dx = (grid.x_max - grid.x_min) / n
        y = grid.x_min + dx * np.arange(n)
        zone = np.array([[CLOCK.v0], [-CLOCK.v0]])
        near, far = -(y[-1] + 0.5 * dx), delta - (y[0] - 0.5 * dx)
        rng = np.random.default_rng(7)
        work = np.exp(2j * math.pi * rng.random((2, n))) * (0.5 + rng.random((2, n)))
        # random positions across (near, far), the ends of that range, and
        # edges on cell boundaries and off either grid end
        x_cls = np.concatenate([
            rng.uniform(near, far, 400),
            [np.nextafter(near, far), np.nextafter(far, near), -y[0] + 0.5 * dx,
             delta - y[-1] - 0.5 * dx, -y[n // 2] - 0.5 * dx, 0.5 * delta, -y[0] + 3 * dx],
        ])
        for tau in (0.5 * grid.dt_max, grid.dt_max):
            rate = -1j * tau * zone
            plan = _zone_plan(x_cls, np.repeat(rate, len(x_cls), axis=1), y, dx, delta, near, far)
            assert len(plan) == len(x_cls)
            for x_cl, (lo, hi, z) in zip(x_cls, plan):
                assert (lo < hi) == (near < x_cl < far)
                # every cell times the phase of the fraction of it inside
                inside = np.minimum(delta - x_cl, y + 0.5 * dx) - np.maximum(-x_cl, y - 0.5 * dx)
                expected = work * np.exp(-1j * tau * zone * np.clip(inside / dx, 0.0, 1.0))
                got = work.copy()
                got[:, lo:hi] *= z
                assert np.max(np.abs(got - expected)) <= 1e-15
                reference = work.copy()
                zone_phase(reference, y, dx, delta, x_cl, rate, np.exp(rate))
                assert np.array_equal(got, reference)

    def test_plan_blocks_keep_bits(self, monkeypatch):
        # the clock run plans 128 steps a block; one step a block gives the same bits
        whole = clock_run(CLOCK)
        monkeypatch.setattr(trigger, "PLAN_ENTRIES", 1)
        stepwise = clock_run(CLOCK)
        for name in ("x_mean", "p_mean", "p_off", "p_on", "norm"):
            assert np.array_equal(getattr(stepwise, name), getattr(whole, name))
        assert np.array_equal(stepwise.final.psi, whole.final.psi)

    @pytest.mark.parametrize("params, n_samples, fired, ready", [
        # frozen from runs with every step at the coupling's scale
        (GATE_11, 200, 0.9984752893986446, 1.0000000000001035),
        (GATE_11, 50, 0.9984691016710715, 0.9999999999998783),
        (CLOCK, 200, 0.9969163530018738, 1.0000000000000042),
    ])
    def test_matches_uniform_fine_steps(self, params, n_samples, fired, ready):
        # measured |dfired| 9.1e-11, 9.4e-11 and 3.9e-10; |dready| <= 1.3e-13
        report = condition_from_trajectory(params, clock_run(params, n_samples=n_samples))
        assert abs(report.p_fired_at_star - fired) < 1e-6
        assert abs(report.p_ready_before - ready) < 1e-6
        assert report.norm_drift < 1e-12

    def test_two_passages_match_uniform_fine_steps(self):
        # the packet crosses the zone twice by 0.9 T; samples frozen from a
        # run with every step at the coupling's scale; measured max
        # |dp_off| 1.5e-7, |dx|/A 1.9e-9, |dp|/(m omega A) 1.9e-9
        traj = numeric_evolve(FAST, tau_end=0.9 * FAST.period, n_samples=12)
        assert np.array_equal(traj.taus, 0.9 * FAST.period * np.arange(13) / 12)
        p_off = [0.9999999999999999, 1.0000000000000189, 1.0000000000000409,
                 1.0000000000000624, 6.948567933086889e-05, 6.948567933087103e-05,
                 6.948567933087023e-05, 6.948567933086949e-05, 6.948567933086862e-05,
                 6.948567933086945e-05, 0.004450386177232011, 0.999734353812235,
                 0.9997343538122547]
        x_mean = [144.0, 128.30493948312497, 84.6410763301161, 22.52656296579321,
                  -44.498452644164026, -101.82334360977447, -136.95212086952958,
                  -142.22715274535705, -116.49843579188246, -65.37464788832142,
                  -1.577677847753533e-05, 65.37460895424968, 116.49841544335672]
        p_mean = [-2.924971107246771e-17, -65.37463196249475, -116.49844718999245,
                  -142.22712104569987, -136.95206437177328, -101.8233084507764,
                  -44.49837804062443, 22.52662710924287, 84.64114177938907,
                  128.30501493268224, 144.000833577981, 128.3049483453871,
                  84.64109674175488]
        scale = FAST.m * FAST.omega * FAST.amp
        assert np.max(np.abs(traj.p_off - p_off)) < 1e-5
        assert np.max(np.abs(traj.x_mean - x_mean)) / FAST.amp < 2e-8
        assert np.max(np.abs(traj.p_mean - p_mean)) / scale < 3e-8
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-12
        # one segment over both passages, [0.1 T, 0.9 T]: x_cl = 0.81 A at
        # both ends, so only its turning point at t = pi (x_cl = -A) puts the
        # zone in its range; measured |dp_off| 6.6e-7, |dx|/A 4.1e-8,
        # |dp|/(m omega A) 3.8e-8 (4.0e-2, 6.4e-6 and 9.2e-6 if it is missed)
        whole = numeric_evolve(FAST, tau_end=0.9 * FAST.period, n_samples=0,
                               sample_times=(0.1 * FAST.period,))
        assert abs(whole.p_off[-1] - p_off[-1]) < 1e-5
        assert abs(whole.x_mean[-1] - x_mean[-1]) / FAST.amp < 4e-7
        assert abs(whole.p_mean[-1] - p_mean[-1]) / scale < 4e-7
