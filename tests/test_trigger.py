import math
import re
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from qswitch import trigger
from qswitch.config import default_trigger_config
from qswitch.spacetime import CODATA2018, DomainError, check_warnings
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
    5-smooth point count, and by default the step uniform_grid takes (the
    lab frame samples its fixed zone at step times, so it needs that step)."""
    k_max = params.m * params.omega * params.amp / params.hbar + 6.0 / params.sigma
    dx_req = min(params.sigma / 8.0, math.pi / k_max)
    n = math.ceil(3.0 * params.amp / dx_req)
    n = min(2**a * 5**b for a in range(40) for b in range(5) if 2**a * 5**b >= n)
    if dt_max is None:
        dt_max = uniform_grid(params).dt_max
    return GridSpec(-1.5 * params.amp, 1.5 * params.amp, n, dt_max)


def uniform_grid(params, tau_end=None):
    """The default grid with the step min(2 pi/omega, pi hbar/v0) / 200 where the
    zone can reach it, the step the clock once took everywhere."""
    grid = default_grid(params, tau_end=tau_end)
    step = min(params.period, math.pi * params.hbar / params.v0) / 200.0
    return GridSpec(grid.x_min, grid.x_max, grid.n_points, step)


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
        failures = check_warnings(p.validity_checks())
        assert any("zone-width/packet-width" in f for f in failures)
        assert not check_warnings(params_with_factors(12.0, 12.0).validity_checks())

    @pytest.mark.parametrize("field", ["m", "omega", "delta", "v0", "hbar", "amplitude"])
    def test_rejects_non_finite(self, field):
        values = dict(m=1.0, omega=1.0, delta=12.0, v0=FAST.v0, hbar=1.0, amplitude=None)
        values[field] = math.nan
        with pytest.raises(ValueError, match="finite"):
            TriggerParams(**values)

    def test_rejects_infinite_crossing_time(self):
        # delta/(omega A) overflows; the clock once ran on and failed at its grid
        with pytest.raises(ValueError, match=re.escape(
                "require a finite crossing time epsilon = delta/(omega A) >= 0, got inf")):
            TriggerParams(m=8.49e30, omega=2.51e84, delta=7.53e245, v0=2.62e-247, hbar=2.07e73)

    def test_zero_coupling_needs_explicit_amplitude(self):
        with pytest.raises(ValueError):
            TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=0.0, hbar=1.0)
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=0.0, hbar=1.0,
                          amplitude=30.0)
        assert p.rotation_angle == 0.0


MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@settings(max_examples=2000, deadline=None, database=None, derandomize=True)
@given(st.fixed_dictionaries({name: MAGNITUDES for name in ("m", "omega", "delta", "v0", "hbar")}),
       st.one_of(st.none(), MAGNITUDES))
def test_accepted_params_evaluate_without_numpy_warnings(values, free_amplitude):
    # with an amplitude drawn the clock runs free (v0 = 0)
    if free_amplitude is not None:
        values = {**values, "v0": 0.0, "amplitude": free_amplitude}
    try:
        params = TriggerParams(**values)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check_trigger_condition(params)
    # the factors are printed; E/v0 is inf by definition where v0 = 0
    factors = params.validity_factors()
    assert all(map(math.isfinite, factors if params.v0 > 0 else factors[:2])), factors


def unit_clock(**values):
    """TriggerParams arguments of FAST (m = omega = hbar = 1, delta = 12), but values."""
    return {"m": 1.0, "omega": 1.0, "delta": 12.0, "v0": FAST.v0, "hbar": 1.0, **values}


def fast_grid(**values):
    return GridSpec(**{**vars(default_grid(FAST)), **values})


# one case per rule of the clock that some input breaks: (function, arguments, message)
RULES = [
    (TriggerParams, unit_clock(m=-1.0), "require finite m > 0, got -1.0"),
    (TriggerParams, unit_clock(omega=0.0), "require finite omega > 0, got 0.0"),
    (TriggerParams, unit_clock(delta=math.inf), "require finite delta > 0, got inf"),
    (TriggerParams, unit_clock(hbar=math.nan), "require finite hbar > 0, got nan"),
    (TriggerParams, unit_clock(amplitude=-2.0), "require finite amplitude > 0, got -2.0"),
    (TriggerParams, unit_clock(v0=-1.0), "require finite v0 >= 0, got -1.0"),
    (TriggerParams, unit_clock(v0=0.0), "v0 = 0 requires an explicit amplitude"),
    (TriggerParams, dict(m=4.9558745935122954e-79, omega=6.2288610794e-314,
                         delta=1.8689143735661765e-123, v0=0.0, hbar=3.054579629525974e+250,
                         amplitude=2.442890228243344e+48), "require a finite m omega > 0, got 0"),
    (TriggerParams, dict(m=1.2806792588328738e+61, omega=4.266303366107348e-144,
                         delta=1.6527792905820842e-285, v0=2.6021839054679853e+27,
                         hbar=4.221322958553284e-226), "require a finite pi hbar omega > 0, got 0"),
    (TriggerParams, dict(m=4.9218638177494617e+120, omega=1.3725683163063652e+146,
                         delta=1.7468189301637727e-160, v0=1.8438417173870495e-291,
                         hbar=1.4929371333330637e-162),
     "require a finite sigma = sqrt(hbar/(m omega)) > 0, got 0"),
    (TriggerParams, dict(m=2.8941079668242465e+245, omega=2.5269065153659883e-103,
                         delta=6.94714912838807e+195, v0=8.422893148763937e+206,
                         hbar=0.5155088780877356), "require a finite speed omega A > 0, got inf"),
    (TriggerParams, unit_clock(hbar=1e300, delta=14.0, v0=22.0),
     "require a finite kinetic energy m v^2/2 > 0, got 0"),
    (TriggerParams, dict(m=6.832193997415815e-264, omega=3.470516070773736e+212,
                         delta=1.8015524775141948e-208, v0=4.774151077204372e+291,
                         hbar=5.737149079332431e-249, amplitude=7.245869857057469e-214),
     "require a finite m omega^2/2 > 0, got inf"),
    (TriggerParams, dict(m=2552671487929318.5, omega=2094.8869935259445,
                         delta=7.247951715434118e+108, v0=1.01607909507585e+17,
                         hbar=2.0612548945306875e+242),
     "require a finite wavenumber k = m v/hbar > 0, got 0"),
    (TriggerParams, unit_clock(m=1e300, delta=14.0, v0=22.0), "require a finite k + k' > 0, got inf"),
    (TriggerParams, dict(m=8.49e30, omega=2.51e84, delta=7.53e245, v0=2.62e-247, hbar=2.07e73),
     "require a finite crossing time epsilon = delta/(omega A) >= 0, got inf"),
    (TriggerParams, dict(m=2.4288535046202226e-62, omega=9.884738953945887e-58,
                         delta=2.8942276776332806e+141, v0=2.3565170520898958e+286,
                         hbar=1.9102006928246858e-225, amplitude=8.798306258186386e+32),
     "require a finite v0 epsilon >= 0, got inf"),
    (TriggerParams, dict(m=2.1088411617015504e-131, omega=3.0301269830697647e+66,
                         delta=5.594426593178657e+105, v0=5.659765176073829e-34,
                         hbar=2.8140201143291287e-208, amplitude=4.785674320944582e-123),
     "require a finite rotation angle v0 epsilon/hbar >= 0, got inf"),
    # the hierarchy's factors are printed: each once overflowed to inf on an accepted clock
    (TriggerParams, unit_clock(delta=1e-300, v0=1e-300, amplitude=1e10),
     "require a finite amplitude/zone-width factor A/delta >= 0, got inf"),
    (TriggerParams, unit_clock(hbar=1e-100, delta=1e270, v0=1e-300, amplitude=1.0),
     "require a finite zone-width/packet-width factor delta/sigma >= 0, got inf"),
    (TriggerParams, unit_clock(delta=1.0, v0=1e-300, amplitude=1e10),
     "require a finite kinetic-energy/barrier factor E/v0 >= 0, got inf"),
    (analytic_columns, dict(params=FAST, taus=np.array([0.0, -0.1])),
     "tau=-0.1 outside [0, tau_star=1.5708]"),
    (default_grid, dict(params=TriggerParams(**unit_clock(delta=6.283185307179586e-6, v0=2.5e11))),
     "the clock grid needs 1.86e+06 points, more than 1048576"),
    # v0 >> hbar: pi hbar/v0/35 underflows, and the default grid once had dt_max = 0
    (default_grid, dict(params=TriggerParams(
        m=5.147629425846556e-242, omega=8.330035009946501e+95, delta=1.0634128630543022e-293,
        v0=5.071857580932438e+267, hbar=1.463169466989106e-85)),
     "zone step ceiling (pi hbar/v0)/35 underflows to 0 at hbar=1.46317e-85, v0=5.07186e+267"),
    (numeric_evolve, dict(params=FAST, grid=fast_grid(n_points=0)),
     "require integer n_points > 0, got 0"),
    (numeric_evolve, dict(params=FAST, grid=fast_grid(dt_max=0.0)),
     "require finite dt_max > 0, got 0.0"),
    (numeric_evolve, dict(params=FAST, grid=fast_grid(x_min=-8.0, x_max=8.0)),
     "grid [-8, 8] does not cover the packet's co-moving reach [-10.0109, 10.0109]"),
    (numeric_evolve, dict(params=FAST, grid=fast_grid(n_points=64)),
     "grid spacing 0.312841 exceeds the 0.125 that the packet's width and momentum need"),
    (numeric_evolve, dict(params=FAST, grid=fast_grid(dt_max=0.1)),
     "time step 0.1 exceeds the clock's ceiling 0.0047619"),
    (numeric_evolve, dict(params=FAST, tau_end=math.nan), "require finite tau_end > 0, got nan"),
    (numeric_evolve, dict(params=FAST, sample_times=(2.0,)),
     "sample time 2.0 outside [0, tau_end=1.5707963267948966]"),
]


@pytest.mark.parametrize("function, arguments, message", RULES,
                         ids=[f"{function.__name__}-{message[:40]}" for function, _, message in RULES])
def test_each_rule_raises_its_domain_error(function, arguments, message):
    with pytest.raises(DomainError) as raised:
        function(**arguments)
    assert str(raised.value) == message


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
        assert any("kinetic-energy" in f for f in check_warnings(p.validity_checks()))


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
        assert grid.dt_max == min(p.period / trigger.STEPS_PER_SCALE,
                                  math.pi * p.hbar / p.v0 / trigger.ZONE_STEPS_PER_SCALE)

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

    def test_spacing_short_of_the_momentum_rejected(self):
        # E = 3 v0: the barrier channel slows by k - k' ~ 37/sigma in the zone, so
        # pi/(6/sigma + k - k') is the stricter bound; dx = sigma/10 keeps sigma/8
        p = TriggerParams(m=1.0, omega=1.0, delta=1.0, v0=20000.0 / 3.0, hbar=1.0,
                          amplitude=200.0)
        k = p.m * p.speed / p.hbar
        k_prime = math.sqrt(2.0 * p.m * (p.kinetic_energy - p.v0)) / p.hbar
        good = default_grid(p)
        grid = GridSpec(good.x_min, good.x_max, round((good.x_max - good.x_min) / 0.1),
                        good.dt_max)
        assert grid.dx <= p.sigma / 8.0
        assert math.pi / grid.dx < 6.0 / p.sigma + (k - k_prime)
        with pytest.raises(ValueError, match="spacing"):
            numeric_evolve(p, grid=grid)

    def test_reach_positive_where_k_prime_rounds_above_k(self):
        # v0 far below the kinetic energy: k' rounds above k, and the lag delta (k/k' - 1)
        # once took the reach below 0, so the point count's math.ceil(-inf) raised
        p = TriggerParams(m=4.615002175964918e+87, omega=4.254013345541952e-64,
                          delta=2.6658960055047863e+243, v0=5e-324, hbar=2.385247450918615e-18)
        k, k_prime = trigger._wavenumbers(p)
        assert k_prime > k
        grid = default_grid(p)
        assert grid.x_min < grid.x_max and grid.n_points == 256

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
        assert reflection_bound(p) == 1.0
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
        (probe,) = np.flatnonzero(fast_trajectory.taus == FAST.probe_time)
        assert fast_trajectory.p_off[probe] >= 0.99

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
        # 2.0e-5, |dnorm| 2e-13
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


def zone_phase(work, y, dx, delta, amp, span, rate):
    """One zone factor, cell by cell: the loop that the plan of trigger._zone_plan
    vectorizes, kept as its bit-for-bit reference.

    span = (centre, h, left, right): the factor's hat 1 - |phase - centre| / h covers the
    step before its grid phase if left and the step after if right.  work *= exp(rate *
    integral of hat * chi), chi the part of each cell [y -+ dx/2] in [-x_cl, delta - x_cl]
    at x_cl = amp cos(phase): piece by piece between the phases at which an edge meets a
    cell end, on the cells that an edge sweeps and one more each side (once each);
    exp(rate * the hat's area) between; none if x_cl keeps the zone off the grid.
    """
    centre, h, left, right = span
    n, start, stop = len(y), centre - left * h, centre + right * h
    turn = math.ceil(start / math.pi)
    x_cls = [amp * math.cos(start), amp * math.cos(stop)]
    x_cls += [amp * (-1.0) ** turn] if turn * math.pi < stop else []
    if not (-(y[-1] + 0.5 * dx) < max(x_cls) and min(x_cls) < delta - (y[0] - 0.5 * dx)):
        return
    a0, a1, b0, b1 = (min(max(math.floor((e - y[0]) / dx + 0.5), -2), n + 1) for e in
                      (-max(x_cls), -min(x_cls), delta - max(x_cls), delta - min(x_cls)))
    lo = min(max(a0 - 1, 0), n)
    hi = min(max(b1 + 2, lo), n)
    edges = [*range(max(a0 - 1, lo), min(a1 + 2, hi)),
             *range(max(b0 - 1, a1 + 2, lo), min(b1 + 2, hi))]
    for c in range(lo, hi):
        if c not in edges:
            work[:, c] *= np.exp(rate[:, 0] * (0.5 * h * (left + right)))
            continue
        high = y[c] + 0.5 * dx
        meets = np.arccos(np.clip(np.array([delta - high + dx, delta - high, dx - high, -high])
                                  / amp, -1.0, 1.0))
        meets = np.concatenate([meets, -meets])
        meets += 2.0 * math.pi * np.round((centre - meets) / (2.0 * math.pi))
        knots = np.sort(np.concatenate([np.clip(meets, start, stop), [start, stop, centre]]))
        width = np.diff(knots)
        pieces = width != 0
        width = width[pieces]
        nodes = knots[:-1][pieces, None] + width[:, None] * trigger.GAUSS_NODES
        right_part = (amp / dx) * np.cos(nodes) + high / dx
        chi = np.clip(right_part, 0.0, 1.0) - np.clip(right_part - delta / dx, 0.0, 1.0)
        hat = 1.0 - np.abs(nodes - centre) / h
        integral = 0.0
        for piece in (0.5 * width * (chi * hat).sum(-1)).tolist():  # in order, as np.bincount
            integral += piece
        work[:, c] *= np.exp(rate[:, 0] * integral)


def dense_zone_integral(y, dx, delta, amp, span, samples=1 << 14):
    """integral of hat * chi over the factor's span for every cell, by the midpoint rule."""
    centre, h, left, right = span
    start, stop = centre - left * h, centre + right * h
    phases = start + (stop - start) * (np.arange(samples) + 0.5) / samples
    hat = 1.0 - np.abs(phases - centre) / h
    x_cl = amp * np.cos(phases)[:, None]
    inside = np.minimum(delta - x_cl, y + 0.5 * dx) - np.maximum(-x_cl, y - 0.5 * dx)
    return (stop - start) / samples * (hat @ np.clip(inside / dx, 0.0, 1.0))


def clock_run(params, **kwargs):
    """numeric_evolve as `qswitch trigger` calls it."""
    return numeric_evolve(params, sample_times=(params.probe_time, params.tau_star), **kwargs)


def steps_by_rule(params, grid, taus):
    """Strang steps of a run up to tau_star by the step rule: from the first sample
    segment in which the zone can reach the grid on, each segment in equal steps of
    at most grid.dt_max where it can (for x_cl = A cos(omega t) falling through
    (-(y_max + dx/2), delta - (y_min - dx/2))) and the period / STEPS_PER_SCALE
    elsewhere."""
    y_max = grid.x_min + grid.dx * (grid.n_points - 1)
    near, far = -(y_max + 0.5 * grid.dx), params.delta - (grid.x_min - 0.5 * grid.dx)
    x_cl = [params.amp * math.cos(params.omega * t) for t in taus]
    first = next(i for i, x in enumerate(x_cl[1:]) if x < far)
    coarse = params.period / trigger.STEPS_PER_SCALE
    return sum(math.ceil((b - a) / (grid.dt_max if x_b < far and x_a > near else coarse))
               for a, b, x_a, x_b in zip(taus[first:], taus[first + 1:], x_cl[first:],
                                         x_cl[first + 1:]))


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
        taus = traj.taus.tolist()
        assert traj.grid.dt_max == math.pi * CLOCK.hbar / CLOCK.v0 / trigger.ZONE_STEPS_PER_SCALE
        # stepped from the first contact, and at most 48 steps (a rule of 200 steps
        # per pi hbar/v0 with the zone sampled at step times took 176)
        everywhere = sum(math.ceil((b - a) / traj.grid.dt_max) for a, b in zip(taus, taus[1:]))
        assert traj.n_steps == steps_by_rule(CLOCK, traj.grid, taus) < everywhere
        assert traj.n_steps <= 48
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
        self.check_plan(delta, n_points, CLOCK.amp)

    def test_zone_phase_matches_all_cells_at_turning_points(self):
        # amp = 8: the zone is on the grid while x_cl turns
        self.check_plan(3.0, None, 8.0)

    @staticmethod
    def check_plan(delta, n_points, amp):
        grid = default_grid(CLOCK)
        n = n_points or grid.n_points
        dx = (grid.x_max - grid.x_min) / n
        y = grid.x_min + dx * np.arange(n)
        rate = -1j * np.array([[CLOCK.v0], [-CLOCK.v0]]) / CLOCK.omega
        near, far = -(y[-1] + 0.5 * dx), delta - (y[0] - 0.5 * dx)
        rng = np.random.default_rng(7)
        work = np.exp(2j * math.pi * rng.random((2, n))) * (0.5 + rng.random((2, n)))
        # grid phases with x_cl across (near, far) and beyond, half widths up to the
        # step ceiling, so that an edge crosses up to ~80 cells; both sides, one side
        # and none (zero length); phases at turning points and on a cell boundary
        reach = np.arccos(np.clip([far / amp, near / amp], -1.0, 1.0))
        boundary = np.arccos(np.clip((y[n // 2] + 0.5 * dx) / amp, -1.0, 1.0))
        centres = np.concatenate([rng.uniform(reach[0] - 0.05, reach[1] + 0.05, 12),
                                  rng.uniform(-0.1, 2.0 * math.pi + 0.1, 4), [0.0, math.pi],
                                  [boundary, boundary]])
        h = grid.dt_max * np.concatenate([rng.uniform(0.0, 1.0, 16), [1, 1, 1, 1]])
        sides = rng.integers(0, 2, (2, len(centres))).astype(float)
        sides[:, :8], sides[:, 8] = 1.0, 0.0
        spans = np.array([centres, h, *sides])
        plan = _zone_plan(spans, rate, amp, y, dx, delta, near, far)
        assert len(plan) == len(centres)
        for span, (lo, hi, z) in zip(spans.T, plan):
            got = work.copy()
            got[:, lo:hi] *= z
            reference = work.copy()
            zone_phase(reference, y, dx, delta, amp, span, rate)
            assert np.array_equal(got, reference)
            if not span[2] + span[3]:  # zero length: no phase at all
                assert np.array_equal(got, work)
        # every cell times the phase of its hat-weighted time inside the zone, to a part
        # in 2e6 of the largest phase: measured worst 1.4e-7 from the midpoint rule (it
        # falls as samples**-2) and 2.1e-7 from the Gauss rule on the slow edges of amp = 8
        # (it stays there with 4x the samples); the first 9 spans hold every kind of span
        for span, (lo, hi, z) in zip(spans.T[:9], plan):
            cells = slice(max(lo - 2, 0), min(hi + 2, n))
            dense = dense_zone_integral(y[cells], dx, delta, amp, span)
            got = np.ones((2, n), complex)
            got[:, lo:hi] = z
            bound = 5e-7 * abs(rate[0, 0]) * span[1]
            assert np.max(np.abs(got[:, cells] - np.exp(rate * dense))) <= bound

    def test_plan_blocks_keep_bits(self, monkeypatch):
        # the clock run plans its 48 zone factors in one block; one a block gives the same bits
        whole = clock_run(CLOCK)
        monkeypatch.setattr(trigger, "PLAN_ENTRIES", 1)
        stepwise = clock_run(CLOCK)
        for name in ("x_mean", "p_mean", "p_off", "p_on", "norm"):
            assert np.array_equal(getattr(stepwise, name), getattr(whole, name))
        assert np.array_equal(stepwise.final.psi, whole.final.psi)

    @pytest.mark.parametrize("params, n_samples, fired, ready", [
        # frozen from runs of this scheme with every step, from t = 0, at
        # uniform_grid's step (3201, 3151 and 2201 steps)
        (GATE_11, 200, 0.9984833765055515, 1.0000000000001035),
        (GATE_11, 50, 0.9984833766810026, 0.9999999999998783),
        (CLOCK, 200, 0.9969225723317966, 1.0000000000000042),
    ], ids=["gate11-200", "gate11-50", "clock-200"])
    def test_matches_uniform_fine_steps(self, params, n_samples, fired, ready):
        # measured |dfired| 4.1e-9, 5.5e-9 and 3.6e-8; |dready| <= 1.2e-13
        report = condition_from_trajectory(params, clock_run(params, n_samples=n_samples))
        assert abs(report.p_fired_at_star - fired) < 1e-6
        assert abs(report.p_ready_before - ready) < 1e-6
        assert report.norm_drift < 1e-12

    # how far numeric_fired of the clock, gate 11's, gate 12's and the earth preset's
    # runs was from a run at a 16x finer step, measured at commit fb6a79f (the zone
    # sampled at step times, 200 steps per pi hbar/v0): the rule's default step must
    # come no further from its own 16x finer run
    @pytest.mark.parametrize("params, n_samples, distance", [
        (CLOCK, 200, 6.24e-6),
        (GATE_11, 50, 1.43e-5),
        (TriggerParams(m=1.0, omega=1.0, delta=10.0, v0=5.0 * math.pi, hbar=1.0), 200, 1.46e-6),
        (TriggerParams(**vars(default_trigger_config(CODATA2018))), 200, 8.09e-6),
    ], ids=["clock", "gate11", "gate12", "earth"])
    def test_default_step_converges(self, params, n_samples, distance):
        # this rule's: 3.8e-8, 5.9e-9, 6.8e-8 and 4.3e-9, in 32, 33, 52 and 30 steps
        grid = default_grid(params)
        finer = GridSpec(grid.x_min, grid.x_max, grid.n_points, grid.dt_max / 16.0)
        fired = [condition_from_trajectory(params, clock_run(params, grid=g, n_samples=n_samples))
                 .p_fired_at_star for g in (grid, finer)]
        assert abs(fired[0] - fired[1]) <= distance

    def test_two_passages_match_uniform_fine_steps(self):
        # the packet crosses the zone twice by 0.9 T; samples frozen from a run
        # of this scheme with every step, from t = 0, at uniform_grid's step;
        # measured max |dp_off| 2.1e-7, |dx|/A 3.8e-9, |dp|/(m omega A) 2.1e-8
        traj = numeric_evolve(FAST, tau_end=0.9 * FAST.period, n_samples=12)
        assert np.array_equal(traj.taus, 0.9 * FAST.period * np.arange(13) / 12)
        p_off = [0.9999999999999999, 1.0000000000000189, 1.0000000000000409,
                 1.0000000000000624, 6.331759098993017e-05, 6.331759098992448e-05,
                 6.331759098992329e-05, 6.331759098993766e-05, 6.331759098993565e-05,
                 6.331759098992653e-05, 0.0044433894658500355, 0.9997467783434776,
                 0.9997467783434978]
        x_mean = [144.0, 128.30493948312497, 84.6410763301161, 22.52656296579321,
                  -44.49843289947174, -101.82336566609851, -136.9521333483337,
                  -142.22712296373697, -116.49845560492051, -65.37464504058015,
                  -1.0014032828949024e-05, 65.37460467154061, 116.49842833793682]
        p_mean = [-2.924971107246771e-17, -65.37463196249475, -116.49844718999245,
                  -142.22712104569987, -136.9521425485358, -101.82338672241706,
                  -44.49846122010124, 22.52654819603889, 84.64106404095003,
                  128.3049323541852, 144.0007796499311, 128.304951520423,
                  84.64109944537502]
        scale = FAST.m * FAST.omega * FAST.amp
        assert np.max(np.abs(traj.p_off - p_off)) < 1e-5
        assert np.max(np.abs(traj.x_mean - x_mean)) / FAST.amp < 2e-8
        assert np.max(np.abs(traj.p_mean - p_mean)) / scale < 3e-8
        assert np.max(np.abs(traj.norm - 1.0)) < 1e-12
        # one segment over both passages, [0.1 T, 0.9 T]: x_cl = 0.81 A at
        # both ends, so only its turning point at t = pi (x_cl = -A) puts the
        # zone in its range; measured |dp_off| 1.2e-8, |dx|/A 2.4e-9,
        # |dp|/(m omega A) 3.5e-9 (2.5e-4, 1.3e-7 and 1.6e-7 if it is missed)
        whole = numeric_evolve(FAST, tau_end=0.9 * FAST.period, n_samples=0,
                               sample_times=(0.1 * FAST.period,))
        assert abs(whole.p_off[-1] - p_off[-1]) < 1e-5
        assert abs(whole.x_mean[-1] - x_mean[-1]) / FAST.amp < 4e-7
        assert abs(whole.p_mean[-1] - p_mean[-1]) / scale < 4e-7
