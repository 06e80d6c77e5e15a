"""End-to-end acceptance gates for the whole package.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all).
Gate 6 separates the cancellation-safe dilation difference from any
two-square-root subtraction at h = 1 m on earth.  Both dilation factors lie
in [0.5, 1), so such a subtraction returns a whole multiple of their common
ulp u = 2**-53; the true difference there is 0.984 u, so no double result
can come closer than the one-ulp floor of ~1.6%.  The gate computes that
floor from the oracle and asserts the naive form cannot beat it, while the
safe path stays within 1e-12.  (At h <= 0.9 m the naive form is 13% to 100%
wrong, see test_spacetime.)
"""

import math
import time

import numpy as np

from qswitch.config import ScenarioConfig, apply_preset
from qswitch.cli import compute_timing
from qswitch.hilbert import PATH_EARLY, PATH_LATE, entanglement_entropy, project
from qswitch.spacetime import CODATA2018, CentralBody, dilation_difference, dilation_factor
from qswitch.switch_model import (
    E3,
    E5,
    AmplitudeModel,
    build_input,
    diagonal_measure,
    run_switch,
)
from qswitch.timing import solve_matching, solved_schedule, static_agent_tau
from qswitch.trigger import (
    GridSpec,
    TriggerParams,
    analytic_columns,
    condition_from_trajectory,
    default_grid,
    numeric_evolve,
)

from conftest import EARTH_RADIUS, random_alphas, random_model, run_qswitch
from test_spacetime import naive_difference, oracle_difference
from test_switch_model import DIMS, dense_oracle_state


def report(number, passed, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if passed else 'FAIL'}: {detail}")


def earth_config():
    return apply_preset(ScenarioConfig(), "earth", CODATA2018)


def test_criterion_01_earth_headline_duration(earth):
    start = time.perf_counter()
    row, _ = compute_timing(earth_config(), CODATA2018)
    elapsed = time.perf_counter() - start
    ok = 8.0 <= row["dt_exp"] <= 10.5 and elapsed < 1.0
    report(1, ok, f"earth dt_exp = {row['dt_exp']:.4f} s in {elapsed * 1e3:.2f} ms")
    assert 8.0 <= row["dt_exp"] <= 10.5
    assert elapsed < 1.0


def test_criterion_02_earth_prefactor(earth):
    solution = solve_matching(earth, 1.0, 0.3e-6)
    prefactor = solution.dt_r * 1.0 / 0.3e-6
    in_range = 2.9e7 <= prefactor <= 3.2e7
    pinned = abs(prefactor / 30527828.54152313 - 1.0) < 1e-8
    report(2, in_range and pinned, f"dt_r*h/d = {prefactor:.8g} s")
    assert in_range
    assert pinned


def test_criterion_03_small_mass_scenario():
    config = apply_preset(ScenarioConfig(), "small-mass", CODATA2018)
    row, _ = compute_timing(config, CODATA2018)
    ok = 4e-2 <= row["dt_exp"] <= 6e-2
    report(3, ok, f"small-mass dt_exp = {row['dt_exp']:.4g} s")
    assert ok


def test_criterion_04_static_baseline(earth):
    tau = static_agent_tau(EARTH_RADIUS, earth)
    ok = 5.5e7 <= tau <= 6.5e7
    report(4, ok, f"static-agent proper time = {tau:.4g} s (~{tau / 3.15e7:.1f} yr)")
    assert ok


def test_criterion_05_weak_field_consistency(earth):
    worst_forms = 0.0
    count = 0
    for mass_exp in (20.0, 22.5, 25.0, 27.5, 30.0):
        for ratio_exp in (3.0, 5.25, 7.5, 9.75, 12.0):
            for h_exp in (-2.0, 0.25, 2.5, 4.75):
                mass = 10.0**mass_exp
                body = CentralBody(mass, 10.0**ratio_exp *
                                   CentralBody(mass, 1e30).schwarzschild_radius)
                solution = solve_matching(body, 10.0**h_exp, 1e-6)
                gap = abs(solution.ratio_curvature_form / solution.ratio_weak_field - 1.0)
                worst_forms = max(worst_forms, gap)
                count += 1
    assert count == 100
    worst_exact = 0.0
    for h in np.logspace(-1.0, 2.0, 25):
        solution = solve_matching(earth, float(h), 0.3e-6)
        worst_exact = max(
            worst_exact, abs(solution.ratio_weak_field / solution.ratio_exact - 1.0)
        )
    ok = worst_forms < 1e-12 and worst_exact < 1e-8
    report(
        5, ok,
        f"form gap <= {worst_forms:.2e} over 100 bodies; "
        f"exact-vs-weak gap <= {worst_exact:.2e} on earth",
    )
    assert worst_forms < 1e-12
    assert worst_exact < 1e-8


def test_criterion_06_cancellation_regression(earth):
    r_hi, r_lo = EARTH_RADIUS + 1.0, EARTH_RADIUS
    safe = dilation_difference(r_hi, r_lo, earth)
    oracle = float(oracle_difference(r_hi, r_lo, earth))
    safe_tol = 1e-12
    safe_ok = abs(safe / oracle - 1.0) < safe_tol

    # Both factors lie in [0.5, 1) and share one ulp u, so any subtraction of
    # them is a whole multiple of u; the nearest multiples bound how close it
    # can come to the oracle.
    u = math.ulp(dilation_factor(r_lo, earth))
    floor = min(
        abs(k * u - oracle) / oracle
        for k in (math.floor(oracle / u), math.ceil(oracle / u))
    )
    naive = naive_difference(r_hi, r_lo, earth)
    deviation = abs(naive - oracle) / oracle
    on_grid = (naive / u).is_integer()
    naive_separated = on_grid and deviation >= floor and floor >= safe_tol * 1e9
    report(
        6, safe_ok and naive_separated,
        f"safe path within {abs(safe / oracle - 1.0):.1e} of 40-digit oracle; "
        f"naive deviation at h=1 m is {deviation:.3%} against the one-ulp floor "
        f"{floor:.3%} (oracle/u = {oracle / u:.5f})",
    )
    assert safe_ok
    # the naive form sits on the ulp grid and cannot beat the floor, which is
    # at least nine orders of magnitude above the safe path's tolerance
    assert on_grid
    assert deviation >= floor
    assert floor >= safe_tol * 1e9


def test_criterion_07_matching_residual_sweep(earth):
    worst = 0.0
    for h in np.logspace(-1.0, 3.0, 10):
        for d in np.logspace(-8.0, -5.0, 10):
            schedule = solved_schedule(earth, float(h), float(d))
            worst = max(worst, abs(schedule.matching_residual()) / schedule.tau_star)
    ok = worst < 1e-12
    report(7, ok, f"residual/tau_star <= {worst:.2e} over 100 schedules")
    assert ok


def test_criterion_08_switch_algebra():
    outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
    state3 = outcome.postselection(3).state
    results, _ = diagonal_measure(state3, "agents")
    probs_ok = all(abs(r.probability - 0.5) <= 1e-12 for r in results)
    targets_ok = True
    for res, sign in zip(results, (1.0, -1.0)):
        expected = np.zeros(5, dtype=complex)
        expected[E3] = 1.0 / math.sqrt(2.0)
        expected[E5] = sign / math.sqrt(2.0)
        targets_ok &= bool(np.allclose(res.residual.amps, expected, atol=1e-12))

    outcome4 = run_switch(build_input([0, 0, 0, 1, 0]), AmplitudeModel())
    entropy = entanglement_entropy(outcome4.pre_measurement, ("target",))
    sel2 = outcome4.postselection(2)
    _, on_e5 = project(sel2.state, {"target": E5})
    e4_ok = entropy < 1e-12 and abs(sel2.probability - 1.0) < 1e-12 and abs(on_e5 - 1.0) < 1e-12
    ok = probs_ok and targets_ok and e4_ok
    report(
        8, ok,
        f"e1 outcomes 0.5/0.5 with (e3 +/- e5)/sqrt2 targets; "
        f"e4 target entropy {entropy:.1e}",
    )
    assert probs_ok and targets_ok and e4_ok


def test_criterion_09_generic_model_oracle():
    rng = np.random.default_rng(90)
    worst_amp = 0.0
    worst_prob = 0.0
    worst_branch = 0.0
    for k in range(100):
        model = random_model(rng)
        alphas = random_alphas(rng)
        outcome = run_switch(build_input(alphas), model)
        expected = dense_oracle_state(alphas, model)
        worst_amp = max(
            worst_amp, float(np.max(np.abs(outcome.pre_measurement.amps - expected)))
        )
        worst_prob = max(worst_prob, abs(sum(outcome.zeta_probabilities) - 1.0))

        alphas[0] = 0.0
        alphas = alphas / np.linalg.norm(alphas)
        trivial = run_switch(build_input(alphas), model).pre_measurement
        tensor = trivial.amps.reshape(DIMS)
        worst_branch = max(
            worst_branch, float(np.max(np.abs(tensor[PATH_EARLY] - tensor[PATH_LATE])))
        )
    ok = worst_amp < 1e-12 and worst_prob < 1e-12 and worst_branch < 1e-12
    report(
        9, ok,
        f"dense-product oracle gap {worst_amp:.1e}; probability defect "
        f"{worst_prob:.1e}; trivial-switch branch gap {worst_branch:.1e} "
        f"(100 random models)",
    )
    assert worst_amp < 1e-12
    assert worst_prob < 1e-12
    assert worst_branch < 1e-12


def test_criterion_10_zeta3_universality():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(5):
        model = random_model(rng)
        alpha1 = 0.35 + 0.5 * rng.uniform()
        reference = None
        for _ in range(20):
            rest = rng.normal(size=4) + 1j * rng.normal(size=4)
            rest *= math.sqrt(1.0 - alpha1**2) / np.linalg.norm(rest)
            alphas = np.concatenate([[alpha1], rest])
            sel3 = run_switch(build_input(alphas), model).postselection(3)
            assert sel3.probability > 0.0
            if reference is None:
                reference = sel3.state.amps
            else:
                worst = max(worst, float(np.max(np.abs(sel3.state.amps - reference))))
    ok = worst < 1e-12
    report(10, ok, f"no-witness state drift {worst:.1e} under spectator changes")
    assert ok


def test_criterion_11_trigger():
    params = TriggerParams(m=1.0, omega=1.0, delta=20.0, v0=10.0 * math.pi, hbar=1.0)
    factors = params.validity_factors()
    assert min(factors[:2]) >= 20.0

    rotation_exact = abs(params.rotation_angle - math.pi / 2.0) <= 2.0 * math.ulp(math.pi / 2.0)

    start = time.perf_counter()
    trajectory = numeric_evolve(
        params, sample_times=(params.probe_time, params.tau_star), n_samples=50
    )
    elapsed = time.perf_counter() - start
    condition = condition_from_trajectory(params, trajectory)
    fired_ok = condition.p_fired_at_star >= 0.95
    ready_ok = condition.p_ready_before >= 0.99
    drift_ok = condition.norm_drift < 1e-8
    runtime_ok = elapsed < 60.0
    closed_form = analytic_columns(params, np.minimum(trajectory.taus, params.tau_star))[0]
    agreement = float(np.max(np.abs(closed_form - trajectory.p_off)))
    agreement_ok = agreement <= max(0.05, 3.0 * condition.reflection)

    free = TriggerParams(m=1.0, omega=1.0, delta=8.0, v0=0.0, hbar=1.0, amplitude=30.0)
    base = default_grid(free)
    fine = GridSpec(base.x_min, base.x_max, base.n_points, 1e-3)
    free_traj = numeric_evolve(free, grid=fine, tau_end=free.period, n_samples=50)
    free_dev = float(
        np.max(np.abs(free_traj.x_mean - free.amp * np.cos(free.omega * free_traj.taus)))
    ) / free.amp
    free_ok = free_dev < 1e-6

    ok = (rotation_exact and fired_ok and ready_ok and drift_ok and runtime_ok
          and free_ok and agreement_ok)
    report(
        11, ok,
        f"rotation pi/2 exact; fired {condition.p_fired_at_star:.4f}, "
        f"ready {condition.p_ready_before:.6f}, drift {condition.norm_drift:.1e}, "
        f"closed-form dev {agreement:.1e}, free-motion dev {free_dev:.1e}, "
        f"numeric run {elapsed:.0f} s",
    )
    assert rotation_exact
    assert fired_ok and ready_ok and drift_ok
    assert agreement_ok
    assert runtime_ok
    assert free_ok


def test_criterion_12_determinism(tmp_path):
    trigger_cfg = tmp_path / "trigger.cfg"
    trigger_cfg.write_text(
        "[trigger]\nm = 1.0\nomega = 1.0\ndelta = 10.0\n"
        "v0 = 15.707963267948966\nhbar = 1.0\n"
    )
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "[body]\npreset = earth\n"
        "[sweep]\ntarget = timing\nparameter = h\nmin = 0.5\nmax = 50\ncount = 7\n"
        "scale = log\n"
    )
    commands = {
        "timing": ["timing", "--preset", "earth"],
        "switch": ["switch"],
        "sweep": ["sweep", "--config", str(sweep_cfg)],
        "trigger": ["trigger", "--config", str(trigger_cfg)],
    }
    identical = True
    for name, args in commands.items():
        outputs = []
        for attempt in (1, 2):
            out_dir = tmp_path / f"{name}_{attempt}"
            result = run_qswitch(*args, "--out", str(out_dir), capture_output=True)
            assert result.returncode == 0, result.stderr
            files = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            outputs.append((result.stdout, files))
        identical &= outputs[0] == outputs[1]
    report(12, identical, "byte-identical stdout and artifacts across reruns")
    assert identical


def test_acceptance_order_is_complete():
    # the twelve gates above cover every numbered criterion exactly once
    import test_acceptance

    names = [n for n in dir(test_acceptance) if n.startswith("test_criterion_")]
    numbers = sorted(int(n.split("_")[2]) for n in names)
    assert numbers == list(range(1, 13))
