"""Command-line front end: timing, switch, trigger and sweep runs.

All numeric output is deterministic for a fixed configuration and
constants: floats are written with 17 significant digits (round-trip
exact for doubles), rows are emitted in a fixed order, and no clocks or
random sources are consulted.  The primary table goes to stdout; --out
additionally writes it to a file along with auxiliary artifacts (state
dumps, trajectory samples, a readable report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    PRESET_NAMES,
    ConfigError,
    ScenarioConfig,
    apply_preset,
    default_trigger_config,
    parse_config,
    parse_constants,
    with_sweep_value,
)
from .hilbert import state_csv_rows
from .spacetime import CODATA2018
from .switch_model import (
    AmplitudeModel,
    DiagonalResult,
    build_input,
    diagonal_measure,
    run_switch,
    switch_summaries,
)
from .timing import (
    ProtocolSchedule,
    small_mass_duration,
    solve_matching,
    solved_schedule,
    static_agent_tau,
    validate_windows,
)
from .trigger import (
    TriggerParams,
    analytic_evolve,
    check_trigger_condition,
    condition_from_trajectory,
    numeric_evolve,
    reflection_bound,
)

CONSTANTS_ENV = "QSWITCH_CONSTANTS"


# ---------------------------------------------------------------------------
# table formatting

def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def format_csv(columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def format_json(columns, rows):
    payload = [{col: row.get(col) for col in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


FORMATTERS = {"csv": format_csv, "json": format_json}


# ---------------------------------------------------------------------------
# timing

TIMING_COLUMNS = [
    "scenario", "mass", "radius", "schwarzschild_radius", "h", "d",
    "dt_c", "dt_v", "dt_s", "regime",
    "ratio_exact", "ratio_weak_field", "ratio_curvature_form", "weak_field_gap",
    "dt_r", "dt_exp", "tau_star", "dtau_v", "dtau_c",
    "matching_residual", "residual_over_tau_star",
    "small_mass_dt_r", "static_tau_surface",
    "margin_flight", "margin_decay", "margin_crossing", "windows_passed",
    "warnings",
]


def compute_timing(config, constants):
    body = config.central_body(constants)
    p = config.protocol
    if p.h is None or p.d is None:
        raise ConfigError("protocol h and d are required for timing")
    warnings = []
    solution = solve_matching(body, p.h, p.d, p.dt_c)
    if p.dt_s is None:
        schedule = solved_schedule(body, p.h, p.d, p.dt_c, p.dt_v)
    else:
        schedule = ProtocolSchedule(
            body=body, h=p.h, d=p.d, dt_v=p.dt_v, dt_s=p.dt_s, dt_c=solution.dt_c
        )
    residual = schedule.matching_residual()
    residual_rel = residual / schedule.tau_star
    if p.dt_s is not None and abs(residual_rel) > 1e-9:
        warnings.append(
            f"explicit dt_s leaves matching residual {residual_rel:.3g} of tau_star"
        )
    weak_gap = abs(solution.ratio_weak_field / solution.ratio_exact - 1.0)

    row = {
        "scenario": config.scenario,
        "mass": body.mass,
        "radius": body.radius,
        "schwarzschild_radius": body.schwarzschild_radius,
        "h": p.h,
        "d": p.d,
        "dt_c": schedule.dt_c,
        "dt_v": schedule.dt_v,
        "dt_s": schedule.dt_s,
        "regime": solution.regime,
        "ratio_exact": solution.ratio_exact,
        "ratio_weak_field": solution.ratio_weak_field,
        "ratio_curvature_form": solution.ratio_curvature_form,
        "weak_field_gap": weak_gap,
        "dt_r": schedule.dt_r,
        "dt_exp": schedule.dt_exp,
        "tau_star": schedule.tau_star,
        "dtau_v": schedule.dtau_v,
        "dtau_c": schedule.dtau_c,
        "matching_residual": residual,
        "residual_over_tau_star": residual_rel,
        "small_mass_dt_r": small_mass_duration(body, p.d),
        "static_tau_surface": static_agent_tau(body.radius, body),
    }
    if p.dtau_1 is not None and p.eps is not None:
        report = validate_windows(schedule, p.dtau_1, p.eps)
        row["margin_flight"] = report.margin_flight
        row["margin_decay"] = report.margin_decay
        row["margin_crossing"] = report.margin_crossing
        row["windows_passed"] = report.all_passed
        if not report.passed_flight:
            warnings.append(
                f"decay window does not resolve the photon flight "
                f"(margin {report.margin_flight:.3g})"
            )
        if not report.passed_decay:
            warnings.append(
                f"trigger sharpness insufficient (margin {report.margin_decay:.3g})"
            )
        if not report.passed_crossing:
            warnings.append(
                f"crossing time not negligible (margin {report.margin_crossing:.3g})"
            )
    else:
        warnings.append("interaction windows unchecked (set dtau_1 and eps)")
    row["warnings"] = "; ".join(warnings)
    return row, warnings


# ---------------------------------------------------------------------------
# switch

SWITCH_COLUMNS = [
    "scenario", "zeta", "zeta_probability", "mode", "outcome",
    "outcome_probability", "mode_remainder", "residual",
]

_FACTOR_LABELS = {
    "path": lambda i: "early" if i == 0 else "late",
    "agentA": lambda i: f"A{i}",
    "agentB": lambda i: f"B{i + 1}",
    "target": lambda i: f"e{i + 1}",
    "detA": lambda i: f"dA{i}",
    "detB": lambda i: f"dB{i}",
}


def _state_label(factors, idx):
    return ".".join(_FACTOR_LABELS[f](k) for f, k in zip(factors, idx))


def _serialize_state(state, cutoff=1e-14):
    if state is None:
        return ""
    parts = []
    for idx, amp in state.nonzero_rows(cutoff):
        parts.append(
            f"{_state_label(state.factors, idx)}="
            f"{amp.real:.17g}{amp.imag:+.17g}j"
        )
    return ";".join(parts)


def build_model(sw):
    return AmplitudeModel(
        c1a=sw.c1a, c4a=sw.c4a, c1b=sw.c1b, c2b=sw.c2b,
        f_ba=sw.f_ba, f_ab=sw.f_ab,
        delta_1a=sw.delta_1a, delta_4a=sw.delta_4a,
        delta_1b=sw.delta_1b, delta_2b=sw.delta_2b,
        gamma_ba=sw.gamma_ba, gamma_ab=sw.gamma_ab,
    )


def compute_switch(config):
    model = build_model(config.switch)
    state = build_input(config.switch.alpha)
    outcome = run_switch(state, model)
    rows = []
    for zeta in range(4):
        sel = outcome.postselection(zeta)
        for mode in ("agents", "path"):
            if sel.state is None:
                results, remainder = [DiagonalResult(sign, 0.0, None) for sign in "+-"], 0.0
            else:
                results, remainder = diagonal_measure(sel.state, mode)
            for res in results:
                rows.append({
                    "scenario": config.scenario,
                    "zeta": zeta,
                    "zeta_probability": sel.probability,
                    "mode": mode,
                    "outcome": res.sign,
                    "outcome_probability": res.probability,
                    "mode_remainder": remainder,
                    "residual": _serialize_state(res.residual),
                })
    return outcome, rows


def switch_report_text(config, outcome):
    lines = [
        f"switch run: {config.scenario}",
        f"input target amplitudes: "
        + ", ".join(f"{complex(a):.6g}" for a in config.switch.alpha),
        "",
        "pre-measurement register (amplitudes above 1e-14):",
    ]
    pre = outcome.pre_measurement
    for idx, amp in pre.nonzero_rows():
        lines.append(f"  {_state_label(pre.factors, idx):28s} {amp:.12g}")
    lines.append("")
    lines.append("postselection probabilities:")
    for sel in outcome.postselections:
        lines.append(f"  zeta={sel.zeta}: {sel.probability:.12g}")
    return "\n".join(lines) + "\n"


def switch_rows(config, models):
    """Sweep digests of `config`'s input under each model, as one batch:
    class probabilities and the no-witness class's order readout."""
    table = switch_summaries(build_input(config.switch.alpha), models)
    return [dict(zip(SWITCH_SUMMARY_COLUMNS, row)) for row in table.tolist()]


def switch_summary(config):
    """Digest of one point: a batch of one through :func:`switch_rows`."""
    return switch_rows(config, [build_model(config.switch)])[0]


SWITCH_SUMMARY_COLUMNS = [
    "zeta0_probability", "zeta1_probability", "zeta2_probability",
    "zeta3_probability", "zeta3_plus_probability", "zeta3_minus_probability",
]


# ---------------------------------------------------------------------------
# trigger

TRIGGER_COLUMNS = [
    "scenario", "m", "omega", "delta", "v0", "hbar", "amplitude",
    "sigma", "alpha0", "epsilon", "tau_star", "rotation_angle",
    "factor_amp_zone", "factor_zone_packet", "factor_energy",
    "reflection_bound",
    "analytic_ready", "analytic_fired", "analytic_passed",
    "numeric_ready", "numeric_fired", "numeric_norm_drift", "numeric_passed",
    "agreement_max_dev", "free_motion_max_dev",
    "warnings",
]


def trigger_params_from_config(config, constants):
    t = config.trigger
    if t.m is None and t.omega is None and t.delta is None and t.v0 is None:
        t = default_trigger_config(constants)
    missing = [k for k in ("m", "omega", "delta", "v0") if getattr(t, k) is None]
    if missing:
        raise ConfigError(f"trigger configuration incomplete: missing {missing}")
    return TriggerParams(
        m=t.m,
        omega=t.omega,
        delta=t.delta,
        v0=t.v0,
        hbar=t.hbar if t.hbar is not None else constants.hbar,
        amplitude=t.amplitude,
    )


def compute_trigger(config, constants):
    params = trigger_params_from_config(config, constants)
    warnings = list(params.validity_failures())

    analytic = check_trigger_condition(params, mode="analytic")
    probe = max(0.0, params.tau_star - 2.0 * params.epsilon)
    trajectory = numeric_evolve(params, sample_times=(probe, params.tau_star))
    numeric = condition_from_trajectory(params, trajectory)

    deviations = [
        abs(analytic_evolve(params, tau).p_off - p_off)
        for tau, p_off in zip(trajectory.taus, trajectory.p_off)
    ]
    agreement = max(deviations)

    free_dev = None
    if params.v0 == 0.0:
        expected = params.amp * np.cos(params.omega * trajectory.taus)
        free_dev = float(np.max(np.abs(trajectory.x_mean - expected)) / params.amp)

    if not numeric.passed:
        warnings.append("numeric trigger condition failed")

    row = {
        "scenario": config.scenario,
        "m": params.m,
        "omega": params.omega,
        "delta": params.delta,
        "v0": params.v0,
        "hbar": params.hbar,
        "amplitude": params.amp,
        "sigma": params.sigma,
        "alpha0": params.alpha0,
        "epsilon": params.epsilon,
        "tau_star": params.tau_star,
        "rotation_angle": params.rotation_angle,
        "factor_amp_zone": params.validity_factors()[0],
        "factor_zone_packet": params.validity_factors()[1],
        "factor_energy": params.validity_factors()[2],
        "reflection_bound": reflection_bound(params),
        "analytic_ready": analytic.p_ready_before,
        "analytic_fired": analytic.p_fired_at_star,
        "analytic_passed": analytic.passed,
        "numeric_ready": numeric.p_ready_before,
        "numeric_fired": numeric.p_fired_at_star,
        "numeric_norm_drift": numeric.norm_drift,
        "numeric_passed": numeric.passed,
        "agreement_max_dev": agreement,
        "free_motion_max_dev": free_dev,
        "warnings": "; ".join(warnings),
    }
    return row, trajectory, params, warnings


TRAJECTORY_COLUMNS = [
    "tau", "x_mean", "p_mean", "p_off", "p_on", "norm",
    "analytic_x_mean", "analytic_p_off", "analytic_p_on",
]


def trajectory_rows(trajectory, params):
    rows = []
    for i, tau in enumerate(trajectory.taus):
        ana = analytic_evolve(params, min(float(tau), params.tau_star))
        rows.append({
            "tau": float(tau),
            "x_mean": float(trajectory.x_mean[i]),
            "p_mean": float(trajectory.p_mean[i]),
            "p_off": float(trajectory.p_off[i]),
            "p_on": float(trajectory.p_on[i]),
            "norm": float(trajectory.norm[i]),
            "analytic_x_mean": ana.x_mean,
            "analytic_p_off": ana.p_off,
            "analytic_p_on": ana.p_on,
        })
    return rows


# ---------------------------------------------------------------------------
# sweep

MAX_SWEEP_POINTS = 1_000_000


def _at(prefix):
    """A sweep point's values, as its warnings and errors name it."""
    return ", ".join(f"{k}={v:.17g}" for k, v in prefix.items())


def compute_sweep(config, constants):
    ranges = config.sweep.ranges
    if not 1 <= len(ranges) <= 2:
        raise ConfigError("sweep needs one or two parameter ranges")
    total = 1
    for rng in ranges:
        total *= rng.count
    if total > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid of {total} points exceeds {MAX_SWEEP_POINTS}")

    grids = [sorted(rng.values()) for rng in ranges]
    names = [rng.parameter for rng in ranges]
    target = config.sweep.target

    if len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(v1, v2) for v1 in grids[0] for v2 in grids[1]]

    rows, warnings, models = [], [], []
    for values in points:
        pt_config = config
        for name, value in zip(names, values):
            pt_config = with_sweep_value(pt_config, name, value)
        prefix = {f"sweep_{n}": float(v) for n, v in zip(names, values)}
        try:
            if target == "timing":
                row, point_warnings = compute_timing(pt_config, constants)
                if point_warnings:
                    warnings.extend(f"{_at(prefix)}: {message}" for message in point_warnings)
                rows.append({**prefix, **row})
            else:
                models.append(build_model(pt_config.switch))
                rows.append(prefix)
        except ValueError as exc:
            raise ConfigError(f"{_at(prefix)}: {exc}") from None
    if target == "switch":
        # every point's model is valid before any point is evaluated
        rows = [{**prefix, **row} for prefix, row in zip(rows, switch_rows(config, models))]
    param_cols = [f"sweep_{n}" for n in names]
    if target == "timing":
        columns = param_cols + TIMING_COLUMNS
    else:
        columns = param_cols + SWITCH_SUMMARY_COLUMNS
    return columns, rows, warnings


# ---------------------------------------------------------------------------
# driver

def _load_constants():
    path = os.environ.get(CONSTANTS_ENV)
    if not path:
        return CODATA2018
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read constants file {path!r}: {exc}") from None
    return parse_constants(text)


def _resolve_config(args, constants):
    config = ScenarioConfig()
    if args.preset:
        apply_preset(config, args.preset, constants)
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        parse_config(text, constants, config)
    return config


def _emit(args, config, command, columns, rows, extras=()):
    text = FORMATTERS[args.format](columns, rows)
    sys.stdout.write(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        ext = args.format
        (out_dir / f"{config.scenario}_{command}.{ext}").write_text(text)
        for filename, content in extras:
            (out_dir / filename).write_text(content)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qswitch",
        description=(
            "Deterministic simulator for a proper-time-matched quantum switch "
            "near a spherical mass"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "timing": "solve the path-matching schedule and report durations",
        "switch": "run the agent-photon protocol with postselection",
        "trigger": "validate the oscillator clock analytically and numerically",
        "sweep": "grid-evaluate timing or switch outputs",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario configuration file")
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
        p.add_argument("--out", help="directory for output artifacts")
        p.add_argument("--strict", action="store_true",
                       help="exit nonzero when warnings are raised")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        constants = _load_constants()
        config = _resolve_config(args, constants)
        if args.command == "timing":
            row, warnings = compute_timing(config, constants)
            _emit(args, config, "timing", TIMING_COLUMNS, [row])
        elif args.command == "switch":
            outcome, rows = compute_switch(config)
            extras = [
                (f"{config.scenario}_switch_report.txt",
                 switch_report_text(config, outcome)),
                (f"{config.scenario}_switch_state.csv",
                 state_csv_rows(outcome.pre_measurement)),
            ]
            warnings = []
            _emit(args, config, "switch", SWITCH_COLUMNS, rows, extras)
        elif args.command == "trigger":
            row, trajectory, params, warnings = compute_trigger(config, constants)
            extras = [
                (f"{config.scenario}_trigger_trajectory.csv",
                 format_csv(TRAJECTORY_COLUMNS, trajectory_rows(trajectory, params))),
            ]
            _emit(args, config, "trigger", TRIGGER_COLUMNS, [row], extras)
        else:
            columns, rows, warnings = compute_sweep(config, constants)
            _emit(args, config, "sweep", columns, rows)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    if args.strict and warnings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
