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
import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from functools import cache
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
from .hilbert import DUMP_CUTOFF
from .spacetime import CODATA2018, check_domain, check_warnings, each_distinct, point_failures
from .switch_model import (
    AmplitudeModel,
    build_input,
    run_switch,
    switch_summaries,
)
from .timing import (
    ProtocolSchedule,
    small_mass_duration,
    solve_matching,
    static_agent_tau,
    validate_windows,
)
from .trigger import (
    TriggerParams,
    analytic_columns,
    check_trigger_condition,
    condition_from_trajectory,
    numeric_evolve,
    reflection_bound,
)

CONSTANTS_ENV = "QSWITCH_CONSTANTS"


# ---------------------------------------------------------------------------
# table formatting

#: rows computed, formatted and written at a time; a sweep's memory is
#: bounded by this, not by its grid
CHUNK_ROWS = 10_000


def _cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_cell(value):
    """A value as json.dumps writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _cells(column, n, cell):
    """The n cells of a column: a tuple of values, or a numpy column whose
    values are each formatted once however often they repeat."""
    if isinstance(column, tuple):
        return list(map(cell, column))
    if column is None:
        return [cell(None)] * n
    return each_distinct(lambda values: list(map(cell, values.tolist())), column, object).tolist()


#: arrays shorter than this go to Python's "%.17g", faster below about 200 values
VECTOR_MIN = 200
_POWERS = range(-300, 301)  # the s of each 10**s that _format_17g scales by


@cache  # built on the first call, not at import, and kept for the process
def _digit_tables():
    """10**s = hi + lo for each s in _POWERS (each rounded correctly from integers),
    the text of 0000..9999, and the characters to print of each layout."""
    ratios = [(10**s, 1) if s >= 0 else (1, 10**-s) for s in _POWERS]
    his = [num / den for num, den in ratios]
    los = [(num * d - n * den) / (den * d)
           for (num, den), (n, d) in zip(ratios, map(float.as_integer_ratio, his))]
    # a row indexes a value's 28 characters: 0 "0", 1 the suffix, 3-19 its digits,
    # 20 the exponent's sign, 21-23 its digits, 24-26 "e-." and 27 none; one row
    # per sign, exponent e from -4 (17, 18: scientific with 2, 3 exponent digits)
    # and count k of digits kept
    digits, rows = list(range(3, 20)), []
    for sign, e, k in itertools.product(([], [25]), range(-4, 19), range(1, 18)):
        whole, part, tail = ((digits[:1], digits[1:k], [24, 20] + [21, 22, 23][18 - e:]) if e > 16
                             else ([0], [0] * (-1 - e) + digits[:k], []) if e < 0
                             else (digits[:e + 1], digits[e + 1:k], []))
        row = sign + whole + [26] * bool(part) + part + tail
        rows.append(row + [1] + [27] * (24 - len(row)))
    return (np.array(his), np.array(los), np.array([f"{g:04d}" for g in range(10**4)], "S4"),
            np.array(rows, np.intp))


def _split(v):
    """v = hi + lo, each of 26 significant bits at most (Dekker)."""
    big = v * 134217729.0  # 2**27 + 1
    hi = big - (big - v)
    return hi, v - hi


def _format_17g(x, end=""):
    """["%.17g" % v + end for v in x] of a float64 array, end one character at
    most, in numpy: y = |x| 10**s is yh + yl by Dekker's exact product with 10**s
    = hi + lo (error below 2**-46), and its digits are y rounded to an integer.
    Python formats short arrays, values outside [1e-280, 1e280] (zeros, inf,
    nan), and any y not strictly between 1e16 and 1e17 or within 2**-30 of a tie."""
    if len(x) < VECTOR_MIN:
        return list(map(("%.17g" + end).__mod__, x.tolist()))
    his, los, quads, layouts = _digit_tables()
    ok = (abs(x) >= 1e-280) & (abs(x) <= 1e280)
    a = np.where(ok, abs(x), 1.0)
    ah, al = _split(a)
    s = 16 - np.floor(np.log10(a)).astype(int)  # one off next to a power of ten
    hi, lo = his[s - _POWERS.start], los[s - _POWERS.start]
    hh, hl = _split(hi)
    p = a * hi
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    yh = p + t
    yl = t - (yh - p)
    ok &= (1e16 < yh) & (yh < 1e17) & (abs(yl - np.floor(yl) - 0.5) >= 2.0**-30)
    n, e = yh.astype(np.int64) + np.rint(yl).astype(np.int64), 16 - s
    blocks = np.empty((len(x), 7), "S4")  # the characters _digit_tables' rows index
    for j in range(4, 0, -1):
        q = n // 10**4
        blocks[:, j], n = quads[n - q * 10**4], q
    blocks[:, 0], blocks[:, 5], blocks[:, 6] = quads[n], quads[abs(e)], b"e-."
    chars = blocks.view(np.uint8)
    chars[:, 1], chars[:, 20] = ord(end or "\0"), np.where(e < 0, ord("-"), ord("+"))
    k = 17 - np.argmax(chars[:, 19:2:-1] != ord("0"), axis=1)
    layout = np.where((e < -4) | (e > 16), 17 + (abs(e) > 99), e) + 4
    index = layouts.take(((x < 0) * 23 + layout) * 17 + k - 1, axis=0)
    index += np.arange(0, chars.size, 28)[:, None]
    out = chars.ravel().take(index).astype("<u4").view("<U25").ravel()
    out[~ok] = [("%.17g" + end) % v for v in x[~ok].tolist()]
    return out.tolist()


def _chunks(columns, rows):
    """(row count, {column: values}) for each chunk of at most CHUNK_ROWS rows;
    a plain list of row dicts is transposed into its columns."""
    if isinstance(rows, SweepTable):
        yield from rows.chunks()
        return
    for lo in range(0, len(rows), CHUNK_ROWS):
        part = rows[lo:lo + CHUNK_ROWS]
        yield len(part), dict(zip(columns, zip(*([row.get(col) for col in columns] for row in part))))


#: adjacent columns share a run group while at most 1/RUN_SHARE of the rows change one
RUN_SHARE = 16


def _csv_cells(column, end):
    """Each row's CSV cell of a numpy column then end, each distinct value (floats by bits) once."""
    floats = column.dtype == float
    distinct, where = np.unique(column.view(np.int64) if floats else column, return_inverse=True)
    values = column if len(distinct) == len(column) else distinct.view(column.dtype)
    texts = _format_17g(values, end) if floats else [_cell(value) + end for value in values.tolist()]
    return texts if values is column else np.array(texts, object)[where].tolist()


def _csv_rows(columns, chunk, n):
    """The CSV text of n >= 2 rows of numpy columns, one join of cells that end in their
    separators; a run group's text is made once per run of rows none of its columns changes in."""
    groups, few = [], n // RUN_SHARE  # [columns, the rows at which one changes]
    for name in columns:
        column = chunk.get(name, np.broadcast_to(np.array(""), n))
        key = column.view(np.int64) if column.dtype == float else column
        changed = key[1:] != key[:-1]
        if groups and np.count_nonzero(groups[-1][1] | changed) <= few:
            groups[-1] = [groups[-1][0] + [column], groups[-1][1] | changed]
        else:  # a column that changes more often is a group of its own
            groups.append([[column], changed])
    flat = [None] * (len(groups) * n)
    for g, (group, changed) in enumerate(groups):
        end = "," if g < len(groups) - 1 else "\n"
        if np.count_nonzero(changed) > few:
            flat[g::len(groups)] = _csv_cells(group[0], end)
            continue
        starts = np.flatnonzero(np.concatenate(([True], changed)))
        runs = [",".join(cells) + end for cells in zip(*(_csv_cells(c[starts], "") for c in group))]
        flat[g::len(groups)] = np.repeat(np.array(runs, object), np.diff(starts, append=n)).tolist()
    return "".join(flat)


def _csv_pieces(columns, rows):
    yield ",".join(columns) + "\n"
    for n, chunk in _chunks(columns, rows):
        if n >= 2 and isinstance(rows, SweepTable):
            yield _csv_rows(columns, chunk, n)
            continue
        cells = [_cells(chunk.get(col), n, _cell) for col in columns]  # row dicts, or one row
        yield "".join(",".join(row) + "\n" for row in zip(*cells))


def _json_pieces(columns, rows):
    """The pieces of json.dumps(rows as dicts, indent=2) + newline."""
    keys = list(dict.fromkeys(columns))
    template = "  {\n" + ",\n".join(
        f"    {json.dumps(key).replace('%', '%%')}: %s" for key in keys
    ) + "\n  }"
    opening = "[\n"
    for n, chunk in _chunks(columns, rows):
        cells = [_cells(chunk.get(key), n, _json_cell) for key in keys]
        yield opening + ",\n".join(map(template.__mod__, zip(*cells)))
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


WRITERS = {"csv": _csv_pieces, "json": _json_pieces}


def format_csv(columns, rows):
    return "".join(_csv_pieces(columns, rows))


class SweepTable:
    """A sweep's rows, computed as they are read.

    chunks() computes each chunk of CHUNK_ROWS rows as it is read, and
    iteration gives its rows as dicts of Python values; indexing
    (0 <= i < len) computes point i alone.  Nothing is kept between reads,
    so memory stays bounded by the chunk being read whatever the grid.
    """

    def __init__(self, n, compute):
        self._n = n
        self._compute = compute  # (lo, hi) -> {column: numpy column of hi - lo points}

    def __len__(self):
        return self._n

    def chunks(self):
        for lo in range(0, self._n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, self._n)
            yield hi - lo, self._compute(lo, hi)

    def __iter__(self):
        for _, chunk in self.chunks():
            names = list(chunk)
            for values in zip(*(chunk[name].tolist() for name in names)):
                yield dict(zip(names, values))

    def __getitem__(self, i):
        if not 0 <= i < self._n:
            raise IndexError("sweep row index out of range")
        return {name: column.tolist()[0] for name, column in self._compute(i, i + 1).items()}


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


def _timing_columns(config, constants):
    """TIMING_COLUMNS but warnings, for a config whose body and protocol
    values may be sweep columns, and each point's warning checks, as
    (bad, template, *values) like check_domain's."""
    body = config.central_body(constants)
    p = config.protocol
    if p.h is None or p.d is None:
        raise ConfigError("protocol h and d are required for timing")
    solution = solve_matching(body, p.h, p.d, p.dt_c)
    if p.dt_s is None:
        schedule = solution.schedule(p.dt_v)
    else:
        schedule = ProtocolSchedule(
            body=body, h=p.h, d=p.d, dt_v=p.dt_v, dt_s=p.dt_s, dt_c=solution.dt_c
        )
        check_domain((schedule.dt_r <= 0, "explicit dt_s requires dt_v + dt_s > 0, "
                      "got dt_v={}, dt_s={}", p.dt_v, p.dt_s))
    residual = schedule.matching_residual()
    tau_star = schedule.tau_star
    residual_rel = residual / tau_star
    checks = []
    if p.dt_s is not None:
        checks.append((abs(residual_rel) > 1e-9,
                       "explicit dt_s leaves matching residual {:.3g} of tau_star", residual_rel))
    columns = {
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
        "weak_field_gap": abs(solution.ratio_weak_field / solution.ratio_exact - 1.0),
        "dt_r": schedule.dt_r,
        "dt_exp": schedule.t4,
        "tau_star": tau_star,
        "dtau_v": schedule.dtau_v,
        "dtau_c": schedule.dtau_c,
        "matching_residual": residual,
        "residual_over_tau_star": residual_rel,
        "small_mass_dt_r": small_mass_duration(body, p.d),
        "static_tau_surface": static_agent_tau(body.radius, body),
    }
    if p.dtau_1 is not None and p.eps is not None:
        report = validate_windows(schedule, p.dtau_1, p.eps)
        columns["margin_flight"] = report.margin_flight
        columns["margin_decay"] = report.margin_decay
        columns["margin_crossing"] = report.margin_crossing
        columns["windows_passed"] = report.all_passed
        checks += [
            (np.logical_not(report.passed_flight),
             "decay window does not resolve the photon flight (margin {:.3g})",
             report.margin_flight),
            (np.logical_not(report.passed_decay),
             "trigger sharpness insufficient (margin {:.3g})", report.margin_decay),
            (np.logical_not(report.passed_crossing),
             "crossing time not negligible (margin {:.3g})", report.margin_crossing),
        ]
    else:
        checks.append((True, "interaction windows unchecked (set dtau_1 and eps)"))
    return columns, checks


def compute_timing(config, constants):
    """One point's row and warnings: a batch of one through the sweep's columns."""
    columns, checks = _timing_columns(config, constants)
    row = {name: value.item() if isinstance(value, (np.ndarray, np.generic)) else value
           for name, value in columns.items()}
    warnings = check_warnings(checks)
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


def _serialize_state(state):
    if state is None:
        return ""
    return ";".join(f"{_state_label(state.factors, idx)}={amp.real:.17g}{amp.imag:+.17g}j"
                    for idx, amp in state.nonzero_rows())


def build_model(sw):
    return AmplitudeModel(**{f.name: getattr(sw, f.name) for f in fields(AmplitudeModel)})


def compute_switch(config):
    outcome = run_switch(build_input(config.switch.alpha), build_model(config.switch))
    modes = ("agents", "path")
    readouts = [outcome.readout(mode) for mode in modes]
    rows = []
    for zeta, sel in enumerate(outcome.postselections):
        for mode, readout in zip(modes, readouts):
            results, remainder = readout[zeta]
            rows += [dict(zip(SWITCH_COLUMNS, (
                config.scenario, zeta, sel.probability, mode, sign, res.probability,
                remainder, _serialize_state(res.state)))) for sign, res in zip("+-", results)]
    return outcome, rows


def switch_report_text(config, outcome):
    lines = [
        f"switch run: {config.scenario}",
        f"input target amplitudes: "
        + ", ".join(f"{complex(a):.6g}" for a in config.switch.alpha),
        "",
        f"pre-measurement register (amplitudes above {DUMP_CUTOFF:g}):",
    ]
    pre = outcome.pre_measurement
    for idx, amp in pre.nonzero_rows():
        lines.append(f"  {_state_label(pre.factors, idx):28s} {amp:.12g}")
    lines.append("")
    lines.append("postselection probabilities:")
    for zeta, sel in enumerate(outcome.postselections):
        lines.append(f"  zeta={zeta}: {sel.probability:.12g}")
    return "\n".join(lines) + "\n"


def state_csv(state):
    """The register dump: one row per amplitude above DUMP_CUTOFF."""
    columns = list(state.factors) + ["re", "im"]
    return format_csv(columns, [dict(zip(columns, (*idx, amp.real, amp.imag)))
                                for idx, amp in state.nonzero_rows()])


SWITCH_SUMMARY_COLUMNS = [
    "zeta0_probability", "zeta1_probability", "zeta2_probability",
    "zeta3_probability", "zeta3_plus_probability", "zeta3_minus_probability",
]


def _switch_columns(config, n):
    """SWITCH_SUMMARY_COLUMNS of n points, whose amplitudes may be sweep
    columns: class probabilities and the no-witness class's order readout."""
    table = switch_summaries(build_input(config.switch.alpha),
                             build_model(config.switch).coefficient_rows(n))
    return dict(zip(SWITCH_SUMMARY_COLUMNS, table.T))


def switch_summary(config):
    """Sweep digest of one point: a batch of one through the sweep's columns."""
    return {name: column.item() for name, column in _switch_columns(config, 1).items()}


# ---------------------------------------------------------------------------
# trigger

def trigger_params_from_config(config, constants):
    t = config.trigger
    if all(value is None for value in vars(t).values()):
        t = default_trigger_config(constants)
    missing = [f.name for f in fields(TriggerParams)
               if f.default is MISSING and getattr(t, f.name) is None]
    if missing:
        raise ConfigError(f"trigger configuration incomplete: missing {missing}")
    return TriggerParams(**{**vars(t), "hbar": constants.hbar if t.hbar is None else t.hbar})


def compute_trigger(config, constants):
    params = trigger_params_from_config(config, constants)
    analytic = check_trigger_condition(params)
    trajectory = numeric_evolve(params, sample_times=(params.probe_time, params.tau_star))
    numeric = condition_from_trajectory(params, trajectory)

    agreement = float(np.max(np.abs(analytic_columns(params, trajectory.taus)[0]
                                    - trajectory.p_off)))

    free_dev = None
    if params.v0 == 0.0:
        expected = params.amp * np.cos(params.omega * trajectory.taus)
        free_dev = float(np.max(np.abs(trajectory.x_mean - expected)) / params.amp)

    warnings = check_warnings(params.validity_checks()
                              + [(not numeric.passed, "numeric trigger condition failed")])

    amp_zone, zone_packet, energy = params.validity_factors()
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
        "factor_amp_zone": amp_zone,
        "factor_zone_packet": zone_packet,
        "factor_energy": energy,
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
        "n_points": trajectory.grid.n_points,
        "n_steps": trajectory.n_steps,
        "dt_max": trajectory.grid.dt_max,
    }
    return row, trajectory, params, warnings


TRAJECTORY_COLUMNS = [
    "tau", "x_mean", "p_mean", "p_off", "p_on", "norm",
    "analytic_x_mean", "analytic_p_off", "analytic_p_on",
]


def trajectory_rows(trajectory, params):
    p_off, p_on, x_mean = analytic_columns(params, trajectory.taus)
    t = trajectory
    columns = (t.taus, t.x_mean, t.p_mean, t.p_off, t.p_on, t.norm, x_mean, p_off, p_on)
    return [dict(zip(TRAJECTORY_COLUMNS, row)) for row in zip(*(c.tolist() for c in columns))]


# ---------------------------------------------------------------------------
# sweep

def _checked(compute, lo, hi, name_of):
    """compute(lo, hi), or a ConfigError naming the first of the points lo..hi
    that fails, with the first check that point fails.

    A check raises at the first point it rejects among those that passed
    the checks before it, so an earlier point may still fail a later check:
    the points before the one found are computed again until none fails.
    """
    end = hi
    while True:
        try:
            result = compute(lo, end)
        except ValueError as exc:
            error, end = exc, lo + getattr(exc, "index", 0)
            if end > lo:
                continue
        if end == hi:
            return result
        raise ConfigError(f"{name_of(end)}: {error}") from None


def compute_sweep(config, constants):
    """(columns, rows, warnings) of a sweep; rows is a SweepTable.

    Every point is checked before this returns, so a bad point stops the
    run before any row is written; the check pass only finds whether any
    timing point warns, and formats no message.  warnings is an empty list,
    or an iterator that makes the warnings a chunk at a time, so that none
    are held.
    """
    ranges = config.sweep.ranges
    if not 1 <= len(ranges) <= 2:
        raise ConfigError("sweep needs one or two parameter ranges")
    total = math.prod(rng.count for rng in ranges)
    grids = [np.array(sorted(rng.values()), dtype=float) for rng in ranges]
    names = [rng.parameter for rng in ranges]
    target = config.sweep.target
    columns = [f"sweep_{n}" for n in names]
    columns += TIMING_COLUMNS if target == "timing" else SWITCH_SUMMARY_COLUMNS

    def points(lo, hi):
        """(the sweep_* columns of points lo..hi, their config), each axis
        indexed by mixed radix; a later axis over one parameter wins in both."""
        at, stride, chunk, point = np.arange(lo, hi), total, {}, config
        for name, grid in zip(names, grids):
            stride //= len(grid)
            chunk[f"sweep_{name}"] = grid[at // stride % len(grid)]
            point = with_sweep_value(point, name, chunk[f"sweep_{name}"])
        return chunk, point

    def point_name(chunk, i):
        """Point i of a chunk as warnings and errors name it."""
        return ", ".join(f"{key}={chunk[key][i].item():.17g}"
                         for key in dict.fromkeys(columns[:len(names)]))

    def name_of(i):
        return point_name(points(i, i + 1)[0], 0)

    spans = [(lo, min(lo + CHUNK_ROWS, total)) for lo in range(0, total, CHUNK_ROWS)]
    if target == "switch":
        for lo, hi in spans:
            _checked(lambda lo, hi: build_model(points(lo, hi)[1].switch), lo, hi, name_of)
        build_input(config.switch.alpha)  # a bad alpha, too, stops the run before any row

        def summaries(lo, hi):
            chunk, point = points(lo, hi)
            chunk.update(_switch_columns(point, hi - lo))
            return chunk

        return columns, SweepTable(total, summaries), []

    def compute(lo, hi):
        """(the table's columns but warnings, the warning checks) of points lo..hi."""
        chunk, point = points(lo, hi)
        table, checks = _timing_columns(point, constants)
        chunk.update((name, np.broadcast_to(value, (hi - lo,))) for name, value in table.items())
        return chunk, checks

    warned = False
    for lo, hi in spans:
        warned |= any(np.any(bad) for bad, *_ in _checked(compute, lo, hi, name_of)[1])

    def warnings():
        for lo, hi in spans:
            chunk, checks = compute(lo, hi)
            for i, messages in point_failures(checks, hi - lo):
                yield from (f"{point_name(chunk, i)}: {message}" for message in messages)

    def rows(lo, hi):
        chunk, checks = compute(lo, hi)
        texts = [""] * (hi - lo)
        for i, messages in point_failures(checks, hi - lo):
            texts[i] = "; ".join(messages)
        chunk["warnings"] = np.array(texts) if any(texts) else np.broadcast_to(np.array(""), hi - lo)
        return chunk

    return columns, SweepTable(total, rows), warnings() if warned else []


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
    """Write the table to stdout, and with --out to its file, a chunk at a time."""
    sinks = [sys.stdout]
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        sinks.append(open(out_dir / f"{config.scenario}_{command}.{args.format}", "w"))
    try:
        for piece in WRITERS[args.format](columns, rows):
            for sink in sinks:
                sink.write(piece)
    finally:
        for sink in sinks[1:]:
            sink.close()
    for filename, content in extras:
        (out_dir / filename).write_text(content)


@cache  # built on the first call, not at import, and kept for the process
def _parser():
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
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

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
                 state_csv(outcome.pre_measurement)),
            ] if args.out else ()
            warnings = []
            _emit(args, config, "switch", SWITCH_COLUMNS, rows, extras)
        elif args.command == "trigger":
            row, trajectory, params, warnings = compute_trigger(config, constants)
            extras = [
                (f"{config.scenario}_trigger_trajectory.csv",
                 format_csv(TRAJECTORY_COLUMNS, trajectory_rows(trajectory, params))),
            ] if args.out else ()
            _emit(args, config, "trigger", list(row), [row], extras)
        else:
            columns, rows, warnings = compute_sweep(config, constants)
            _emit(args, config, "sweep", columns, rows)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    if args.strict and warnings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
