"""Independent checks of qswitch outputs.

Nothing here imports qswitch.  Every expected value comes from a
computation made apart from the program: 40-digit mpmath oracles for the
matching ratio and the ascent proper time, closed forms for the switch's
postselection probabilities and for the clock's coherent-state motion, or a
property every correct output has (a solved schedule has zero matching
residual, the CSV parses back to the row values, repeated runs agree).

Each sweep check returns (failed point indices, messages); each run check
returns a list of messages, empty when the run passed.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np

C_LIGHT = 299792458.0
G_NEWTON = 6.67430e-11

#: earth preset as documented in the README (body and protocol values)
EARTH = {"mass": 5.9722e24, "radius": 6.371e6, "d": 0.3e-6}

RESIDUAL_TOL = 1e-12    # |matching residual| / tau_star of a solved schedule
ORACLE_RTOL = 1e-12     # relative agreement with the mpmath oracles
IDENTITY_RTOL = 1e-15   # sums of up to three doubles, a few ulp
PROB_ATOL = 1e-12       # switch probabilities and readout
GRID_RTOL = 1e-12       # sweep grid values against the requested grid
ORACLE_POINTS = 48      # seeded timing points checked against mpmath

FIRED_MIN = 0.95        # gate 11's trigger thresholds
READY_MIN = 0.99
NORM_DRIFT_MAX = 1e-8
VALIDITY_MIN = 10.0


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# grids and CSV

def log_grid(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def linear_grid(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _lines(text):
    """Lines of text without building a list of them."""
    start = 0
    while True:
        end = text.find("\n", start)
        if end < 0:
            yield text[start:]
            return
        yield text[start:end]
        start = end + 1


def csv_mismatches(columns, rows, csv_text):
    """Indices of rows whose CSV line does not parse back to the row values.

    Floats must round-trip exactly (17 significant digits), booleans are
    'true'/'false' and missing values empty.  A wrong header or line count
    fails every row.
    """
    lines = _lines(csv_text)
    bad = set()
    if next(lines, None) != ",".join(columns):
        return set(range(len(rows)))
    for i, row in enumerate(rows):
        line = next(lines, None)
        cells = line.split(",") if line is not None else []
        if len(cells) != len(columns):
            bad.add(i)
            continue
        for col, cell in zip(columns, cells):
            value = row.get(col)
            if value is None:
                ok = cell == ""
            elif isinstance(value, bool):
                ok = cell == ("true" if value else "false")
            elif isinstance(value, float):
                try:
                    ok = float(cell) == value
                except ValueError:
                    ok = False
            else:
                ok = cell == str(value)
            if not ok:
                bad.add(i)
                break
    if next(lines, None) != "" or next(lines, None) is not None:
        return set(range(len(rows)))
    return bad


def grid_mismatches(rows, names, grids):
    """Rows whose sweep_<name> values are not the requested grid, in order."""
    expected = [(a, b) for a in grids[0] for b in grids[1]]
    if len(rows) != len(expected):
        return set(range(len(rows)))
    bad = set()
    scale = [max(abs(v) for v in g) for g in grids]
    for i, (row, point) in enumerate(zip(rows, expected)):
        for name, want, s in zip(names, point, scale):
            if abs(row[f"sweep_{name}"] - want) > GRID_RTOL * s:
                bad.add(i)
    return bad


# ---------------------------------------------------------------------------
# timing sweep

def _mp_body(mass, radius):
    mp = mpmath.mp
    r_s = 2 * mp.mpf(G_NEWTON) * mp.mpf(mass) / mp.mpf(C_LIGHT) ** 2
    return mp.mpf(radius), r_s


def oracle_ratio(mass, radius, h):
    """s_hi / (s_hi - s_lo) at 40 digits, s(r) = sqrt(1 - R_S/r)."""
    with mpmath.workdps(40):
        big_r, r_s = _mp_body(mass, radius)
        s_hi = mpmath.sqrt(1 - r_s / (big_r + mpmath.mpf(h)))
        s_lo = mpmath.sqrt(1 - r_s / big_r)
        return float(s_hi / (s_hi - s_lo)), s_hi


def oracle_dtau_v(mass, radius, h, dt_v):
    """(1/v)[F(R+h) - F(R)], F(r) = sqrt(r(r-R_S)) - R_S ln(sqrt r + sqrt(r-R_S))."""
    with mpmath.workdps(40):
        big_r, r_s = _mp_body(mass, radius)

        def f(r):
            return mpmath.sqrt(r * (r - r_s)) - r_s * mpmath.log(
                mpmath.sqrt(r) + mpmath.sqrt(r - r_s)
            )

        h = mpmath.mpf(h)
        return float((f(big_r + h) - f(big_r)) * mpmath.mpf(dt_v) / h)


def _residual_ok(residual, dtau_c, radius, h):
    """The matching residual diff * dt_r - dtau_c of a solved schedule.

    Its two terms are of size dtau_c, so it is measured against dtau_c:
    against tau_star (dt_r/dt_c ~ 1e16 times larger) not even a wholly
    wrong dilation difference would show.  The top radius R + h is a
    double, off from R + h by up to half its ulp, and the schedule
    measures the climb as (R + h) - R while the ratio uses h, so the
    residual may reach ulp(R + h)/h of dtau_c, and no more.
    """
    return abs(residual) <= (2.0 * math.ulp(radius + h) / h + RESIDUAL_TOL) * dtau_c


def _timing_row_ok(row):
    dt_v, dt_s, dt_r, dt_c = row["dt_v"], row["dt_s"], row["dt_r"], row["dt_c"]
    return (
        abs(row["residual_over_tau_star"]) <= RESIDUAL_TOL
        and _residual_ok(row["matching_residual"], row["dtau_c"], row["radius"], row["h"])
        and row["windows_passed"] is True
        and row["warnings"] == ""
        and row["mass"] == EARTH["mass"]
        and row["radius"] == EARTH["radius"]
        and row["d"] == EARTH["d"]
        and row["h"] == row["sweep_h"]
        and row["dt_v"] == row["sweep_dt_v"]
        and 0.0 <= dt_v <= dt_r
        and _close(dt_c, EARTH["d"] / C_LIGHT, IDENTITY_RTOL)
        and _close(dt_r, dt_v + dt_s, IDENTITY_RTOL)
        # t3 = t2 + dt_v = dt_v + dt_r, then the crossing: t4 = t3 + dt_c
        and _close(row["dt_exp"], dt_v + dt_r + dt_c, IDENTITY_RTOL)
        and _close(dt_r, row["ratio_exact"] * dt_c, 1e-14)
        and (dt_v > 0.0 or row["dtau_v"] == 0.0)
    )


def _timing_oracle_ok(row):
    ratio, s_hi = oracle_ratio(row["mass"], row["radius"], row["h"])
    if not _close(row["ratio_exact"], ratio, ORACLE_RTOL):
        return False
    dtau_v = 0.0
    if row["dt_v"] > 0.0:
        dtau_v = oracle_dtau_v(row["mass"], row["radius"], row["h"], row["dt_v"])
        if not _close(row["dtau_v"], dtau_v, ORACLE_RTOL):
            return False
    with mpmath.workdps(40):
        tau_star = float(dtau_v + s_hi * mpmath.mpf(row["dt_r"]))
    return _close(row["tau_star"], tau_star, ORACLE_RTOL)


def check_timing_sweep(columns, rows, csv_text, spec, seed):
    """Failed points of one timing sweep and the reasons, at most a few.

    spec holds the requested grid (h_lo, h_hi, n_h, dtv_hi, n_dtv).  The
    mpmath oracles run on ORACLE_POINTS points drawn with `seed`, always
    including both corners of the dt_v = 0 column.
    """
    grids = (
        log_grid(spec["h_lo"], spec["h_hi"], spec["n_h"]),
        linear_grid(0.0, spec["dtv_hi"], spec["n_dtv"]),
    )
    messages = []
    bad_grid = grid_mismatches(rows, ("h", "dt_v"), grids)
    bad_csv = csv_mismatches(columns, rows, csv_text)
    bad_row = {i for i, row in enumerate(rows) if not _timing_row_ok(row)}
    picks = set(random.Random(seed).sample(range(len(rows)), min(ORACLE_POINTS, len(rows))))
    picks.update(i for i in (0, len(rows) - spec["n_dtv"]) if 0 <= i < len(rows))
    bad_oracle = {i for i in sorted(picks) if not _timing_oracle_ok(rows[i])}
    for label, bad in (("grid", bad_grid), ("csv round trip", bad_csv),
                       ("row properties", bad_row), ("mpmath oracle", bad_oracle)):
        if bad:
            messages.append(f"timing sweep: {len(bad)} points fail {label}, first {min(bad)}")
    return bad_grid | bad_csv | bad_row | bad_oracle, messages


# ---------------------------------------------------------------------------
# switch sweep

def switch_closed_form(c1a, f_ba, c1b, f_ab):
    """(zeta0, zeta1, zeta2, zeta3) probabilities for an e1 photon.

    Early branch: A then B, late branch: B then A; |d|^2 = 1 - |c|^2 and
    |g|^2 = 1 - |f|^2 are the no-absorption weights.
    """
    a, fb, b, fa = abs(c1a) ** 2, abs(f_ba) ** 2, abs(c1b) ** 2, abs(f_ab) ** 2
    d1a, g_ba, d1b, g_ab = 1.0 - a, 1.0 - fb, 1.0 - b, 1.0 - fa
    return (
        d1a * d1b,
        b * (d1a + g_ab) / 2.0,
        a * (g_ba + d1b) / 2.0,
        (a * fb + b * fa) / 2.0,
    )


def _switch_row_ok(row, c1b, f_ab):
    zetas = [row[f"zeta{z}_probability"] for z in range(4)]
    expected = switch_closed_form(row["sweep_c1a"], row["sweep_f_ba"], c1b, f_ab)
    if any(abs(z - e) > PROB_ATOL for z, e in zip(zetas, expected)):
        return False
    if abs(sum(zetas) - 1.0) > PROB_ATOL:
        return False
    plus, minus = row["zeta3_plus_probability"], row["zeta3_minus_probability"]
    if expected[3] > 0.0:
        return abs(plus - 0.5) <= PROB_ATOL and abs(minus - 0.5) <= PROB_ATOL
    return plus == 0.0 and minus == 0.0


def check_switch_sweep(columns, rows, csv_text, spec):
    """Failed points of one switch sweep against the e1 closed forms."""
    grids = (
        linear_grid(0.0, 1.0, spec["n_c1a"]),
        linear_grid(0.0, 1.0, spec["n_f_ba"]),
    )
    c1b, f_ab = complex(spec["c1b"]), complex(spec["f_ab"])
    bad_grid = grid_mismatches(rows, ("c1a", "f_ba"), grids)
    bad_csv = csv_mismatches(columns, rows, csv_text)
    bad_row = {i for i, row in enumerate(rows) if not _switch_row_ok(row, c1b, f_ab)}
    messages = []
    for label, bad in (("grid", bad_grid), ("csv round trip", bad_csv),
                       ("closed form", bad_row)):
        if bad:
            messages.append(f"switch sweep: {len(bad)} points fail {label}, first {min(bad)}")
    return bad_grid | bad_csv | bad_row, messages


# ---------------------------------------------------------------------------
# clock

def clock_reference(spec):
    """Coherent-state closed form of the clock run described by spec.

    Returns the pi/2 amplitude, crossing time, firing time, plane-wave
    reflection bound, validity factors and a function tau -> p_off.
    """
    m, omega, delta, v0, hbar = (spec[k] for k in ("m", "omega", "delta", "v0", "hbar"))
    amp = 2.0 * delta * v0 / (math.pi * hbar * omega)
    speed = omega * amp
    epsilon = delta / speed
    tau_star = math.pi / (2.0 * omega)
    energy = 0.5 * m * speed**2
    k = m * speed / hbar
    k_prime = math.sqrt(2.0 * m * (energy - v0)) / hbar
    entry = tau_star - epsilon

    def p_off(tau):
        if tau < entry:
            return 1.0
        return math.cos(v0 * (tau - entry) / hbar) ** 2

    return {
        "epsilon": epsilon,
        "tau_star": tau_star,
        "reflection": ((k - k_prime) / (k + k_prime)) ** 2,
        "factors": (amp / delta, delta / math.sqrt(hbar / (m * omega)), energy / v0),
        "p_off": p_off,
    }


def check_clock(row, taus, p_off, norms, psi_plus, psi_minus, dx, spec):
    """Gate 11's bounds on one numeric clock run, from the run's own samples.

    taus/p_off/norms are the sampled trajectory, psi_plus/psi_minus the two
    sigma_x channels at the last sample.
    """
    ref = clock_reference(spec)
    messages = []
    if min(ref["factors"]) < VALIDITY_MIN:
        messages.append(f"clock: validity factors {ref['factors']} below {VALIDITY_MIN}")
    if abs(row["rotation_angle"] - math.pi / 2.0) > 2.0 * math.ulp(math.pi / 2.0):
        messages.append(f"clock: rotation angle {row['rotation_angle']!r} is not pi/2")
    if not abs(float(taus[-1]) - ref["tau_star"]) <= 1e-12 * ref["tau_star"]:
        messages.append(f"clock: last sample {float(taus[-1])!r} is not tau_star")
    fired = float(np.sum(np.abs(psi_plus - psi_minus) ** 2)) * dx / 2.0
    norm = math.sqrt(float(np.sum(np.abs(psi_plus) ** 2 + np.abs(psi_minus) ** 2)) * dx)
    i_probe = min(range(len(taus)),
                  key=lambda i: abs(taus[i] - (ref["tau_star"] - 2.0 * ref["epsilon"])))
    if not (fired >= FIRED_MIN and row["numeric_fired"] >= FIRED_MIN):
        messages.append(f"clock: fired {fired:.6f} (row {row['numeric_fired']}) < {FIRED_MIN}")
    if not (p_off[i_probe] >= READY_MIN and row["numeric_ready"] >= READY_MIN):
        messages.append(f"clock: ready {p_off[i_probe]:.6f} < {READY_MIN}")
    drift = max(abs(float(n) - 1.0) for n in norms)
    if not (drift < NORM_DRIFT_MAX and abs(norm - 1.0) < NORM_DRIFT_MAX
            and row["numeric_norm_drift"] < NORM_DRIFT_MAX):
        messages.append(f"clock: norm drift {drift:.3g} >= {NORM_DRIFT_MAX}")
    if row["numeric_passed"] is not True:
        messages.append("clock: numeric trigger condition not passed")
    bound = max(0.05, 3.0 * ref["reflection"])
    dev = max(abs(float(q) - ref["p_off"](float(t))) for t, q in zip(taus, p_off))
    if not (dev <= bound and row["agreement_max_dev"] <= bound):
        messages.append(f"clock: closed-form deviation {dev:.4g} > {bound:.4g}")
    return messages


# ---------------------------------------------------------------------------
# single CLI runs

def _single_row(stdout, fmt):
    if fmt == "json":
        rows = json.loads(stdout)
        return rows[0] if len(rows) == 1 else None
    lines = stdout.split("\n")
    if len(lines) != 3 or lines[2] != "":
        return None
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def check_timing_run(code, stdout, fmt, lo, hi):
    """One `qswitch timing` call: exit 0, dt_exp in [lo, hi], clean schedule."""
    row = _single_row(stdout, fmt)
    if code != 0 or row is None:
        return [f"timing run: exit {code}, unparsable output"]
    messages = []
    dt_exp = float(row["dt_exp"])
    if not lo <= dt_exp <= hi:
        messages.append(f"timing run: dt_exp {dt_exp!r} outside [{lo}, {hi}]")
    residual, dtau_c, radius, h = (float(row[k]) for k in ("matching_residual", "dtau_c", "radius", "h"))
    if abs(float(row["residual_over_tau_star"])) > RESIDUAL_TOL \
            or not _residual_ok(residual, dtau_c, radius, h):
        messages.append("timing run: matching residual above tolerance")
    if str(row["windows_passed"]).lower() != "true" or row["warnings"] != "":
        messages.append("timing run: windows failed or warnings raised")
    return messages


def _parse_residual(text):
    amps = {}
    for part in text.split(";"):
        label, _, value = part.partition("=")
        amps[label] = complex(value)
    return amps


def check_switch_run(code, stdout, table_file_text=None):
    """Ideal e1 switch: zeta=3 with probability 1, read out 0.5/0.5 onto
    (e3 + e5)/sqrt(2) and (e3 - e5)/sqrt(2).  With --out, the table file
    must equal stdout."""
    if code != 0:
        return [f"switch run: exit {code}"]
    lines = stdout.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    messages = []
    if table_file_text is not None and table_file_text != stdout:
        messages.append("switch run: --out table differs from stdout")
    for row in rows:
        if abs(float(row["zeta_probability"]) - (1.0 if row["zeta"] == "3" else 0.0)) > PROB_ATOL:
            messages.append(f"switch run: zeta {row['zeta']} probability {row['zeta_probability']}")
    agents = {r["outcome"]: r for r in rows if r["zeta"] == "3" and r["mode"] == "agents"}
    inv = 1.0 / math.sqrt(2.0)
    for sign, e5 in (("+", inv), ("-", -inv)):
        r = agents.get(sign)
        if r is None or abs(float(r["outcome_probability"]) - 0.5) > PROB_ATOL:
            messages.append(f"switch run: zeta3 readout {sign} is not 0.5")
            continue
        amps = _parse_residual(r["residual"])
        if set(amps) != {"e3", "e5"} or abs(amps["e3"] - inv) > PROB_ATOL \
                or abs(amps["e5"] - e5) > PROB_ATOL:
            messages.append(f"switch run: zeta3 {sign} residual {r['residual']}")
    return messages
