"""The benchmark's output checks accept the program's output and reject
perturbed copies of it.  Small inputs only: the whole module runs in a few
seconds."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from qswitch import cli
from tracer import Tracer
from workloads import SingleRuns, SwitchSweep, TimingSweep

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def timing_sweep():
    workload = TimingSweep(3, ROOT)
    workload.spec.update(n_h=4, n_dtv=3)
    return workload, workload.run_round()


@pytest.fixture(scope="module")
def switch_sweep():
    workload = SwitchSweep(3, ROOT)
    workload.spec.update(n_c1a=3, n_f_ba=3)
    return workload, workload.run_round()


def _perturbed(output, index, column, change):
    columns, rows, _ = output
    rows = [dict(row) for row in rows]
    rows[index][column] = change(rows[index][column])
    return columns, rows, cli.format_csv(columns, rows)


def test_timing_check_accepts_program_output(timing_sweep):
    workload, output = timing_sweep
    assert workload.check(output) == (0, [])


@pytest.mark.parametrize("index, column, change, reason", [
    (4, "ratio_exact", lambda v: v * (1.0 + 1e-9), "mpmath oracle"),
    (5, "dtau_v", lambda v: v * (1.0 + 1e-9), "mpmath oracle"),
    (7, "residual_over_tau_star", lambda v: 2e-12, "row properties"),
    (6, "matching_residual", lambda v: 1e-6 * 1e-15, "row properties"),
    (8, "dt_exp", lambda v: v * (1.0 + 1e-14), "row properties"),
    (2, "warnings", lambda v: "trigger sharpness insufficient", "row properties"),
    (3, "sweep_h", lambda v: v * (1.0 + 1e-9), "grid"),
])
def test_timing_check_rejects_perturbed_point(timing_sweep, index, column, change, reason):
    workload, output = timing_sweep
    failed, messages = workload.check(_perturbed(output, index, column, change))
    assert failed == 1
    assert any(reason in m for m in messages)


def test_timing_check_rejects_csv_that_does_not_round_trip(timing_sweep):
    workload, (columns, rows, text) = timing_sweep
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    i = columns.index("dt_r")
    cells[i] = f"{float(cells[i]):.15g}"
    failed, messages = workload.check((columns, rows, "\n".join([header, ",".join(cells), rest])))
    assert failed == 1 and "csv round trip" in messages[0]


def test_switch_check_accepts_program_output(switch_sweep):
    workload, output = switch_sweep
    assert workload.check(output) == (0, [])


@pytest.mark.parametrize("column, change", [
    ("zeta0_probability", lambda v: v + 1e-9),            # sum 1 + 1e-9
    ("zeta3_probability", lambda v: v * (1.0 - 1e-6)),
    ("zeta3_plus_probability", lambda v: 0.5 + 1e-9),
])
def test_switch_check_rejects_perturbed_point(switch_sweep, column, change):
    workload, output = switch_sweep
    failed, _ = workload.check(_perturbed(output, 4, column, change))
    assert failed == 1


CLOCK = {"m": 1.0, "omega": 1.0, "hbar": 1.0, "delta": 14.0, "v0": 7.0 * math.pi}


def _clock_run(fired=0.999, drift=0.0, bump=0.0):
    """Synthetic run that follows the closed form, fired to `fired` at tau_star."""
    ref = checks.clock_reference(CLOCK)
    taus = np.append(np.linspace(0.0, ref["tau_star"], 201),
                     ref["tau_star"] - 2.0 * ref["epsilon"])
    taus.sort()
    p_off = np.array([ref["p_off"](t) for t in taus])
    p_off[-1] = 1.0 - fired
    p_off[100] += bump
    x = np.linspace(-20.0, 20.0, 4001)
    dx = x[1] - x[0]
    packet = np.exp(-x**2 / 2.0)
    packet /= math.sqrt(np.sum(packet**2) * dx)
    off, on = math.sqrt(1.0 - fired) * packet, math.sqrt(fired) * packet
    psi_plus, psi_minus = (off + on) / math.sqrt(2.0), (off - on) / math.sqrt(2.0)
    row = {
        "rotation_angle": math.pi / 2.0, "numeric_fired": fired, "numeric_ready": 1.0,
        "numeric_norm_drift": drift, "numeric_passed": fired >= 0.95,
        "agreement_max_dev": abs(bump),
    }
    norms = np.full(len(taus), 1.0 + drift)
    return row, taus, p_off, norms, psi_plus, psi_minus, dx, CLOCK


def test_clock_check_accepts_closed_form_run():
    assert checks.check_clock(*_clock_run()) == []


@pytest.mark.parametrize("kwargs, reason", [
    (dict(fired=0.9), "fired"),
    (dict(drift=2e-8), "norm drift"),
    (dict(bump=0.1), "closed-form deviation"),
])
def test_clock_check_rejects_perturbed_run(kwargs, reason):
    messages = checks.check_clock(*_clock_run(**kwargs))
    assert any(reason in m for m in messages)


def test_clock_check_rejects_rotation_off_by_three_ulp():
    row, *rest = _clock_run()
    row["rotation_angle"] = math.pi / 2.0 + 3.0 * math.ulp(math.pi / 2.0)
    assert any("rotation" in m for m in checks.check_clock(row, *rest))


def test_single_run_checks(tmp_path):
    workload = SingleRuns(3, ROOT, out_dir=tmp_path / "out")
    output = workload.run_round()
    assert workload.check(output) == (0, [])
    assert workload.run_checks() == []
    table = (tmp_path / "out" / "run_switch.csv").read_text()
    for argv, code, out, _ in output:
        if argv[0] == "switch":
            assert checks.check_switch_run(code, out, table) == []
            wrong = out.replace("e5=0.7071067811865", "e5=0.7071067821865", 1)
            assert wrong != out
            assert checks.check_switch_run(code, wrong)
            assert checks.check_switch_run(code, out, out + "x")
        elif "small-mass" in argv:
            assert checks.check_timing_run(code, out, "json", 8.0, 10.5)
        else:
            assert checks.check_timing_run(code, out, "csv", 8.0, 10.5) == []
            assert checks.check_timing_run(1, out, "csv", 8.0, 10.5)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0, 100, -1], ["inner", 10, 40, 0], ["inner", 50, 60, 0]]
    assert tracer.self_times() == {"outer": (1, 60), "inner": (2, 40)}


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
