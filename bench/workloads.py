"""The four workloads: seeded inputs, one timed round, output checks, and a
traced pass that drives the same inputs through each layer's public
functions.

A round is the unit the benchmark repeats and times: one whole sweep
computed and formatted to CSV, one clock validation, or one call of each
single CLI command.  Its output is checked outside the timed region by
`checks`, which does not import qswitch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import time

import numpy as np
import scipy.fft

import checks
from qswitch import cli, hilbert, switch_model, timing, trigger
from qswitch.config import parse_config, with_sweep_value
from qswitch.spacetime import CODATA2018, dilation_difference


def _digest(*parts):
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else str(part).encode())
    return sha.digest()


class Workload:
    """Seeded inputs for one workload and the operations run on them."""

    name = ""
    op = ""            # what one counted operation is
    ops_per_round = 1

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root

    def config_texts(self):
        """Configuration text(s) a user would write for this workload."""
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def digest(self, output):
        """Bytes that are equal for equal outputs of a round."""
        raise NotImplementedError

    def check(self, output):
        """(failed operations, messages) for one round's output."""
        raise NotImplementedError

    def traced(self, tracer, seconds):
        """Traced pass: (outputs to check, traced ops per second, extra metrics)."""
        raise NotImplementedError

    def run_checks(self):
        """Checks of the run as a whole, outside the rounds; messages."""
        return []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sweeps

class _Sweep(Workload):
    layer_points = 0       # points of the traced layer pass
    summary_columns = []

    def _text(self):
        raise NotImplementedError

    def config_texts(self):
        return [self._text()]

    def run_round(self):
        config = parse_config(self._text(), CODATA2018)
        columns, rows, _ = cli.compute_sweep(config, CODATA2018)
        return columns, rows, cli.format_csv(columns, rows)

    def digest(self, output):
        return _digest(output[2])

    def _point(self, tracer, pt):
        """The target's row for one point configuration."""
        raise NotImplementedError

    def _layers(self, tracer, pt):
        """The target's inner layers for one point, one traced call each."""
        raise NotImplementedError

    def traced(self, tracer, seconds):
        """Each point goes through with_sweep_value, then the target's
        compute function; the rows then go through format_csv.  A stride
        subsample of the points then goes through the inner layers one call
        at a time."""
        config = parse_config(self._text(), CODATA2018)
        names = [rng.parameter for rng in config.sweep.ranges]
        grids = [sorted(rng.values()) for rng in config.sweep.ranges]
        points = [(a, b) for a in grids[0] for b in grids[1]]
        rows = []
        start = time.perf_counter()
        for values in points:
            pt = config
            for name, value in zip(names, values):
                pt = tracer.call("config.with_sweep_value", with_sweep_value, pt, name, value)
            row = self._point(tracer, pt)
            rows.append({**{f"sweep_{n}": float(v) for n, v in zip(names, values)}, **row})
        columns = [f"sweep_{n}" for n in names] + self.summary_columns
        text = tracer.call("cli.format_csv", cli.format_csv, columns, rows)
        elapsed = time.perf_counter() - start
        stride = max(1, len(points) // self.layer_points)
        for values in points[::stride]:
            pt = config
            for name, value in zip(names, values):
                pt = with_sweep_value(pt, name, value)
            self._layers(tracer, pt)
        extra = {
            "cli.csv_bytes_per_row": (len(text) - len(text.split("\n", 1)[0]) - 1) / len(rows),
            "cli.format_csv_us_per_row": _self_ns(tracer, "cli.format_csv") / len(rows) / 1e3,
        }
        return [(columns, rows, text)], len(points) / elapsed, extra


class TimingSweep(_Sweep):
    """Earth-preset h (log) x dt_v (linear from 0) grid, every point feasible."""

    name = "timing-sweep"
    op = "point"
    N_H, N_DTV = 200, 250
    layer_points = 4000
    summary_columns = cli.TIMING_COLUMNS

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(seed)
        h_lo = 10.0 ** rng.uniform(-1.0, 0.0)
        h_hi = h_lo * 10.0 ** rng.uniform(1.5, 2.0)
        # the head start shrinks with h; the weak-field ratio (R/R_S)(2R/h + 2)
        # agrees with the exact one to ~1e-9, far inside the 0.9 margin
        e = checks.EARTH
        r_s = 2.0 * checks.G_NEWTON * e["mass"] / checks.C_LIGHT**2
        dt_r_min = (e["radius"] / r_s) * (2.0 * e["radius"] / h_hi + 2.0) * e["d"] / checks.C_LIGHT
        self.spec = {
            "h_lo": h_lo, "h_hi": h_hi, "n_h": self.N_H,
            "dtv_hi": rng.uniform(0.5, 0.9) * dt_r_min, "n_dtv": self.N_DTV,
        }
        self.points = self.N_H * self.N_DTV
        self.ops_per_round = self.points

    def _text(self):
        s = self.spec
        return (
            "scenario = timing-sweep\n[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\n"
            f"parameter = h\nmin = {s['h_lo']!r}\nmax = {s['h_hi']!r}\n"
            f"count = {s['n_h']}\nscale = log\n"
            f"parameter2 = dt_v\nmin2 = 0\nmax2 = {s['dtv_hi']!r}\n"
            f"count2 = {s['n_dtv']}\nscale2 = linear\n"
        )

    def check(self, output):
        columns, rows, text = output
        bad, messages = checks.check_timing_sweep(columns, rows, text, self.spec, self.seed)
        return len(bad), messages

    def _point(self, tracer, pt):
        row, _ = tracer.call("cli.compute_timing", cli.compute_timing, pt, CODATA2018)
        return row

    def _layers(self, tracer, pt):
        body = pt.central_body(CODATA2018)
        p = pt.protocol
        tracer.call("timing.solve_matching", timing.solve_matching, body, p.h, p.d, p.dt_c)
        schedule = timing.solved_schedule(body, p.h, p.d, p.dt_c, p.dt_v)
        if p.dt_v > 0.0:
            tracer.call("timing.dtau_v", getattr, schedule, "dtau_v")
        tracer.call("timing.validate_windows", timing.validate_windows, schedule, p.dtau_1, p.eps)
        tracer.call("spacetime.dilation_difference", dilation_difference,
                    schedule.r_top, body.radius, body)


class SwitchSweep(_Sweep):
    """c1a x f_ba over [0, 1] for an e1 photon; the other amplitudes are seeded."""

    name = "switch-sweep"
    op = "point"
    N = 40
    layer_points = 200
    summary_columns = cli.SWITCH_SUMMARY_COLUMNS

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(seed)

        def disk(lo, hi):
            return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

        # |c1b f_ab| > 0 keeps zeta3 > 0 at every point, so every readout is
        # checked; c4a and c2b never act on an e1 photon but are drawn apart
        # from f_ba, so a model that confuses them fails the closed form
        self.spec = {
            "n_c1a": self.N, "n_f_ba": self.N,
            "c1b": disk(0.3, 0.95), "f_ab": disk(0.3, 0.95),
            "c4a": disk(0.1, 0.9), "c2b": disk(0.1, 0.9),
            "phases": [rng.uniform(0.0, 2.0 * math.pi) for _ in range(6)],
        }
        self.ops_per_round = self.N * self.N

    def _text(self):
        s = self.spec
        phases = "".join(
            f"{k} = {v!r}\n"
            for k, v in zip(("delta_1a", "delta_4a", "delta_1b", "delta_2b",
                             "gamma_ba", "gamma_ab"), s["phases"])
        )
        amps = "".join(f"{k} = {s[k]!r}\n" for k in ("c1b", "f_ab", "c4a", "c2b"))
        return (
            "scenario = switch-sweep\n[switch]\nalpha = 1, 0, 0, 0, 0\n"
            f"{amps}{phases}"
            "[sweep]\ntarget = switch\n"
            f"parameter = c1a\nmin = 0\nmax = 1\ncount = {s['n_c1a']}\n"
            f"parameter2 = f_ba\nmin2 = 0\nmax2 = 1\ncount2 = {s['n_f_ba']}\n"
        )

    def check(self, output):
        columns, rows, text = output
        bad, messages = checks.check_switch_sweep(columns, rows, text, self.spec)
        return len(bad), messages

    def _point(self, tracer, pt):
        return tracer.call("cli.switch_summary", cli.switch_summary, pt)

    def _layers(self, tracer, pt):
        """run_switch and its readout, one public call at a time."""
        model = cli.build_model(pt.switch)
        state = switch_model.build_input(pt.switch.alpha)
        build = "switch_model.interaction_build"
        op_a1 = tracer.call(build, switch_model.interaction_a, model, "first")
        op_b2 = tracer.call(build, switch_model.interaction_b, model, "after_a")
        op_b1 = tracer.call(build, switch_model.interaction_b, model, "first")
        op_a2 = tracer.call(build, switch_model.interaction_a, model, "after_b")
        early, _ = tracer.call("hilbert.project", hilbert.project, state, {"path": hilbert.PATH_EARLY})
        late, _ = tracer.call("hilbert.project", hilbert.project, state, {"path": hilbert.PATH_LATE})
        for op in (op_a1, op_b2):
            early = tracer.call("hilbert.apply", hilbert.apply, op, early)
        for op in (op_b1, op_a2):
            late = tracer.call("hilbert.apply", hilbert.apply, op, late)
        outcome = tracer.call("switch_model.run_switch", switch_model.run_switch, state, model)
        pattern = hilbert.basis_state({"detA": 0, "detB": 0}, factors=("detA", "detB"))
        tracer.call("hilbert.measure_in_basis", hilbert.measure_in_basis,
                    outcome.pre_measurement, [pattern])
        sel = outcome.postselection(3)
        if sel.state is not None:
            tracer.call("switch_model.diagonal_measure", switch_model.diagonal_measure,
                        sel.state, "agents")


# ---------------------------------------------------------------------------
# clock

class Clock(Workload):
    """m = omega = hbar = 1, delta = 14, v0 = 7 pi in seeded power-of-two units.

    Scaling length, time and mass by powers of two is exact in binary
    floating point, so every seed runs the same grid and the same steps on
    different inputs.
    """

    name = "clock"
    op = "clock run"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        rng = random.Random(seed)
        length, period, mass = (2.0 ** rng.randint(-6, 6) for _ in range(3))
        hbar = mass * length * length / period
        omega = 1.0 / period
        self.spec = {
            "m": mass, "omega": omega, "hbar": hbar,
            "delta": 14.0 * length, "v0": 7.0 * math.pi * hbar * omega,
        }

    def config_texts(self):
        body = "".join(f"{k} = {v!r}\n" for k, v in self.spec.items())
        return ["scenario = clock\n[trigger]\n" + body]

    def run_round(self):
        config = parse_config(self.config_texts()[0], CODATA2018)
        row, trajectory, _, _ = cli.compute_trigger(config, CODATA2018)
        return row, trajectory

    def digest(self, output):
        row, traj = output
        return _digest(sorted(row.items()), traj.taus.tobytes(), traj.p_off.tobytes(),
                       traj.final.psi_plus.tobytes(), traj.final.psi_minus.tobytes())

    def check(self, output):
        row, traj = output
        messages = checks.check_clock(
            row, traj.taus, traj.p_off, traj.norm,
            traj.final.psi_plus, traj.final.psi_minus, traj.final.dx, self.spec,
        )
        return (1 if messages else 0), messages

    def traced(self, tracer, seconds):
        config = parse_config(self.config_texts()[0], CODATA2018)
        row, traj, _, _ = tracer.call("cli.compute_trigger", cli.compute_trigger, config, CODATA2018)
        clock_s = _self_ns(tracer, "cli.compute_trigger") / 1e9
        # the same run again, one trigger call at a time
        params = tracer.call("cli.trigger_params_from_config", cli.trigger_params_from_config,
                             config, CODATA2018)
        grid = tracer.call("trigger.default_grid", trigger.default_grid, params)
        probe = max(0.0, params.tau_star - 2.0 * params.epsilon)
        again = tracer.call("trigger.numeric_evolve", trigger.numeric_evolve, params,
                            grid=grid, sample_times=(probe, params.tau_star))
        tracer.call("trigger.condition_from_trajectory", trigger.condition_from_trajectory,
                    params, again)
        taus = [float(t) for t in again.taus]
        steps = sum(max(1, math.ceil((b - a) / grid.dt_max)) for a, b in zip(taus, taus[1:]))
        evolve_s = _self_ns(tracer, "trigger.numeric_evolve") / 1e9
        work = np.exp(1j * np.linspace(0.0, 1.0, grid.n_points))
        for _ in range(100):
            tracer.call("trigger.fft_pair", _fft_pair, work)
        extra = {
            "trigger.grid_points": grid.n_points,
            "trigger.steps": steps,
            "trigger.numeric_evolve_s": evolve_s,
            "trigger.step_us": evolve_s / (2 * steps) * 1e6,
            "trigger.grid_mbytes": 2 * grid.n_points * 16 / 1e6,
        }
        return [(row, traj)], 1.0 / clock_s, extra


def _fft_pair(x):
    return scipy.fft.ifft(scipy.fft.fft(x, workers=2), workers=2)


# ---------------------------------------------------------------------------
# single CLI runs

class SingleRuns(Workload):
    """timing (earth), timing (small-mass, JSON) and switch, in-process.

    `switch --out` runs once per run, outside the timed rounds, and is
    checked there.  Creating its three files takes from 0.05 ms to 70 ms
    a file depending on the file system's state (on ext4, rewriting a
    file that holds data flushes it), against 3 ms for the whole switch
    call, so timing it would time the disk.  The switch call still builds
    the report and state texts that --out writes.
    """

    name = "single-runs"
    op = "cli.main call"
    ops_per_round = 3

    def __init__(self, seed, root, out_dir=None):
        super().__init__(seed, root)
        self.out_dir = out_dir or root / "bench" / "results" / f"single-runs-s{seed}-out"
        calls = [
            ["timing", "--preset", "earth"],
            ["timing", "--preset", "small-mass", "--format", "json"],
            ["switch"],
        ]
        # the commands are the fixed ones a user types; the seed sets their order
        random.Random(seed).shuffle(calls)
        self.calls = calls

    def config_texts(self):
        return ["[body]\npreset = earth\n", "[body]\npreset = small-mass\n", "scenario = run\n"]

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_round(self, tracer=None):
        """[(argv, exit code, stdout, stderr)]"""
        if tracer is None:
            return [(argv, *self._main(argv)) for argv in self.calls]
        return [(argv, *tracer.call(f"cli.main_{argv[0]}", self._main, argv))
                for argv in self.calls]

    def digest(self, output):
        return _digest(repr(output))

    def check(self, output):
        failed, messages = 0, []
        for argv, code, out, err in output:
            if argv[0] == "switch":
                found = checks.check_switch_run(code, out)
            elif "small-mass" in argv:
                found = checks.check_timing_run(code, out, "json", 0.04, 0.06)
            else:
                found = checks.check_timing_run(code, out, "csv", 8.0, 10.5)
            if err:
                found.append(f"{' '.join(argv)}: stderr {err.strip()!r}")
            failed += bool(found)
            messages += found
        return failed, messages

    def run_checks(self):
        """`switch --out` writes its table, report and state dump."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, out, _ = self._main(["switch", "--out", str(self.out_dir)])
        files = {name: self.out_dir / name
                 for name in ("run_switch.csv", "run_switch_report.txt", "run_switch_state.csv")}
        if not all(path.is_file() and path.stat().st_size for path in files.values()):
            return ["switch --out: missing or empty output files"]
        plain = self._main(["switch"])[1]
        messages = checks.check_switch_run(code, out, files["run_switch.csv"].read_text())
        if out != plain:
            messages.append("switch --out: stdout differs from a run without --out")
        return messages

    def traced(self, tracer, seconds):
        outputs, times = [], []
        while not times or sum(times) < seconds:
            start = time.perf_counter()
            outputs.append(self.run_round(tracer))
            times.append(time.perf_counter() - start)
        # the layers under those calls, one public call at a time
        for text in self.config_texts()[:2]:
            config = parse_config(text, CODATA2018)
            body, p = config.central_body(CODATA2018), config.protocol
            for _ in range(100):
                tracer.call("timing.solve_matching", timing.solve_matching, body, p.h, p.d)
        model = switch_model.AmplitudeModel()
        state = switch_model.build_input((1, 0, 0, 0, 0))
        for _ in range(20):
            for fn, context in ((switch_model.interaction_a, "first"),
                                (switch_model.interaction_b, "after_a"),
                                (switch_model.interaction_b, "first"),
                                (switch_model.interaction_a, "after_b")):
                tracer.call("switch_model.interaction_build", fn, model, context)
            tracer.call("switch_model.run_switch", switch_model.run_switch, state, model)
        return outputs, 3 / float(np.median(times)), {}

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def _self_ns(tracer, name):
    calls, total = tracer.self_times().get(name, (0, 0))
    return total / calls if calls else 0.0


WORKLOADS = {w.name: w for w in (TimingSweep, SwitchSweep, Clock, SingleRuns)}
