import json
import subprocess
import sys

import numpy as np
import pytest

from qswitch.config import (
    ConfigError,
    ScenarioConfig,
    SweepRange,
    apply_preset,
    parse_config,
    parse_constants,
    with_sweep_value,
)
from qswitch import cli
from qswitch.cli import main
from qswitch.hilbert import PATH_EARLY, PATH_LATE, basis_state
from qswitch.spacetime import CODATA2018, CentralBody, schwarzschild_radius
from qswitch.switch_model import (
    DETECTOR_BASES,
    DETECTOR_PATTERNS,
    DIAGONAL_BASES,
    DIAGONAL_BRANCHES,
)

from test_timing import oracle_ascent


def run_cli(*args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qswitch.cli", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


# hierarchy factors exactly (10, 10): passes thresholds, small grid
FAST_TRIGGER = """
[trigger]
m = 1.0
omega = 1.0
delta = 10.0
v0 = 15.707963267948966
hbar = 1.0
"""


class TestConfigParsing:
    def test_full_scenario(self):
        text = """
        scenario = demo
        [body]
        mass = 5.9722e24
        radius = 6.371e6
        [protocol]
        h = 2.0
        d = 1e-6   # photon separation
        dt_v = 0.5
        [switch]
        alpha = 0.6, 0, 0, 0.8, 0
        c1a = 0.8+0.6j
        delta_1a = 0.25
        [sweep]
        target = timing
        parameter = h
        min = 0.1
        max = 10
        count = 3
        scale = log
        """
        config = parse_config(text, CODATA2018)
        assert config.scenario == "demo"
        assert config.body.mass == 5.9722e24
        assert config.protocol.h == 2.0
        assert config.protocol.dt_v == 0.5
        assert config.switch.alpha == (0.6, 0, 0, 0.8, 0)
        assert config.switch.c1a == 0.8 + 0.6j
        assert config.sweep.ranges[0].parameter == "h"
        assert config.sweep.ranges[0].scale == "log"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("\n[body]\nbogus = 1\n", CODATA2018)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\n", CODATA2018)

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[protocol]\nh = 1\nd = abc\n", CODATA2018)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside any section"):
            parse_config("mass = 1\n", CODATA2018)

    @pytest.mark.parametrize("text, line", [
        ("[trigger]\nm = nan\n", 2),
        ("[body]\npreset = earth\n[protocol]\nh = nan\n", 4),
        ("[switch]\nc1a = 0.5\nalpha = nan,0,0,0,0\n", 3),
        ("[protocol]\nd = -inf\n", 2),
        ("[switch]\nf_ba = infj\n", 2),
    ])
    def test_non_finite_value_reports_line(self, text, line):
        with pytest.raises(ConfigError, match=f"line {line}: value must be finite"):
            parse_config(text, CODATA2018)

    def test_alpha_needs_five_entries(self):
        with pytest.raises(ConfigError, match="5 comma-separated"):
            parse_config("[switch]\nalpha = 1, 0\n", CODATA2018)

    def test_preset_then_override(self):
        config = parse_config("[body]\npreset = earth\n[protocol]\nh = 5\n", CODATA2018)
        assert config.body.mass == 5.9722e24
        assert config.protocol.h == 5.0
        assert config.protocol.d == 0.3e-6  # preset value survives

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("[body]\npreset = moon\n", CODATA2018)

    def test_sweep_requires_bounds(self):
        with pytest.raises(ConfigError, match="sweep max is required"):
            parse_config("[sweep]\nparameter = h\nmin = 1\ncount = 2\n", CODATA2018)

    def test_constants_file(self):
        constants = parse_constants("c = 3e8\nG = 6.7e-11\nhbar = 1e-34\n")
        assert constants.c == 3e8
        with pytest.raises(ConfigError, match="unknown constant"):
            parse_constants("k_B = 1.38e-23\n")

    def test_sweep_values_scales(self):
        linear = SweepRange("h", 1.0, 3.0, 3, "linear").values()
        assert linear == pytest.approx([1.0, 2.0, 3.0])
        log = SweepRange("h", 1.0, 100.0, 3, "log").values()
        assert log == pytest.approx([1.0, 10.0, 100.0])
        single = SweepRange("h", 7.0, 9.0, 1, "linear").values()
        assert single == [7.0]

    def test_with_sweep_value_immutability(self):
        base = apply_preset(ScenarioConfig(), "earth", CODATA2018)
        varied = with_sweep_value(base, "h", 42.0)
        assert varied.protocol.h == 42.0
        assert base.protocol.h == 1.0
        with pytest.raises(ConfigError, match="not sweepable"):
            with_sweep_value(base, "scenario", 1.0)


class TestCliCommands:
    def test_timing_earth_headline(self):
        result = run_cli("timing", "--preset", "earth")
        assert result.returncode == 0
        header, row = result.stdout.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert 8.0 <= float(cells["dt_exp"]) <= 10.5
        assert cells["scenario"] == "earth"
        assert cells["windows_passed"] == "true"

    def test_timing_small_mass(self):
        result = run_cli("timing", "--preset", "small-mass")
        header, row = result.stdout.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert 4e-2 <= float(cells["dt_exp"]) <= 6e-2

    def test_timing_requires_body(self):
        result = run_cli("timing")
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_timing_climb_near_horizon(self, tmp_path):
        # a climb that starts 1e-8 R_S above the horizon: the run must be
        # clean and its dtau_v exact
        r_s = schwarzschild_radius(1e30)
        body = CentralBody(1e30, r_s * (1.0 + 1e-8))
        cfg = tmp_path / "horizon.cfg"
        cfg.write_text(
            f"[body]\nmass = 1e30\nradius = {body.radius!r}\n"
            f"[protocol]\nh = {1e-9 * r_s!r}\nd = 1.0\ndt_v = 1e-9\n"
        )
        result = run_cli("timing", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        assert all(line.startswith("warning: ") for line in result.stderr.splitlines())
        header, row = result.stdout.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        oracle = oracle_ascent(body, float(cells["h"]), 1e-9)
        assert float(cells["dtau_v"]) == pytest.approx(float(oracle), rel=1e-14, abs=0.0)

    def test_import_leaves_scipy_out(self):
        # scipy is the clock's alone; it loads when a clock run starts
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, qswitch.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_parse_error_exit_code_and_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[protocol]\nh = oops\n")
        result = run_cli("timing", "--config", str(bad))
        assert result.returncode == 2
        assert "line 2" in result.stderr

    @pytest.mark.parametrize("command, text, line", [
        ("trigger", "[trigger]\nm = nan\n", 2),
        ("timing", "[body]\npreset = earth\n[protocol]\nh = nan\n", 4),
        ("switch", "[switch]\nalpha = nan,0,0,0,0\n", 2),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, command, text, line):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {line}: value must be finite" in captured.err

    def test_switch_default_scenario(self):
        result = run_cli("switch")
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0].startswith("scenario,zeta,")
        # 4 classes x 2 modes x 2 outcomes
        assert len(lines) == 1 + 16
        plus_row = [l for l in lines if ",3," in l and ",agents,+," in l][0]
        assert "e3=" in plus_row and "e5=" in plus_row

    def test_json_format(self):
        result = run_cli("timing", "--preset", "earth", "--format", "json")
        payload = json.loads(result.stdout)
        assert isinstance(payload, list) and len(payload) == 1
        assert 8.0 <= payload[0]["dt_exp"] <= 10.5

    def test_out_directory_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        result = run_cli("switch", "--out", str(out))
        assert result.returncode == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "run_switch.csv",
            "run_switch_report.txt",
            "run_switch_state.csv",
        ]
        assert (out / "run_switch.csv").read_text() == result.stdout

    def test_strict_turns_warnings_into_failure(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        # dtau_1 equal to the photon flight time: margin 1, warn
        cfg.write_text(
            "[body]\npreset = earth\n[protocol]\ndtau_1 = 1.0006922855944561e-15\n"
        )
        relaxed = run_cli("timing", "--config", str(cfg))
        assert relaxed.returncode == 0
        assert "warning:" in relaxed.stderr
        strict = run_cli("timing", "--config", str(cfg), "--strict")
        assert strict.returncode == 1

    def test_constants_override_via_env(self, tmp_path):
        consts = tmp_path / "constants.txt"
        consts.write_text("G = 1.33486e-10\n")  # doubled gravity
        base = run_cli("timing", "--preset", "earth")
        doubled = run_cli(
            "timing", "--preset", "earth", env={"QSWITCH_CONSTANTS": str(consts)}
        )
        header = base.stdout.split("\n")[0].split(",")
        col = header.index("schwarzschild_radius")
        r_base = float(base.stdout.split("\n")[1].split(",")[col])
        r_doubled = float(doubled.stdout.split("\n")[1].split(",")[col])
        assert r_doubled == pytest.approx(2.0 * r_base, rel=1e-5)

    def test_trigger_fast_config(self, tmp_path):
        cfg = tmp_path / "trigger.cfg"
        cfg.write_text(FAST_TRIGGER)
        result = run_cli("trigger", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 0
        header, row = result.stdout.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["rotation_angle"]) == pytest.approx(1.5707963, rel=1e-6)
        assert cells["analytic_passed"] == "true"
        assert cells["numeric_passed"] == "true"
        assert float(cells["numeric_fired"]) >= 0.95
        trajectory = (tmp_path / "o" / "run_trigger_trajectory.csv").read_text()
        assert trajectory.startswith("tau,x_mean,p_mean,p_off,p_on,norm")
        # the clock grid closes the row
        assert header.split(",")[-3:] == ["n_points", "n_steps", "dt_max"]
        assert (cells["n_points"], cells["n_steps"], cells["dt_max"]) == ("256", "383", "0.001")

    def test_explicit_schedule_with_zero_tau_star_rejected(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("[body]\npreset = earth\n[protocol]\ndt_v = 0\ndt_s = 0\n")
        result = run_cli("timing", "--config", str(cfg))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("error: explicit dt_s requires dt_v + dt_s > 0, "
                                 "got dt_v=0.0, dt_s=0.0\n")


class TestSweep:
    def test_strict_sees_point_warnings(self, tmp_path, capsys):
        # eps >= 1e-17 breaks the trigger-sharpness window on earth, exactly
        # as timing --strict reports for a single point
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = eps\nmin = 1e-19\nmax = 1e-16\n"
            "count = 4\nscale = log\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        relaxed = capsys.readouterr().err.splitlines()
        assert len(relaxed) == 2
        assert all(line.startswith("warning: sweep_eps=") for line in relaxed)
        assert all("trigger sharpness insufficient" in line for line in relaxed)
        assert main(["sweep", "--config", str(cfg), "--strict"]) == 1
        point = tmp_path / "point.cfg"
        point.write_text("[body]\npreset = earth\n[protocol]\neps = 1e-16\n")
        assert main(["timing", "--config", str(point), "--strict"]) == 1

    def test_single_point_sweep_matches_timing(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = h\nmin = 1\nmax = 1\ncount = 1\n"
        )
        sweep = run_cli("sweep", "--config", str(cfg))
        timing = run_cli("timing", "--preset", "earth")
        sweep_header, sweep_row = sweep.stdout.strip().split("\n")
        t_header, t_row = timing.stdout.strip().split("\n")
        sweep_cells = dict(zip(sweep_header.split(","), sweep_row.split(",")))
        t_cells = dict(zip(t_header.split(","), t_row.split(",")))
        for key, value in t_cells.items():
            if key == "scenario":
                continue  # sweep scenario name comes from the config
            assert sweep_cells[key] == value

    def test_monotone_dt_r_in_h(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = h\nmin = 0.1\nmax = 100\n"
            "count = 20\nscale = log\n"
        )
        result = run_cli("sweep", "--config", str(cfg))
        lines = result.stdout.strip().split("\n")
        header = lines[0].split(",")
        h_col, dt_col = header.index("sweep_h"), header.index("dt_r")
        hs = [float(l.split(",")[h_col]) for l in lines[1:]]
        dts = [float(l.split(",")[dt_col]) for l in lines[1:]]
        assert hs == sorted(hs)
        assert dts == sorted(dts, reverse=True)

    def test_linear_in_d(self, tmp_path):
        cfg = tmp_path / "dsweep.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = d\nmin = 1e-7\nmax = 3e-7\ncount = 3\n"
        )
        result = run_cli("sweep", "--config", str(cfg))
        lines = result.stdout.strip().split("\n")
        header = lines[0].split(",")
        dt_col = header.index("dt_r")
        dts = [float(l.split(",")[dt_col]) for l in lines[1:]]
        assert dts[1] == pytest.approx(2.0 * dts[0], rel=1e-12)
        assert dts[2] == pytest.approx(3.0 * dts[0], rel=1e-12)

    def test_switch_target_sweep(self, tmp_path):
        cfg = tmp_path / "swsweep.cfg"
        cfg.write_text(
            "[switch]\nalpha = 1,0,0,0,0\n"
            "[sweep]\ntarget = switch\nparameter = f_ba\nmin = 0\nmax = 1\ncount = 3\n"
        )
        result = run_cli("sweep", "--config", str(cfg))
        lines = result.stdout.strip().split("\n")
        header = lines[0].split(",")
        p3 = header.index("zeta3_probability")
        values = [float(l.split(",")[p3]) for l in lines[1:]]
        # double-scatter weight on the early branch grows with |f|^2
        assert values[0] == pytest.approx(0.5, abs=1e-12)  # only late branch
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_oversized_grid_rejected(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = h\nmin = 0.1\nmax = 10\n"
            "count = 2000\nparameter2 = d\nmin2 = 1e-7\nmax2 = 1e-6\ncount2 = 2000\n"
        )
        result = run_cli("sweep", "--config", str(cfg))
        assert result.returncode == 2
        assert "exceeds" in result.stderr

    def test_two_parameter_grid_order(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = h\nmin = 2\nmax = 1\ncount = 2\n"
            "parameter2 = d\nmin2 = 2e-7\nmax2 = 1e-7\ncount2 = 2\n"
        )
        result = run_cli("sweep", "--config", str(cfg))
        lines = result.stdout.strip().split("\n")
        pairs = [tuple(map(float, l.split(",")[:2])) for l in lines[1:]]
        assert pairs == sorted(pairs)  # ascending lexicographic order

    def test_bad_switch_point_named_before_any_evaluation(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "bad_switch.cfg"
        cfg.write_text(
            "[switch]\nalpha = 1,0,0,0,0\n"
            "[sweep]\ntarget = switch\nparameter = c1a\nmin = 0\nmax = 2\ncount = 5\n"
        )

        def evaluated(*args):
            raise AssertionError("a switch point was evaluated before all were checked")

        monkeypatch.setattr(cli, "switch_summaries", evaluated)
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep_c1a=1.5: |c1a| must be <= 1, got 1.5\n"

    def test_bad_timing_point_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad_timing.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n"
            "[sweep]\ntarget = timing\nparameter = h\nmin = -1\nmax = 1\ncount = 5\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sweep_h=-1: require h > 0")

    def test_zero_tau_star_point_named(self, tmp_path):
        # dt_v = dt_s = 0 leaves no proper time to divide the residual by
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n[protocol]\ndt_s = 0\n"
            "[sweep]\ntarget = timing\nparameter = dt_v\nmin = 0\nmax = 1\ncount = 5\n"
        )
        result = run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == ("error: sweep_dt_v=0: explicit dt_s requires "
                                 "dt_v + dt_s > 0, got dt_v=0.0, dt_s=0.0\n")
        assert not (tmp_path / "o").exists()


def _sweep_matches_switch_summary(text):
    """Run a switch sweep; every row must equal switch_summary at its point."""
    config = parse_config(text, CODATA2018)
    columns, rows, _ = cli.compute_sweep(config, CODATA2018)
    names = [rng.parameter for rng in config.sweep.ranges]
    for row in rows:
        point = config
        for name in names:
            point = with_sweep_value(point, name, row[f"sweep_{name}"])
        assert {c: row[c] for c in cli.SWITCH_SUMMARY_COLUMNS} == cli.switch_summary(point)
    return rows


class TestSwitchSweepSupport:
    """The batch evaluates only what the input reaches; rows must not care."""

    def test_all_five_photons(self):
        rows = _sweep_matches_switch_summary(
            "[switch]\nalpha = 0.2, 0.4j, -0.4, 0.6, 0.52915026221291817\n"
            "c4a = 0.3+0.4j\nc2b = 0.7\nf_ab = 0.5j\ndelta_4a = 1.1\ngamma_ab = 2.3\n"
            "[sweep]\ntarget = switch\nparameter = c1a\nmin = 0\nmax = 1\ncount = 4\n"
            "parameter2 = f_ba\nmin2 = 0\nmax2 = 1\ncount2 = 3\n"
        )
        assert len(rows) == 12
        for row in rows:
            classes = [row[f"zeta{z}_probability"] for z in range(4)]
            assert min(classes) > 0.0  # every detector pattern is reached
            assert sum(classes) == pytest.approx(1.0, abs=1e-12)

    def test_empty_no_witness_class_reads_exact_zero(self):
        with np.errstate(divide="raise", invalid="raise"):
            rows = _sweep_matches_switch_summary(
                "[switch]\nalpha = 1,0,0,0,0\nc1b = 0\n"
                "[sweep]\ntarget = switch\nparameter = c1a\nmin = 0\nmax = 1\ncount = 3\n"
            )
        empty = rows[0]
        assert empty["sweep_c1a"] == 0.0
        assert empty["zeta3_probability"] == 0.0
        assert empty["zeta3_plus_probability"] == 0.0
        assert empty["zeta3_minus_probability"] == 0.0
        for row in rows[1:]:
            assert row["zeta3_probability"] > 0.0
            readout = row["zeta3_plus_probability"] + row["zeta3_minus_probability"]
            assert readout == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# structures that depend on no input are built once per process

TIGHT_TIMING = "[body]\npreset = earth\n[protocol]\ndtau_1 = 1.0006922855944561e-15\n"
# explicit body without dtau_1 and eps: every point warns
WARNING_SWEEP = (
    "[body]\nmass = 5.9722e24\nradius = 6.371e6\n[protocol]\nh = 2.0\nd = 1e-6\n"
    "[sweep]\ntarget = timing\nparameter = h\nmin = 0.5\nmax = 5\ncount = 3\nscale = log\n"
    "parameter2 = dt_v\nmin2 = 0\nmax2 = 0.5\ncount2 = 2\n"
)


class TestOneTimeStructures:
    def _typed_commands(self, tmp_path):
        configs = {"tight": TIGHT_TIMING, "trigger": FAST_TRIGGER, "sweep": WARNING_SWEEP}
        for name, text in configs.items():
            (tmp_path / f"{name}.cfg").write_text(text)
        commands = [
            ["timing", "--preset", "earth"],
            ["timing", "--config", str(tmp_path / "tight.cfg")],
            ["switch"],
            ["trigger", "--config", str(tmp_path / "trigger.cfg")],
            ["sweep", "--config", str(tmp_path / "sweep.cfg")],
        ]
        # each command in both formats and both strictness settings, in turn
        return [command + ["--format", fmt] + strict
                for command in commands
                for fmt, strict in (("csv", []), ("json", ["--strict"]),
                                    ("json", []), ("csv", ["--strict"]))]

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        argvs = self._typed_commands(tmp_path)
        fresh = {}
        for argv in argvs:
            done = run_cli(*argv)
            fresh[tuple(argv)] = (done.returncode, done.stdout, done.stderr)
        assert any(code == 1 for code, _, _ in fresh.values())  # --strict bites
        # three passes, in turn, backwards and interleaved
        for argv in argvs + argvs[::-1] + argvs[::2] + argvs[1::2]:
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == fresh[tuple(argv)], argv
        assert cli._parser.cache_info().misses == 1

    def test_parser_built_once(self, capsys):
        for _ in range(50):
            assert main(["timing", "--preset", "earth"]) == 0
        capsys.readouterr()
        info = cli._parser.cache_info()
        assert info.misses == 1
        assert info.hits >= 49

    def test_out_texts_built_only_for_out(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("--out text built without --out")

        trigger = tmp_path / "trigger.cfg"
        trigger.write_text(FAST_TRIGGER)
        argvs = [["switch"], ["trigger", "--config", str(trigger)]]
        expected = [run_cli(*argv).stdout for argv in argvs]
        for name in ("switch_report_text", "state_csv_rows", "trajectory_rows"):
            monkeypatch.setattr(cli, name, refuse)
        for argv, out in zip(argvs, expected):
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_switch_out_writes_three_files(self, tmp_path, capsys):
        fresh = run_cli("switch", "--out", str(tmp_path / "fresh"))
        assert main(["switch", "--out", str(tmp_path / "here")]) == 0
        assert capsys.readouterr().out == fresh.stdout
        files = {p.name: p.read_text() for p in (tmp_path / "here").iterdir()}
        assert files == {p.name: p.read_text() for p in (tmp_path / "fresh").iterdir()}
        config = ScenarioConfig()
        outcome, _ = cli.compute_switch(config)
        assert files == {
            "run_switch.csv": fresh.stdout,
            "run_switch_report.txt": cli.switch_report_text(config, outcome),
            "run_switch_state.csv": cli.state_csv_rows(outcome.pre_measurement),
        }

    def test_shared_bases_are_fresh_and_read_only(self, capsys):
        for _ in range(3):
            main(["switch"])  # the bases must come out of runs unchanged
        capsys.readouterr()
        inv = 1.0 / np.sqrt(2.0)

        def path_level(factors, branch):
            return basis_state(dict(zip(factors, branch)), factors=factors)

        expected = [(path_level(("detA", "detB"), pattern),)
                    for pattern in DETECTOR_PATTERNS.values()]
        for factors, branches in (
            (("path", "agentA", "agentB"), DIAGONAL_BRANCHES),
            (("path",), ((PATH_EARLY,), (PATH_LATE,))),
        ):
            early, late = (path_level(factors, branch) for branch in branches)
            expected.append((inv * (early + late), inv * (early - late)))
        shared = list(DETECTOR_BASES) + [DIAGONAL_BASES["agents"], DIAGONAL_BASES["path"]]
        assert isinstance(DETECTOR_BASES, tuple)
        assert len(shared) == len(expected) == 6
        for basis, fresh in zip(shared, expected):
            assert isinstance(basis, tuple)
            assert [vec.factors for vec in basis] == [vec.factors for vec in fresh]
            for vec, new in zip(basis, fresh):
                assert np.array_equal(vec.amps, new.amps)
                assert not vec.amps.flags.writeable
                with pytest.raises(ValueError):
                    vec.amps[0] = 0.0
                with pytest.raises(AttributeError):
                    vec.amps = new.amps
