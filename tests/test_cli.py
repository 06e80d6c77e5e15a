import dataclasses
import json
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from qswitch.config import (
    SECTION_OF,
    SWEEPABLE,
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
from qswitch.hilbert import DUMP_CUTOFF, SWITCH_FACTORS, StateVector
from qswitch.spacetime import CODATA2018, CentralBody, schwarzschild_radius
from qswitch.switch_model import AmplitudeModel
from qswitch.trigger import TriggerParams, default_grid

from conftest import run_qswitch
from test_timing import oracle_ascent
from test_trigger import steps_by_rule

#: committed expected output of runs that use only correctly rounded
#: operations (products, sums, sqrt, exp(0)), so it holds on any platform
PINS = Path(__file__).resolve().parent / "pins"

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(language):
    """The fenced code blocks of README.md in one language."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


#: the `qswitch ...` lines of the README's shell blocks, as argv lists
README_COMMANDS = [line.split("#")[0].split()[1:]
                   for block in _readme_blocks("sh") for line in block.splitlines()
                   if line.startswith("qswitch ")]


def run_cli(*args, env=None):
    return run_qswitch(*args, env=env, capture_output=True, text=True)


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of an in-process run; every stderr line
    must be a warning or an error."""
    code = main(argv)
    captured = capsys.readouterr()
    for line in captured.err.splitlines():
        assert line.startswith(("warning: ", "error: ")), line
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("text, line, key, first", [
        ("[body]\npreset = earth\n[protocol]\nh = 1\nh = 5\n", 5, "h", 4),
        # the same section opened again, the key in another case
        ("[protocol]\nh = 1\n[body]\nmass = 1\n[protocol]\nH = 1\n", 6, "h", 2),
        ("scenario = a\n# again\nscenario = b\n[body]\nmass = 1\n", 3, "scenario", 1),
        ("[body]\npreset = earth\npreset = small-mass\n", 3, "preset", 2),
        ("[sweep]\ntarget = timing\nparameter = h\ntarget = switch\n", 4, "target", 2),
        ("[sweep]\nparameter = h\nmin = 1\nmax = 2\ncount = 3\nparameter = d\n", 6,
         "parameter", 2),
        ("[sweep]\nparameter2 = h\nmin2 = 1\nmax2 = 2\ncount2 = 3\nscale2 = log\n"
         "scale2 = log\n", 7, "scale2", 6),
    ], ids=["protocol key", "reopened section", "scenario", "preset", "sweep target",
            "range key", "second range key"])
    def test_repeated_key_reports_its_line(self, text, line, key, first):
        with pytest.raises(ConfigError, match=f"^line {line}: key '{key}' repeats line {first}$"):
            parse_config(text, CODATA2018)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="^line 3: unknown preset 'moon'; "
                                              "available: earth, small-mass$"):
            parse_config("[body]\nmass = 1\npreset = moon\n", CODATA2018)

    def test_sweep_requires_bounds(self):
        with pytest.raises(ConfigError, match="sweep max is required"):
            parse_config("[sweep]\nparameter = h\nmin = 1\ncount = 2\n", CODATA2018)

    def test_constants_file(self):
        constants = parse_constants("c = 3e8\nG = 6.7e-11\nhbar = 1e-34\n")
        assert constants.c == 3e8
        with pytest.raises(ConfigError, match="unknown constant"):
            parse_constants("k_B = 1.38e-23\n")

    @pytest.mark.parametrize("text, message", [
        ("g = 6.7e-11\n", "line 1: unknown constant 'g'"),
        ("# units SI\n\n[x]\n", "line 3: unknown section [x]"),
        ("c = 3e8\nc =\n", "line 2: empty value for key 'c'"),
        ("c\n", "line 1: expected 'key = value', got 'c'"),
        ("c = 3e8\nhbar = nan\n", "line 2: value must be finite"),
        ("c = 3e8\nG = 6.7e-11\nc = 2e8\n", "line 3: key 'c' repeats line 1"),
        ("G = 6.7e-11\nG = 6.7e-11\n", "line 2: key 'G' repeats line 1"),
        ("hbar = 1e-34\n# again\nhbar = 2e-34\n", "line 3: key 'hbar' repeats line 1"),
    ])
    def test_constants_file_errors_read_like_scenario_errors(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_constants(text)

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

    def test_with_sweep_value_takes_columns(self):
        base = apply_preset(ScenarioConfig(), "earth", CODATA2018)
        column = np.array([0.25, -0.0, 1.0])
        varied = with_sweep_value(with_sweep_value(base, "c1a", column), "h", column)
        assert varied.switch.c1a.dtype == complex
        assert varied.switch.c1a.tolist() == [0.25 + 0j, -0.0 + 0j, 1.0 + 0j]
        assert varied.protocol.h is column
        assert base.switch.c1a == 1.0 and base.protocol.h == 1.0


SWEEP_HEAD = "[body]\npreset = earth\n[sweep]\ntarget = timing\n"


class TestSweepRanges:
    """A bad sweep range is rejected where it enters, with its key's line."""

    @pytest.mark.parametrize("lines, line, message", [
        ("parameter = h\nmin = 1\nmax = 2\ncount = 3\nscale = bogus\n", 9,
         "unknown sweep scale 'bogus'"),
        ("parameter = h\nmin = 1\nmax = 2\ncount = 1\nscale = bogus\n", 9,
         "unknown sweep scale 'bogus'"),
        ("parameter = h\nmin = 1\nmax = 2\ncount = 0\n", 8,
         "sweep count must be >= 1, got 0"),
        ("parameter = h\nmin = 0\nmax = 2\ncount = 3\nscale = log\n", 6,
         "log sweeps need positive bounds"),
        ("parameter = h\nmin = 1\nmax = -2\ncount = 1\nscale = log\n", 7,
         "log sweeps need positive bounds"),
        # once sweep_mass=nan at a point, and a math domain error
        ("parameter = mass\nmin = 1e-300\nmax = 1e24\ncount = 3\nscale = log\n", 7,
         "log sweep max/min = inf leaves the float range"),
        ("parameter = eps\nmin = 1e300\nmax = 1e-300\ncount = 3\nscale = log\n", 7,
         "log sweep max/min = 0 leaves the float range"),
        ("parameter = m\nmin = 1\nmax = 2\ncount = 3\n", 5,
         "parameter 'm' is not sweepable; choose from c1a, c1b, c2b, c4a, d, dt_c, "
         "dt_v, dtau_1, eps, f_ab, f_ba, h, mass, radius"),
        ("parameter = h\nmin = 1\nmax = 2\ncount = 3\n"
         "parameter2 = d\nmin2 = 1\nmax2 = 2\ncount2 = 3\nscale2 = LOG\n", 13,
         "unknown sweep scale 'LOG'"),
        ("parameter = h\nmin = 1\nmax = 2\ncount = 1000001\n", 8,
         "sweep grid of 1000001 points exceeds 1000000"),
        ("parameter = h\nmin = 1\nmax = 2\ncount = 2000\n"
         "parameter2 = d\nmin2 = 1\nmax2 = 2\ncount2 = 2000\n", 12,
         "sweep grid of 4000000 points exceeds 1000000"),
        ("count2 = 501\nparameter = h\nmin = 1\nmax = 2\ncount = 2000\n"
         "parameter2 = d\nmin2 = 1\nmax2 = 2\n", 5,
         "sweep grid of 1002000 points exceeds 1000000"),
        # once ignored: the run printed the one-axis table and exited 0
        ("parameter = h\nmin = 1\nmax = 2\ncount = 3\nmin2 = 5\nscale2 = bogus\n", 9,
         "sweep min2 needs parameter2"),
        ("scale = log\nparameter2 = h\nmin2 = 1\nmax2 = 2\ncount2 = 3\n", 5,
         "sweep scale needs parameter"),
        # a repeated key is rejected before the orphan is found
        ("max2 = 4\ncount2 = 3\nparameter = h\nmin = 1\nmax = 2\ncount = 3\nmax2 = 5\n", 11,
         "key 'max2' repeats line 5"),
    ], ids=["scale", "scale count 1", "count 0", "log min 0", "log max < 0 count 1",
            "log max/min past the range", "log max/min below the range", "not sweepable", "scale2", "grid", "grid count2", "grid count2 first",
            "orphan min2", "orphan scale", "orphan after a repeated key"])
    def test_bad_range_reports_its_line(self, lines, line, message):
        with pytest.raises(ConfigError, match=f"^line {line}: {re.escape(message)}$"):
            parse_config(SWEEP_HEAD + lines, CODATA2018)

    @pytest.mark.parametrize("key", ["min22", "count3", "scale_2", "2"])
    def test_unknown_range_key_reports_line(self, key):
        with pytest.raises(ConfigError, match=f"^line 5: unknown \\[sweep\\] key '{key}'$"):
            parse_config(SWEEP_HEAD + f"{key} = 1\n", CODATA2018)

    @pytest.mark.parametrize("args, message", [
        (("h", 1.0, 2.0, 3, "bogus"), "unknown sweep scale"),
        (("h", 1.0, 2.0, 1, "bogus"), "unknown sweep scale"),
        (("h", 1.0, 2.0, 0, "linear"), "sweep count must be >= 1"),
        (("h", -1.0, 2.0, 1, "log"), "log sweeps need positive bounds"),
        (("scenario", 1.0, 2.0, 3, "linear"), "not sweepable"),
        (("mass", 1e-300, 1e24, 3, "log"), "log sweep max/min = inf"),
    ])
    def test_bad_range_built_directly(self, args, message):
        with pytest.raises(ConfigError, match=message):
            SweepRange(*args)


#: the value each field type's line gives, and the text that gives it
TYPED_VALUES = {
    "float": ("0.25", 0.25), "float | None": ("0.25", 0.25),
    "complex": ("0.25 - 0.5j", 0.25 - 0.5j),
    "tuple": ("0.6, 0, 0, 0.8j, 0", (0.6 + 0j, 0j, 0j, 0.8j, 0j)),
}

FIELD_KEYS = [(name, f.name, f.type)
              for name in ("body", "protocol", "switch", "trigger")
              for f in dataclasses.fields(getattr(ScenarioConfig(), name))
              if f.name != "preset"]


class TestConfigSchema:
    """The section dataclasses are the schema of a scenario file."""

    @pytest.mark.parametrize("section, key, declared", FIELD_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in FIELD_KEYS])
    def test_line_sets_exactly_its_field(self, section, key, declared):
        text, value = TYPED_VALUES[declared]
        config = parse_config(f"[{section}]\n{key} = {text}\n", CODATA2018)
        default = ScenarioConfig()
        expected = dataclasses.replace(
            default, **{section: dataclasses.replace(getattr(default, section), **{key: value})})
        assert config == expected
        got = getattr(getattr(config, section), key)
        kinds = [type(v) for v in got] if declared == "tuple" else [type(got)]
        assert set(kinds) == {complex if declared in ("complex", "tuple") else float}

    @pytest.mark.parametrize("section", ["body", "protocol", "switch", "trigger", "sweep"])
    def test_undeclared_key_reports_line(self, section):
        # a key of another section is no key of this one
        other = "h" if section != "protocol" else "mass"
        for key in ("not_a_field", other):
            text = f"scenario = s\n[{section}]\n# comment\n\n{key} = 1\n"
            with pytest.raises(ConfigError, match=f"^line 5: unknown \\[{section}\\] key '{key}'$"):
                parse_config(text, CODATA2018)

    def test_no_key_declared_twice(self):
        assert len(SECTION_OF) == len(FIELD_KEYS)

    @pytest.mark.parametrize("section, engine, own", [
        ("switch", AmplitudeModel, ["alpha"]),
        ("trigger", TriggerParams, []),
    ])
    def test_engine_fields_are_the_section_keys(self, section, engine, own):
        # [switch] and [trigger] take the fields of the engine type that reads them
        keys = own + [f.name for f in dataclasses.fields(engine)]
        assert [key for key, name in SECTION_OF.items() if name == section] == keys
        for key in keys[len(own):]:
            config = parse_config(f"[{section}]\n{key} = 0.25\n", CODATA2018)
            assert getattr(getattr(config, section), key) == 0.25
        # the engine's other attributes, and any other section's keys, are not
        others = [name for name in dir(engine) if not name.startswith("_")]
        for key in sorted(set(others + list(SECTION_OF) + ["not_a_field"]) - set(keys)):
            with pytest.raises(ConfigError,
                               match=f"^line 3: unknown \\[{section}\\] key '{key}'$"):
                parse_config(f"[{section}]\n# comment\n{key} = 1\n", CODATA2018)

    @pytest.mark.parametrize("name", SWEEPABLE)
    def test_sweep_value_sets_exactly_its_field(self, name):
        base = apply_preset(ScenarioConfig(), "earth", CODATA2018)
        varied = with_sweep_value(base, name, 0.5)
        section = SECTION_OF[name]
        value = getattr(getattr(varied, section), name)
        assert value == 0.5
        assert type(value) is (complex if section == "switch" else float)
        setattr(getattr(varied, section), name, getattr(getattr(base, section), name))
        assert varied == base

    def test_trigger_section_builds_trigger_params(self):
        text = "[trigger]\nm = 2\nomega = 3\ndelta = 5\nv0 = 0\namplitude = 7\n"
        params = cli.trigger_params_from_config(parse_config(text, CODATA2018), CODATA2018)
        assert dataclasses.asdict(params) == dict(m=2.0, omega=3.0, delta=5.0, v0=0.0,
                                                  hbar=CODATA2018.hbar, amplitude=7.0)
        params = cli.trigger_params_from_config(
            parse_config(text + "hbar = 11\n", CODATA2018), CODATA2018)
        assert params.hbar == 11.0
        default = cli.trigger_params_from_config(ScenarioConfig(), CODATA2018)
        assert default.m == 1e-25 and default.hbar == CODATA2018.hbar
        with pytest.raises(ConfigError, match=r"missing \['delta', 'v0'\]"):
            cli.trigger_params_from_config(
                parse_config("[trigger]\nm = 2\nomega = 3\n", CODATA2018), CODATA2018)

    @pytest.mark.parametrize("line", ["hbar = 2.0", "amplitude = 5.0"])
    def test_partial_trigger_section_rejected(self, tmp_path, capsys, line):
        # once ignored: the run used the default clock with CODATA hbar
        cfg = tmp_path / "partial.cfg"
        cfg.write_text(f"[trigger]\n{line}\n")
        assert run_main(["trigger", "--config", str(cfg)], capsys) == (
            2, "", "error: trigger configuration incomplete: "
                   "missing ['m', 'omega', 'delta', 'v0']\n")

    def test_readme_example_sets_every_key_it_shows(self):
        (block,) = _readme_blocks("ini")
        config = parse_config(block, CODATA2018)
        declared = {key: kind for _, key, kind in FIELD_KEYS}
        sweep = config.sweep.ranges[0]
        sweep_values = {"target": config.sweep.target, "parameter": sweep.parameter,
                        "min": sweep.lo, "max": sweep.hi, "count": sweep.count,
                        "scale": sweep.scale}
        section, shown = None, set()
        for raw in block.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line[1:-1]
            elif line:
                key, value = (part.strip() for part in line.split("=", 1))
                shown.add(key)
                if section is None:
                    assert getattr(config, key) == value
                elif section == "sweep":
                    assert str(sweep_values[key]) == value or sweep_values[key] == float(value)
                elif key == "preset":
                    assert config.body == apply_preset(ScenarioConfig(), value, CODATA2018).body
                else:
                    got = getattr(getattr(config, section), key)
                    if declared[key] == "tuple":
                        assert got == tuple(complex(v) for v in value.split(","))
                    else:
                        assert got == (complex if declared[key] == "complex" else float)(value)
        assert {"scenario", "preset", "target", "parameter"} <= shown
        # every declared key is at least named in the example
        assert set(declared) <= set(re.findall(r"\w+", block))


#: timing configs whose derived quantities overflow; before each was
#: rejected, the first printed nan cells, the second blamed an infinite
#: dt_s, the last two printed inf (Infinity in JSON), all exit 0 but the second
OVERFLOWS = {
    "top": "[body]\nmass = 1.6e8\nradius = 3.2e-9\n[protocol]\nh = 1e300\nd = 5.6e106\n",
    "dt_r": "[body]\nmass = 1.55e-78\nradius = 3.77e-11\n[protocol]\nh = 9.4e5\nd = 3.6e299\n",
    "decay": "[body]\npreset = earth\n[protocol]\ndtau_1 = 1e300\neps = 1e-300\n",
    "crossing": "[body]\npreset = earth\n[protocol]\ndt_s = 1e300\ndt_v = 0.1\ndt_c = 1e-300\n",
    "t4": "[body]\nmass = 5.9722e24\nradius = 6.371e6\n[protocol]\nh = 1\nd = 3e-7\n"
          "dt_s = 1.7e308\ndt_v = 1e308\n",
}


@pytest.mark.parametrize("windows", [True, False], ids=["windows", "no-windows"])
def test_timing_columns_in_declared_order(windows):
    # TIMING_COLUMNS is declared apart from the row _timing_columns builds
    config = apply_preset(ScenarioConfig(), "earth", CODATA2018)
    if not windows:
        config.protocol.dtau_1 = config.protocol.eps = None
    columns, _ = cli._timing_columns(config, CODATA2018)
    keys = [*columns, "warnings"]
    assert keys == [name for name in cli.TIMING_COLUMNS if name in keys]
    assert len(keys) == len(cli.TIMING_COLUMNS) - (0 if windows else 4)


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

    def test_import_leaves_scipy_out(self, tmp_path):
        # the runtime needs numpy alone: neither the import nor a clock run
        # loads scipy
        cfg = tmp_path / "trigger.cfg"
        cfg.write_text(FAST_TRIGGER)
        loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        for code in ("import sys, qswitch.cli; " + loaded,
                     "import sys, qswitch.cli; qswitch.cli.main(['trigger', '--config', "
                     f"{str(cfg)!r}]); " + loaded):
            result = run_qswitch(child=code, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip().split("\n")[-1] == "[]"

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

    @pytest.mark.parametrize("command, text, message", [
        # each once a traceback, ZeroDivisionError or OverflowError, with exit 1
        ("trigger", "[trigger]\nm = 1.0\nomega = 1.0\nhbar = 1e300\ndelta = 14.0\nv0 = 22.0\n",
         "require a finite kinetic energy m v^2/2 > 0, got 0"),
        ("trigger", "[trigger]\nm = 1e300\nomega = 1.0\nhbar = 1.0\ndelta = 14.0\nv0 = 22.0\n",
         "require a finite k + k' > 0, got inf"),
        ("trigger", "[trigger]\nm = 1.0\nomega = 1.0\nhbar = 1.0\ndelta = 1e300\nv0 = 22.0\n",
         "require a finite kinetic energy m v^2/2 > 0, got inf"),
        # once two numpy RuntimeWarnings and a negative grid spacing
        ("trigger", "[trigger]\nm = 8.49e30\nomega = 2.51e84\ndelta = 7.53e245\n"
         "v0 = 2.62e-247\nhbar = 2.07e73\n",
         "require a finite crossing time epsilon = delta/(omega A) >= 0, got inf"),
        ("timing", "[body]\npreset = earth\nmass = 1e-300\n",
         "R_S = 2GM/c^2 underflows to 0 at mass 1e-300 kg"),
        ("timing", "[body]\npreset = earth\nradius = 1e300\nmass = 1e-30\n",
         "g h or g^2 underflows to 0 at surface gravity g=0 m/s^2, h=1 m"),
        # once exit 0 with ratio_exact = inf and weak_field_gap = nan
        ("timing", "[body]\npreset = earth\n[protocol]\nh = 1e-300\nd = 1e-300\n"
         "dt_s = 1e-30\ndt_c = 10\n",
         "dt_r/dt_c overflows at h=1e-300 m: exact inf, weak field inf, curvature form inf"),
        # once a ZeroDivisionError traceback
        ("timing", "[body]\nmass = 4.5e-266\nradius = 7.6e-155\n[protocol]\nh = 1\nd = 1\n",
         "R^3 underflows to 0 at R=7.6e-155 m"),
        # each once exit 0 with an inf cell
        ("timing", "[body]\npreset = earth\n[protocol]\nd = 1e308\ndt_c = 1e-9\n",
         "small-mass dt_r = c R d/(G M) overflows at d=1e+308 m"),
        ("timing", "[body]\npreset = earth\n[protocol]\nd = 1e290\ndtau_1 = 1e-30\n",
         "margin (d/c)/dtau_1 overflows at d=1e+290 m, dtau_1=1e-30 s"),
        ("timing", OVERFLOWS["top"],
         "(R - R_S + h)/R_S overflows at R=3.2e-09 m, R_S=2.37637e-19 m, h=1e+300 m"),
        ("timing", OVERFLOWS["dt_r"], "solved dt_r = (dt_r/dt_c) dt_c overflows at "
         "dt_r/dt_c=3.27526e+94, dt_c=1.20083e+291 s"),
        ("timing", OVERFLOWS["decay"],
         "margin dtau_1/eps overflows at dtau_1=1e+300 s, eps=1e-300 s"),
        ("timing", OVERFLOWS["crossing"],
         "margin t3/dt_c overflows at t3=1e+300 s, dt_c=1e-300 s"),
        # once a numpy RuntimeWarning and exit 0 with inf and nan cells
        ("timing", OVERFLOWS["t4"], "t4 = 2 dt_v + dt_s + dt_c overflows at dt_v=1e+308 s, "
         "dt_s=1.7e+308 s, dt_c=1.00069e-15 s"),
    ], ids=["trigger-hbar", "trigger-m", "trigger-delta", "trigger-epsilon", "timing-mass",
            "timing-radius", "timing-h", "timing-cube", "timing-small-mass", "timing-flight",
            *(f"timing-{name}" for name in OVERFLOWS)])
    def test_derived_quantity_out_of_range_exits_2(self, tmp_path, capsys, command, text,
                                                      message):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text)
        assert run_main([command, "--config", str(cfg)], capsys) == (2, "", f"error: {message}\n")

    def test_far_climb_runs_without_numpy_warnings(self, tmp_path, capsys):
        # z ~ 2e11 once overflowed the series that the far branch replaces
        cfg = tmp_path / "far.cfg"
        cfg.write_text("[protocol]\nh = 1e30\ndt_v = 1e-6\n")
        code, out, _ = run_main(["timing", "--preset", "earth", "--config", str(cfg)], capsys)
        assert code == 0
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert 0.0 < float(cells["dtau_v"]) <= 1e-6

    @pytest.mark.parametrize("scenario", ["a/b", "../../escape"])
    def test_scenario_with_path_separator_rejected(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "named.cfg"
        cfg.write_text(f"scenario = {scenario}\n[body]\npreset = earth\n")
        out = tmp_path / "o" / "z"
        assert run_main(["timing", "--config", str(cfg), "--out", str(out)], capsys) == (
            2, "", f"error: line 1: scenario name {scenario!r} holds a path separator\n")
        assert [p.name for p in tmp_path.rglob("*")] == ["named.cfg"]

    @pytest.mark.parametrize("taken", ["out", "out/earth_timing.csv"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, taken):
        # a file where --out names the directory, or a directory where the table goes
        out = tmp_path / "out"
        if taken == "out":
            out.write_text("kept\n")
        else:
            (tmp_path / taken).mkdir(parents=True)
        code, stdout, err = run_main(["timing", "--preset", "earth", "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert str(tmp_path / taken) in err
        assert taken != "out" or out.read_text() == "kept\n"

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

    def test_csv_dump_roundtrip(self, tmp_path, capsys):
        text = "[switch]\nalpha = 0.6, 0, 0, 0.48+0.64j, 0\nc1a = 0.3-0.9j\nf_ab = 0.7j\n"
        cfg = tmp_path / "complex.cfg"
        cfg.write_text(text)
        assert main(["switch", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        header, *lines = (tmp_path / "o" / "run_switch_state.csv").read_text().splitlines()
        assert header == "path,agentA,agentB,target,detA,detB,re,im"
        pre = cli.compute_switch(parse_config(text, CODATA2018))[0].pre_measurement
        flats = []
        for line in lines:
            *idx, re_cell, im_cell = line.split(",")
            flats.append(int(np.ravel_multi_index(tuple(map(int, idx)), pre.dims)))
            amp = pre.amps[flats[-1]]
            assert (float(re_cell).hex(), float(im_cell).hex()) == (amp.real.hex(), amp.imag.hex())
        assert flats == np.flatnonzero(np.abs(pre.amps) > DUMP_CUTOFF).tolist()
        zero = StateVector(SWITCH_FACTORS, np.zeros(pre.amps.size, dtype=complex))
        assert cli.state_csv(zero) == header + "\n"

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
        # the clock grid closes the row, with the steps the step rule takes
        assert header.split(",")[-3:] == ["n_points", "n_steps", "dt_max"]
        params = cli.trigger_params_from_config(parse_config(FAST_TRIGGER, CODATA2018), CODATA2018)
        grid = default_grid(params)
        taus = [float(line.split(",")[0]) for line in trajectory.splitlines()[1:]]
        assert (cells["n_points"], int(cells["n_steps"]), float(cells["dt_max"])) == (
            "256", steps_by_rule(params, grid, taus), grid.dt_max)

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

    def test_overflowing_timing_point_named(self, tmp_path, capsys):
        cfg = tmp_path / "tiny_h.cfg"
        cfg.write_text(
            "[body]\npreset = earth\n[protocol]\nd = 1e-300\ndt_s = 1e-30\ndt_c = 10\n"
            "[sweep]\ntarget = timing\nparameter = h\nmin = 1e-300\nmax = 1\ncount = 3\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: sweep_h=1e-300: dt_r/dt_c overflows at h=1e-300 m: "
                                "exact inf, weak field inf, curvature form inf\n")

    @pytest.mark.parametrize("name, grid, message", [
        # once two numpy RuntimeWarnings and exit 0 with nan cells
        ("top", "parameter = radius\nmin = 0.0238\nmax = 3.2e-9\ncount = 3\nscale = log\n",
         "sweep_radius=3.1999999999999993e-09: (R - R_S + h)/R_S overflows at R=3.2e-09 m, "
         "R_S=2.37637e-19 m, h=1e+300 m"),
        # once a numpy RuntimeWarning before the error
        ("dt_r", "parameter = radius\nmin = 3.77e-11\nmax = 3.77e-11\ncount = 1\n",
         "sweep_radius=3.7700000000000003e-11: solved dt_r = (dt_r/dt_c) dt_c overflows at "
         "dt_r/dt_c=3.27526e+94, dt_c=1.20083e+291 s"),
        ("decay", "parameter = eps\nmin = 1e-300\nmax = 1e-19\ncount = 3\nscale = log\n",
         "sweep_eps=1e-300: margin dtau_1/eps overflows at dtau_1=1e+300 s, eps=1e-300 s"),
        ("crossing", "parameter = dt_c\nmin = 1e-300\nmax = 1\ncount = 3\n",
         "sweep_dt_c=1e-300: margin t3/dt_c overflows at t3=1e+300 s, dt_c=1e-300 s"),
        # once numpy overflow and invalid-value RuntimeWarnings and exit 0 with inf cells
        ("t4", "parameter = dt_v\nmin = 0\nmax = 1e308\ncount = 3\n",
         "sweep_dt_v=5.0000000000000001e+307: t4 = 2 dt_v + dt_s + dt_c overflows at "
         "dt_v=5e+307 s, dt_s=1.7e+308 s, dt_c=1.00069e-15 s"),
    ], ids=list(OVERFLOWS))
    def test_overflowing_derived_point_named(self, tmp_path, capsys, name, grid, message):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(OVERFLOWS[name] + "[sweep]\ntarget = timing\n" + grid)
        assert run_main(["sweep", "--config", str(cfg)], capsys) == (2, "", f"error: {message}\n")
        result = run_cli("sweep", "--config", str(cfg), "--format", "json")
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")

    def test_underflowing_cube_point_named(self, tmp_path, capsys):
        cfg = tmp_path / "tiny_radius.cfg"
        cfg.write_text(
            "[body]\nmass = 4.5e-266\nradius = 1\n[protocol]\nh = 1\nd = 1\n"
            "[sweep]\ntarget = timing\nparameter = radius\nmin = 1e-100\nmax = 1e-110\n"
            "count = 3\nscale = log\n"
        )
        assert run_main(["sweep", "--config", str(cfg)], capsys) == (
            2, "", "error: sweep_radius=9.9999999999999961e-111: "
                   "R^3 underflows to 0 at R=1e-110 m\n")

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
        empty, *others = rows
        assert empty["sweep_c1a"] == 0.0
        assert empty["zeta3_probability"] == 0.0
        assert empty["zeta3_plus_probability"] == 0.0
        assert empty["zeta3_minus_probability"] == 0.0
        for row in others:
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
        for name in ("switch_report_text", "state_csv", "trajectory_rows"):
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
            "run_switch_state.csv": cli.state_csv(outcome.pre_measurement),
        }


#: runs whose stdout is pinned; they use only correctly rounded operations
SWITCH_PINS = {
    "switch": (["switch"], "switch.csv"),
    "switch-sweep": (["sweep", "--config", str(PINS / "switch_sweep.cfg")], "switch_sweep.csv"),
}


@pytest.mark.parametrize("name", SWITCH_PINS)
def test_stdout_matches_pinned_bytes(name, capsys):
    argv, pin = SWITCH_PINS[name]
    assert main(argv) == 0
    assert capsys.readouterr().out == (PINS / pin).read_text()


#: the clock's output is made with exp, arccos, cos and FFTs, which are not
#: correctly rounded, so these bytes hold for the libm and numpy (2.4, x86-64)
#: that wrote them: they pin that a change to the integrator leaves every bit
#: in place
TRIGGER_PINS = {
    "gate12": ["--config", str(PINS / "trigger_gate12.cfg")],  # gate 12's [trigger]
    "earth": ["--preset", "earth"],
    "clock": ["--config", str(PINS / "trigger_clock.cfg")],  # the benchmark's clock
}


@pytest.mark.parametrize("name", TRIGGER_PINS)
def test_trigger_matches_pinned_bytes(name, tmp_path, capsys):
    assert main(["trigger", *TRIGGER_PINS[name], "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.encode() == (PINS / f"trigger_{name}.csv").read_bytes()
    (trajectory,) = tmp_path.glob("*_trigger_trajectory.csv")
    assert trajectory.read_bytes() == (PINS / f"trigger_{name}_trajectory.csv").read_bytes()


def _other_math_path(variant):
    """The environment that sends a child down another machine's math path:
    OpenBLAS's oldest x86-64 kernel ("prescott"), or numpy's dispatch capped at
    AVX2 ("avx2") or at its baseline ("baseline"); a skip where this machine
    has no such path."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    if variant == "prescott":
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if platform.machine() not in ("x86_64", "AMD64") or "DYNAMIC_ARCH" not in blas.get(
                "openblas configuration", ""):
            pytest.skip("numpy's BLAS is not an x86-64 OpenBLAS whose kernel "
                        "OPENBLAS_CORETYPE selects")
        return {"OPENBLAS_CORETYPE": "Prescott"}
    # numpy lists its dispatch targets from the lowest up
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    if variant == "avx2":
        targets = targets[targets.index("X86_V3") + 1:] if "X86_V3" in targets else []
    if not targets:
        pytest.skip(f"this machine runs no numpy dispatch target above {variant}")
    return {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}


#: every pin under the other OpenBLAS kernel; only the switch pins under numpy's
#: other dispatch levels, where the clock's np.exp and np.arccos round differently
OTHER_MATH_PATHS = [("prescott", name) for name in [*SWITCH_PINS, *TRIGGER_PINS]] + [
    (variant, name) for variant in ("avx2", "baseline") for name in SWITCH_PINS]


@pytest.mark.parametrize("variant, name", OTHER_MATH_PATHS)
def test_pins_hold_on_other_math_paths(variant, name, tmp_path):
    if name in SWITCH_PINS:
        argv, pin = SWITCH_PINS[name]
        trajectory_pin = None
    else:
        argv, pin = ["trigger", *TRIGGER_PINS[name]], f"trigger_{name}.csv"
        trajectory_pin = f"trigger_{name}_trajectory.csv"
    result = run_qswitch(*argv, "--out", str(tmp_path), env=_other_math_path(variant),
                         capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (PINS / pin).read_bytes()
    if trajectory_pin:
        (trajectory,) = tmp_path.glob("*_trigger_trajectory.csv")
        assert trajectory.read_bytes() == (PINS / trajectory_pin).read_bytes()


def test_readme_python_prints_its_comment(capsys):
    # the README's Python example runs and prints the line its last comment shows
    (example,) = _readme_blocks("python")
    exec(example, {})
    assert capsys.readouterr().out == example.splitlines()[-1].lstrip("# ") + "\n"


def test_readme_lists_every_command():
    assert [argv[0] for argv in README_COMMANDS] == [
        "timing", "timing", "switch", "trigger", "sweep"]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    # `--config sweep.cfg` reads the README's configuration example
    (example,) = _readme_blocks("ini")
    (tmp_path / "sweep.cfg").write_text(example)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_main(argv, capsys)
    assert code == 0, err
