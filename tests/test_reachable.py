"""Every function of the package runs in some command, or says why it stays.

Line coverage cannot find dead code here: the tests reach nearly every line
of src/.  So this runs a fixed set of CLI commands in one child interpreter,
under a profile function set before `qswitch.cli` is imported (work done at
import counts), and lists each function, method and property the package
defines that no run called.  Each must be on ALLOWED with the caller that
keeps it; an entry the runs now reach, or whose function is gone, fails the
test too, so the list only shrinks.
"""

import json

from conftest import run_qswitch
from test_unused_imports import PACKAGE, ROOT, function_definitions

#: prelude and epilogue of a traced child: the code object of every Python call
#: between them is recorded, and the last line printed lists them as JSON
PROFILED = """\
import json, sys
called = set()
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
"""
REPORT = """
sys.setprofile(None)
print(json.dumps([exits, sorted({(c.co_filename, c.co_qualname) for c in called})]))
"""

#: the commands of the traced child: it runs each (argv, environment) of the
#: JSON list in sys.argv[1] through cli.main and keeps (exit status, stderr)
COMMANDS = """\
import contextlib, io, os
import qswitch.cli
exits = []
for argv, env in json.loads(sys.argv[1]):
    os.environ.update(env)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        exits.append((qswitch.cli.main(argv), err.getvalue()))
    for key in env:
        del os.environ[key]
"""


def traced(script, *args):
    """(the child's `exits`, {(file, qualified name)} of the functions it called)
    of `script` run under the profile function, given args as sys.argv[1:]."""
    result = run_qswitch(*args, child=PROFILED + script + REPORT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    exits, called = json.loads(result.stdout.splitlines()[-1])
    return exits, {tuple(entry) for entry in called}


def unreached(paths, called):
    """"module.qualified name" of each function of `paths` not in `called`."""
    return sorted(f"{path.stem}.{name}" for path in paths
                  for name in function_definitions(path.read_text())
                  if (str(path), name) not in called)


EARTH_BODY = "[body]\nmass = 5.9722e24\nradius = 6.371e6\n"

#: config, command, exit status and stderr fragment of each warned or rejected run
CHECKED = {
    "unchecked-windows": (EARTH_BODY + "[protocol]\nh = 1\nd = 0.3e-6\n", "timing", 1,
                          "warning: interaction windows unchecked"),
    "warned-sweep": (EARTH_BODY + "[protocol]\nh = 1\nd = 0.3e-6\n"
                     "[sweep]\nparameter = h\nmin = 1\nmax = 2\ncount = 2\n", "sweep", 1,
                     "warning: sweep_h=1: interaction windows unchecked"),
    "negative-h": ("[body]\npreset = earth\n[protocol]\nh = -1\n", "timing", 2,
                   "error: require h > 0 and d > 0, got h=-1.0"),
    "c1a-off-disk": ("[switch]\nc1a = 2\n", "switch", 2, "error: |c1a| must be <= 1"),
    "negative-m": ("[trigger]\nm = -1\nomega = 1\ndelta = 10\nv0 = 15.7\nhbar = 1\n", "trigger", 2,
                   "error: require finite m > 0, got -1.0"),
    "bad-sweep-point": ("[body]\npreset = earth\n[sweep]\nparameter = h\nmin = -1\nmax = 1\n"
                        "count = 3\n", "sweep", 2, "error: sweep_h=-1: "),
    "unsweepable": ("[sweep]\nparameter = m\nmin = 1\nmax = 2\ncount = 2\n", "sweep", 2,
                    "error: line 2: parameter 'm' is not sweepable"),
}


def command_runs(tmp_path):
    """(argv, environment, exit status, stderr fragment) of each traced run."""
    plain = [["timing", "--preset", "earth"], ["timing", "--preset", "small-mass"], ["switch"],
             ["trigger", "--preset", "earth"]]
    for pin in sorted((ROOT / "tests" / "pins").glob("*.cfg")):
        command = "sweep" if pin.stem.endswith("_sweep") else pin.stem.partition("_")[0]
        plain.append([command, "--config", str(pin)])
    runs = [(argv + variant, {}, 0, "") for argv in plain
            for variant in ([], ["--format", "json"], ["--out", str(tmp_path / "out")])]
    constants = tmp_path / "constants.txt"
    constants.write_text("G = 1.33486e-10\n")
    runs.append((plain[0], {"QSWITCH_CONSTANTS": str(constants)}, 0, ""))
    for name, (text, command, status, fragment) in CHECKED.items():
        (tmp_path / f"{name}.cfg").write_text(text)
        runs.append(([command, "--config", str(tmp_path / f"{name}.cfg"), "--strict"], {},
                     status, fragment))
    return runs


#: functions no command calls, each with the caller that keeps it in src/ and the
#: ROADMAP direction that removes it (or the API it belongs to); the list only shrinks
_OPERATORS = "bench/workloads.py:{}, the traced switch layers; direction 6 (after 17) removes it"
_ROWS = "bench/checks.py:{} reads compute_sweep's table by rows; direction 11 (after 17) removes it"
ALLOWED = {
    "cli.SweepTable.__len__": _ROWS.format(110),
    "cli.SweepTable.__iter__": _ROWS.format(80),
    "cli.SweepTable.__getitem__": _ROWS.format(219),
    "cli.switch_summary": "bench/workloads.py:244, the traced switch points; direction 11 "
                          "(after 17) removes it",
    "hilbert.basis_state": _OPERATORS.format(262),
    "hilbert._orthonormal": _OPERATORS.format("263 through measure_in_basis"),
    "hilbert.SparseOperator.__init__": _OPERATORS.format("251-254 through interaction_a/_b"),
    "hilbert._moved_block": _OPERATORS.format("258-263 through apply and measure_in_basis"),
    "hilbert.apply": _OPERATORS.format(258),
    "hilbert._selection_mask": _OPERATORS.format("255 through project"),
    "hilbert.project": _OPERATORS.format(255),
    "hilbert.measure_in_basis": _OPERATORS.format(263),
    "switch_model._operator": _OPERATORS.format("251-254 through interaction_a/_b"),
    "switch_model.interaction_a": _OPERATORS.format(251),
    "switch_model.interaction_b": _OPERATORS.format(252),
    "switch_model.SwitchOutcome.postselection": "gates 8-10 and the README example read a "
                                                "class by it; the API direction 6 keeps",
    "switch_model.diagonal_measure": "gate 8 and the README example measure a state by it; "
                                     "the API direction 6 keeps",
    "timing.solved_schedule": "bench/workloads.py:187, the traced timing layers that "
                              "direction 17 deletes, and gate 7; then it moves to the tests",
    "trigger.ChannelState.psi_plus": "bench/workloads.py:308 and 314 hand it to bench/checks.py; "
                                     "direction 6 (after 17) removes it",
    "trigger.ChannelState.psi_minus": "bench/workloads.py:308 and 314 hand it to bench/checks.py; "
                                      "direction 6 (after 17) removes it",
}


def test_commands_reach_every_function_but_the_allowed(tmp_path):
    runs = command_runs(tmp_path)
    exits, called = traced(COMMANDS, json.dumps([(argv, env) for argv, env, _, _ in runs]))
    for (argv, _, status, fragment), (got, stderr) in zip(runs, exits):
        assert got == status and fragment in stderr, (argv, got, stderr)
    missed = unreached(PACKAGE, called)
    assert [name for name in missed if name not in ALLOWED] == []
    assert [name for name in ALLOWED if name not in missed] == []


def test_lists_each_function_no_run_called(tmp_path):
    (tmp_path / "synthetic.py").write_text(
        "def at_import():\n    return 1\n"
        "def never():\n    pass\n"
        "class Thing:\n"
        "    def used(self):\n        return at_import\n"
        "    def unused(self):\n        pass\n"
        "    @property\n    def shape(self):\n        pass\n"
        "    class Inner:\n        def deep(self):\n            pass\n"
        "VALUE = at_import()\n")
    _, called = traced(f"sys.path.insert(0, {str(tmp_path)!r})\nimport synthetic\n"
                       "synthetic.Thing().used()\nexits = []\n")
    assert unreached([tmp_path / "synthetic.py"], called) == [
        "synthetic.Thing.Inner.deep", "synthetic.Thing.shape", "synthetic.Thing.unused",
        "synthetic.never"]
