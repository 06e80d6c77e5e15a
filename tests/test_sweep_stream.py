"""The columnar sweep and its chunked writer against the row-wise path.

The oracles below are the per-point sweep loop and the row-wise CSV and
JSON formatters the CLI used before sweeps were evaluated as columns: each
point gets its own config through with_sweep_value and goes through
cli.compute_timing or cli.switch_summary alone, and each table is built as
one string.  The columnar sweep builds a chunk's config the same way, with
every swept parameter set to its column of points, and runs the same code
on it for either target.  It must give the same bytes, the same warnings
and the same errors, at any chunk size.
"""

import cmath
import itertools
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qswitch import cli, spacetime
from qswitch.config import SWEEPABLE, ConfigError, parse_config, with_sweep_value
from qswitch.spacetime import CODATA2018
from qswitch.switch_model import AMPLITUDES

from conftest import run_qswitch

# derandomized so that every run checks the same examples
PROPERTY = dict(deadline=None, database=None, derandomize=True)


# ---------------------------------------------------------------------------
# oracles

def oracle_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def oracle_csv(columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(oracle_cell(row.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def oracle_json(columns, rows):
    payload = [{col: row.get(col) for col in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def oracle_sweep(config, constants):
    """(columns, rows, warnings) of a sweep, one point at a time."""
    ranges = config.sweep.ranges
    names = [rng.parameter for rng in ranges]
    grids = [sorted(rng.values()) for rng in ranges]
    target = config.sweep.target
    rows, warnings = [], []
    for values in itertools.product(*grids):
        point = config
        for name, value in zip(names, values):
            point = with_sweep_value(point, name, value)
        prefix = {f"sweep_{n}": float(v) for n, v in zip(names, values)}
        at = ", ".join(f"{k}={v:.17g}" for k, v in prefix.items())
        try:
            if target == "timing":
                row, point_warnings = cli.compute_timing(point, constants)
                warnings += [f"{at}: {message}" for message in point_warnings]
            else:
                row = cli.switch_summary(point)
        except ValueError as exc:
            raise ConfigError(f"{at}: {exc}") from None
        rows.append({**prefix, **row})
    summary = cli.TIMING_COLUMNS if target == "timing" else cli.SWITCH_SUMMARY_COLUMNS
    return [f"sweep_{n}" for n in names] + summary, rows, warnings


@contextmanager
def chunk_rows(size):
    saved = cli.CHUNK_ROWS
    cli.CHUNK_ROWS = size
    try:
        yield
    finally:
        cli.CHUNK_ROWS = saved


def outcome(run, text):
    """What a sweep run gives for config text: its result or its error."""
    try:
        return run(parse_config(text, CODATA2018), CODATA2018)
    except ConfigError as exc:
        return f"error: {exc}"


def assert_matches_oracle(text):
    """The columnar sweep's bytes, rows and warnings equal the oracle's."""
    expected = outcome(oracle_sweep, text)
    found = outcome(cli.compute_sweep, text)
    if isinstance(expected, str):
        assert found == expected
        return None
    assert not isinstance(found, str), found
    columns, rows, warnings = found
    assert columns == expected[0]
    assert list(warnings) == expected[2]
    assert cli.format_csv(columns, rows) == oracle_csv(*expected[:2])
    assert "".join(cli.WRITERS["json"](columns, rows)) == oracle_json(*expected[:2])
    assert list(rows) == expected[1]
    return rows


# ---------------------------------------------------------------------------
# every sweepable parameter, both scales, with and without warnings

BASES = [
    "[body]\npreset = earth\n",
    "[body]\npreset = small-mass\n",
    # explicit dt_s: a residual warning wherever it misses the matching
    "[body]\npreset = earth\n[protocol]\ndt_s = 5.0\ndt_v = 0.1\n",
    # no dtau_1 and eps: every point warns that its windows are unchecked
    "[body]\nmass = 5.9722e24\nradius = 6.371e6\n[protocol]\nh = 2.0\nd = 1e-6\n",
    "[body]\npreset = earth\n[protocol]\ndtau_1 = 1e-16\neps = 3e-18\n",
]

SWITCH = (
    "[switch]\nalpha = 0.6, 0.8j, 0, 0, 0\nc4a = 0.3+0.4j\nc2b = 0.7\nf_ab = 0.5j\n"
    "delta_1a = 0.7\ngamma_ba = 2.1\n"
)

#: a range a point of each parameter is drawn from; some points leave the
#: domain (dt_v past dt_r, |c| > 1, R_S >= R), so errors are compared too
SPANS = {
    "h": (1e-3, 1e3), "d": (1e-9, 1e-5), "dt_v": (0.0, 12.0), "dt_c": (1e-17, 1e-13),
    "dtau_1": (1e-20, 1e-14), "eps": (1e-22, 1e-16), "mass": (1e18, 1e35),
    "radius": (1e-3, 1e9), **{name: (0.0, 1.2) for name in
                              ("c1a", "c4a", "c1b", "c2b", "f_ba", "f_ab")},
}


@st.composite
def axes(draw):
    name = draw(st.sampled_from(sorted(SWEEPABLE)))
    lo, hi = SPANS[name]
    scale = "log" if lo > 0 and draw(st.booleans()) else "linear"
    if scale == "log":
        ends = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)
    else:
        ends = st.floats(lo, hi)
    return name, draw(ends), draw(ends), draw(st.integers(1, 6)), scale


@st.composite
def switch_sections(draw):
    """A [switch] section of drawn fixed amplitudes, complex and at most 1 in
    modulus, and phases; a swept amplitude's column is real, so only these
    reach complement and the model with imaginary parts."""
    text = "[switch]\nalpha = 0.6, 0.8j, 0, 0, 0\n"
    for amplitude, phase in AMPLITUDES:
        if draw(st.booleans()):
            value = cmath.rect(draw(st.floats(0.0, 0.999)), draw(st.floats(-math.pi, math.pi)))
            text += f"{amplitude} = {value!r}\n"
        if draw(st.booleans()):
            text += f"{phase} = {draw(st.floats(-7.0, 7.0))!r}\n"
    return text


def sweep_text(base, target, ranges):
    text = base + "[sweep]\n" + f"target = {target}\n"
    for suffix, (name, lo, hi, count, scale) in zip(("", "2"), ranges):
        text += (f"parameter{suffix} = {name}\nmin{suffix} = {lo!r}\nmax{suffix} = {hi!r}\n"
                 f"count{suffix} = {count}\nscale{suffix} = {scale}\n")
    return text


@settings(max_examples=200, **PROPERTY)
# the same amplitude on both axes: the later one is the point's
@example(SWITCH, "switch", [("c1a", 0.1, 0.9, 3, "linear"), ("c1a", 1.0, 0.0, 4, "linear")], 5,
         SWITCH)
# a timing sweep leaves a swept amplitude unused, even past |c| = 1
@example(BASES[0], "timing", [("f_ba", 0.0, 1.2, 4, "linear")], 2, SWITCH)
# a switch sweep leaves a swept timing parameter unused
@example(BASES[0], "switch", [("h", 0.5, 5.0, 3, "log"), ("c1a", 0.0, 1.0, 4, "linear")], 5,
         SWITCH)
# every point warns, and the later of two axes over h names it
@example(BASES[3], "timing", [("h", 0.5, 5.0, 3, "log"), ("h", 2.0, 1.0, 4, "linear")], 5, SWITCH)
# one switch axis across a chunk boundary
@example(BASES[0], "switch", [("c4a", 0.0, 1.0, 7, "linear")], 5, SWITCH)
@given(
    st.sampled_from(BASES),
    st.sampled_from(["timing", "timing", "switch"]),
    st.lists(axes(), min_size=1, max_size=2),
    st.sampled_from([2, 5, cli.CHUNK_ROWS]),
    switch_sections(),
)
def test_sweep_matches_per_point_oracle(base, target, ranges, chunk, switch):
    with chunk_rows(chunk):
        assert_matches_oracle(sweep_text(base + switch, target, ranges))


@pytest.mark.parametrize("target, base", [("timing", BASES[0]), ("timing", BASES[3]),
                                          ("switch", SWITCH)],
                         ids=["earth", "unchecked-windows", "switch"])
@pytest.mark.parametrize("offset", [-1, 0, 1, "2n+1"])
def test_chunk_boundaries(target, base, offset):
    chunk = 5
    count = 2 * chunk + 1 if offset == "2n+1" else chunk + offset
    parameter = "h" if target == "timing" else "c1a"
    with chunk_rows(chunk):
        rows = assert_matches_oracle(sweep_text(
            base, target, [(parameter, 0.1, 0.9, count, "linear")]))
        assert len(rows) == count
        # a 2-D grid whose rows do not line up with the chunks
        assert_matches_oracle(sweep_text(
            base, target, [(parameter, 0.1, 0.9, 3, "linear"), ("c4a", 0.0, 1.0, count, "linear")]))


def test_full_size_chunk_boundary():
    rows = assert_matches_oracle(sweep_text(
        BASES[0], "timing",
        [("h", 0.5, 5.0, 7, "log"), ("dt_v", 0.0, 0.5, cli.CHUNK_ROWS // 7 + 1, "linear")]))
    assert len(rows) > cli.CHUNK_ROWS


@pytest.mark.parametrize("target, base, ranges", [
    ("timing", BASES[0], [("h", 0.5, 5.0, 20, "log"), ("dt_v", 0.0, 0.5, 20, "linear")]),
    ("switch", SWITCH, [("c1a", 0.0, 1.0, 20, "linear"), ("f_ba", 0.0, 1.0, 20, "linear")]),
], ids=["earth", "switch"])
def test_vectorized_floats_match_per_point_oracle(monkeypatch, target, base, ranges):
    # 20 x 20 points: columns over both axes reach the numpy %.17g
    lengths = []

    def recorded(values, *args):
        lengths.append(len(values))
        return format_17g(values, *args)

    format_17g = cli._format_17g
    monkeypatch.setattr(cli, "_format_17g", recorded)
    assert len(assert_matches_oracle(sweep_text(base, target, ranges))) == 400
    assert max(lengths) >= cli.VECTOR_MIN


@pytest.mark.parametrize("count", [0, 1, 4, 5, 6, 11])
def test_row_dicts_stream_in_chunks(count):
    # the single commands' tables go through the same writer, transposed
    rows = [{"a": 0.1 * i, "b": i % 2 == 0, "c": None, "d": f"r{i}", "e": i, "f": -0.0}
            for i in range(count)]
    columns = ["a", "b", "c", "d", "e", "f", "missing", "a"]
    with chunk_rows(5):
        assert cli.format_csv(columns, rows) == oracle_csv(columns, rows)
        assert "".join(cli.WRITERS["json"](columns, rows)) == oracle_json(columns, rows)


#: how a drawn column's values repeat over an outer x inner grid of points
KINDS = ["outer", "inner", "point", "distinct", "zeros", "stride0", "missing", "again"]
POOLS = {"float": [0.0, -0.0, 1.5, -2.5e-5, 1e300, math.nan, math.inf, -math.inf],
         "bool": [False, True], "str": ["", "x", "two words; one, comma"]}


def grid_column(kind, dtype, outer, inner, rng):
    """A numpy column of a kind over the grid, its values drawn from dtype's pool."""
    pool = np.array(POOLS[dtype])
    if kind == "outer":  # a run per outer point: runs cross chunk boundaries
        return np.repeat(pool[rng.integers(0, len(pool), outer)], inner)
    if kind == "inner":
        return np.tile(pool[rng.integers(0, len(pool), inner)], outer)
    if kind == "distinct":  # every value distinct, in no order
        return rng.permutation(outer * inner) * -0.37 + 11.0
    if kind == "zeros":  # runs of 0.0 and -0.0 side by side
        return np.repeat(np.resize([0.0, -0.0, -0.0], outer), inner)
    if kind == "stride0":
        return np.broadcast_to(pool[rng.integers(0, len(pool), 1)], outer * inner)
    return pool[rng.integers(0, len(pool), outer * inner)]


@settings(max_examples=200, **PROPERTY)
# an all-distinct column above VECTOR_MIN, a missing column inside a run group
# and a stride-0 last column; then an all-distinct column below VECTOR_MIN
@example((20, 20), [("outer", "float"), ("distinct", "float"), ("inner", "str"),
                    ("missing", "float"), ("zeros", "float"), ("stride0", "bool")], 0, cli.CHUNK_ROWS)
@example((1, cli.VECTOR_MIN - 1), [("distinct", "float"), ("point", "str"), ("stride0", "float")],
         1, cli.CHUNK_ROWS)
# a 1-D sweep whose 0.0 and -0.0 alternate in runs of one and two rows
@example((30, 1), [("zeros", "float"), ("outer", "bool")], 2, 7)
@given(
    st.tuples(st.sampled_from([1, 2, 3, 7, 16, 25]), st.sampled_from([1, 2, 3, 5, 13, 40])),
    st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(sorted(POOLS))), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 5, 7, cli.CHUNK_ROWS, cli.CHUNK_ROWS]),
)
def test_column_chunks_write_like_row_oracle(grid, spec, seed, chunk):
    # the CSV writer's run groups and its columns of their own, and the JSON
    # writer, on numpy chunks of every kind against the row-wise oracles
    rng, columns, table = np.random.default_rng(seed), [], {}
    for k, (kind, dtype) in enumerate(spec):
        columns.append(columns[-1] if kind == "again" and columns else f"c{k}")
        if kind not in ("missing", "again"):
            table[columns[-1]] = grid_column(kind, dtype, *grid, rng)
    rows = cli.SweepTable(math.prod(grid), lambda lo, hi: {k: v[lo:hi] for k, v in table.items()})
    every = [{k: v[i].item() for k, v in table.items()} for i in range(len(rows))]
    with chunk_rows(chunk):
        assert cli.format_csv(columns, rows) == oracle_csv(columns, every)
        assert "".join(cli.WRITERS["json"](columns, rows)) == oracle_json(columns, every)


def test_sweep_table_rows_are_python_values():
    text = sweep_text(BASES[0], "timing", [("h", 0.5, 5.0, 4, "log"), ("dt_v", 0.0, 0.5, 3, "linear")])
    with chunk_rows(5):
        _, rows, _ = cli.compute_sweep(parse_config(text, CODATA2018), CODATA2018)
        every = list(rows)
        assert len(rows) == len(every) == 12
        assert [rows[i] for i in range(12)] == every
        assert [rows[i] for i in (11, 3, 8, 0)] == [every[i] for i in (11, 3, 8, 0)]
        with pytest.raises(IndexError):
            rows[12]
        with pytest.raises(IndexError):
            rows[-1]
    for row in every:
        assert row["windows_passed"] is True
        assert row.get("warnings") == ""
        assert all(type(value) in (float, bool, str) for value in row.values())


def hex_row(row):
    return {name: value.hex() if type(value) is float else value for name, value in row.items()}


@pytest.mark.parametrize("target, base", [("timing", BASES[0]), ("timing", BASES[3]),
                                          ("switch", SWITCH)],
                         ids=["earth", "unchecked-windows", "switch"])
@pytest.mark.parametrize("chunk", [2, 5, cli.CHUNK_ROWS])
def test_row_read_computes_its_point_alone(monkeypatch, target, base, chunk):
    calls = []

    class Recorded(cli.SweepTable):
        def __init__(self, n, compute):
            def recorded(lo, hi):
                calls.append((lo, hi))
                return compute(lo, hi)
            super().__init__(n, recorded)

    monkeypatch.setattr(cli, "SweepTable", Recorded)
    second = ("dt_v", 0.0, 0.5, 4, "linear") if target == "timing" else ("c4a", 0.0, 1.0, 4, "linear")
    parameter = "h" if target == "timing" else "c1a"
    text = sweep_text(base, target, [(parameter, 0.1, 0.9, 3, "linear"), second])
    with chunk_rows(chunk):
        _, rows, _ = cli.compute_sweep(parse_config(text, CODATA2018), CODATA2018)
        every = [hex_row(row) for row in rows]
        for i in range(len(rows)):
            calls.clear()
            assert hex_row(rows[i]) == every[i]
            assert calls == [(i, i + 1)]
    assert len(every) == 12


def test_switch_summary_is_a_one_point_sweep_row():
    text = sweep_text(SWITCH, "switch", [("c1a", 0.3, 0.3, 1, "linear")])
    config = parse_config(text, CODATA2018)
    (row,) = cli.compute_sweep(config, CODATA2018)[1]
    summary = cli.switch_summary(with_sweep_value(config, "c1a", 0.3))
    assert list(summary) == cli.SWITCH_SUMMARY_COLUMNS
    assert all(type(value) is float for value in summary.values())
    assert [value.hex() for value in summary.values()] == [
        row[name].hex() for name in cli.SWITCH_SUMMARY_COLUMNS]


def test_check_pass_formats_no_warning(monkeypatch):
    # every point warns; its messages are made only when rows or warnings are read
    calls = []

    def counted(check, i):
        calls.append(i)
        return message(check, i)

    message = spacetime.point_message
    monkeypatch.setattr(spacetime, "point_message", counted)
    text = sweep_text(BASES[3], "timing", [("h", 0.5, 5.0, 4, "log"), ("dt_v", 0.0, 0.5, 3, "linear")])
    with chunk_rows(5):
        _, rows, warnings = cli.compute_sweep(parse_config(text, CODATA2018), CODATA2018)
        assert calls == []
        assert all(row["warnings"] for row in rows)
        assert len(calls) == 12
        assert len(list(warnings)) == 12
        assert len(calls) == 24


# ---------------------------------------------------------------------------
# bad points at the domain's boundaries

EARTH_SWEEP = "[body]\npreset = earth\n[sweep]\ntarget = timing\n"

BAD_POINTS = {
    "h <= 0": (
        EARTH_SWEEP + "parameter = h\nmin = -1\nmax = 1\ncount = 5\n",
        "sweep_h=-1: require h > 0 and d > 0, got h=-1.0, d=3e-07"),
    "dt_v < 0": (
        EARTH_SWEEP + "parameter = dt_v\nmin = -1\nmax = 1\ncount = 5\n",
        "sweep_dt_v=-1: dt_v must lie in [0, dt_r=9.15835], got -1.0"),
    "dt_v > dt_r": (
        EARTH_SWEEP + "parameter = dt_v\nmin = 0\nmax = 20\ncount = 5\n",
        "sweep_dt_v=10: dt_v must lie in [0, dt_r=9.15835], got 10.0"),
    "radius below R_S": (
        EARTH_SWEEP + "parameter = radius\nmin = 1e-1\nmax = 1e-3\ncount = 5\nscale = log\n",
        "sweep_radius=0.0010000000000000005: body is not in the weak-field regime: "
        "R_S=0.0088701 m >= R=0.001 m"),
    "mass crossing R_S >= R": (
        EARTH_SWEEP + "parameter = mass\nmin = 1e24\nmax = 1e34\ncount = 11\nscale = log\n",
        "sweep_mass=1.000000000000004e+34: body is not in the weak-field regime: "
        "R_S=1.48523e+07 m >= R=6.371e+06 m"),
    "dtau_1 <= 0": (
        EARTH_SWEEP + "parameter = dtau_1\nmin = -1e-17\nmax = 1e-17\ncount = 3\n",
        "sweep_dtau_1=-1.0000000000000001e-17: require dtau_1 > 0 and eps > 0, "
        "got dtau_1=-1e-17, eps=1e-19"),
    "eps <= 0": (
        EARTH_SWEEP + "parameter = eps\nmin = 0\nmax = 1e-19\ncount = 3\n",
        "sweep_eps=0: require dtau_1 > 0 and eps > 0, got dtau_1=1e-17, eps=0.0"),
    "|c| > 1": (
        "[switch]\nalpha = 1,0,0,0,0\n[sweep]\ntarget = switch\n"
        "parameter = c1a\nmin = 0\nmax = 2\ncount = 5\n",
        "sweep_c1a=1.5: |c1a| must be <= 1, got 1.5"),
    # an earlier point failing a later check is the one named
    "h <= 0 before dt_v > dt_r": (
        EARTH_SWEEP + "parameter = h\nmin = 2\nmax = -2\ncount = 3\n"
        "parameter2 = dt_v\nmin2 = 0\nmax2 = 40\ncount2 = 3\n",
        "sweep_h=-2, sweep_dt_v=0: require h > 0 and d > 0, got h=-2.0, d=3e-07"),
    "mass <= 0 among dt_v > dt_r": (
        EARTH_SWEEP + "parameter = dt_v\nmin = 0\nmax = 30\ncount = 4\n"
        "parameter2 = mass\nmin2 = -1\nmax2 = 1e25\ncount2 = 3\n",
        "sweep_dt_v=0, sweep_mass=-1: mass must be finite and positive, got -1.0"),
    "fixed |c2b| > 1": (
        "[switch]\nalpha = 1,0,0,0,0\nc2b = 1.5\n[sweep]\ntarget = switch\n"
        "parameter = f_ab\nmin = 0\nmax = 2\ncount = 5\nparameter2 = c1a\nmin2 = 0.5\n"
        "max2 = 3\ncount2 = 3\n",
        "sweep_f_ab=0, sweep_c1a=0.5: |c2b| must be <= 1, got 1.5"),
    # the input is no point's: checked once, after every point's model
    "unnormalized alpha": (
        "[switch]\nalpha = 1,1,0,0,0\n[sweep]\ntarget = switch\n"
        "parameter = c1a\nmin = 0\nmax = 1\ncount = 3\n",
        "target amplitudes must be normalized, got |alpha|^2=2.0"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(BAD_POINTS))
def test_bad_point_named_and_nothing_written(tmp_path, capsys, case, fmt):
    text, message = BAD_POINTS[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# memory bounded by the chunk, not the grid

# The child reports its own peak RSS.  Linux keeps ru_maxrss across the
# exec that starts it, so that would report the test runner's peak; VmHWM
# is the peak of the child's own address space.
CHILD = """
import resource, sys
from qswitch import cli
code = cli.main(sys.argv[1:])
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak_kb, file=sys.stderr)
"""


GRID_200K = ("parameter = h\nmin = 0.1\nmax = 10\ncount = 400\nscale = log\n"
             "parameter2 = dt_v\nmin2 = 0\nmax2 = 0.5\ncount2 = 500\n")


def run_child(tmp_path, text, fmt, name="big"):
    """(exit code, peak RSS in MB, table path, stderr path) of a sweep run in
    a child process."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    table, errors = tmp_path / f"{name}.{fmt}", tmp_path / f"{name}.err"
    with open(table, "w") as stdout, open(errors, "w") as stderr:
        run_qswitch("sweep", "--config", str(cfg), "--format", fmt, child=CHILD,
                    stdout=stdout, stderr=stderr)
    with open(errors) as lines:
        *_, last = lines
    code, peak_kb = last.split()
    return code, int(peak_kb) / 1024, table, errors


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_memory_bounded(tmp_path, fmt):
    # 400 x 500 = 200,000 earth points; the run reports its own peak RSS
    code, peak_mb, table, _ = run_child(tmp_path, EARTH_SWEEP + GRID_200K, fmt)
    assert code == "0"
    assert peak_mb <= 150.0
    with open(table) as text:
        if fmt == "csv":
            assert sum(1 for _ in text) == 1 + 200_000
        else:
            assert sum(line == "  {\n" for line in text) == 200_000


def test_sweep_warnings_memory_bounded(tmp_path):
    # without dtau_1 and eps every point warns that its windows are unchecked;
    # the 200,000 warnings must cost no more memory than the table's chunk
    quiet = run_child(tmp_path, EARTH_SWEEP + GRID_200K, "csv", "quiet")
    warned = run_child(tmp_path, BASES[3] + "[sweep]\ntarget = timing\n" + GRID_200K, "csv",
                       "warned")
    assert quiet[0] == warned[0] == "0"
    with open(warned[3]) as lines:
        assert sum(line.startswith("warning: sweep_h=") for line in lines) == 200_000
    assert warned[1] <= quiet[1] + 10.0
