"""cli._format_17g, the numpy "%.17g" of sweep CSV floats, against Python's.

Every array handed to it here is at least cli.VECTOR_MIN long, so that the
vectorized path formats it, not the Python path it falls back to.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qswitch import cli

from conftest import run_qswitch


#: the suffixes the CSV writer gives a cell: none, a column separator, a row end
ENDS = ("", ",", "\n")


def assert_formats_like_python(values):
    x = np.resize(np.array(values, dtype=float), max(len(values), cli.VECTOR_MIN))
    assert cli._format_17g(x) == ["%.17g" % v for v in x.tolist()]
    for end in ENDS:
        assert cli._format_17g(x, end) == ["%.17g" % v + end for v in x.tolist()]


def neighbours(*values):
    return [v for x in values for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


# derandomized so that every run checks the same examples
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
# an exact rounding tie (y = 2**-25 * 10**24 ends in ...5), the least subnormal
@example([2.0**-25, 5e-324])
# y within the double-double's error of a tie (m 2**-k with m 5**s near an odd
# multiple of 2**(k - s - 1)): only the 2**-30 margin sends them to Python
@example([9.508396845224331e-07, 3.888475069819475e-07, 2.2422607587866907e-07,
          4.9102966142601843e-08, 4.8677287764934085e-09])
# the bounds of the certified range and their neighbours
@example(neighbours(1e-280, 1e280))
# the last fixed-notation exponent and the rounding up to 10**17
@example([1e16, 1e17 - 16, 9.999999999999999e16])
# the switch from scientific to fixed notation at 1e-4
@example(neighbours(9.9999999999999995e-5, 1e-4))
@example([1e100, 1e-100, 1e300, 1e-300])
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=50))
def test_formats_like_python(values):
    # st.floats gives +-0, +-inf and nan among the rest
    assert_formats_like_python(values + [-v for v in values])


def test_random_bit_patterns_format_like_python():
    bits = np.random.default_rng(20240531).integers(-2**63, 2**63, 100_000, dtype=np.int64)
    assert_formats_like_python(bits.view(float).tolist())


@pytest.mark.parametrize("end", ENDS)
@pytest.mark.parametrize("length", [1, cli.VECTOR_MIN - 1, cli.VECTOR_MIN])
def test_suffix_follows_every_value(end, length):
    # the Python path below VECTOR_MIN and the numpy path at it, with values
    # of every layout: fixed and scientific, both signs, and Python's zeros,
    # infinities and nan among them
    pool = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300, -2.5e-5, 1e-4,
            0.1, -1.0, 123456.789, 1e16, -9.999999999999999e16, 1e17, 3.3e-100]
    x = np.resize(np.array(pool), length)
    assert cli._format_17g(x, end) == ["%.17g" % v + end for v in x.tolist()]


IMPORT_ONLY = """
import sys
from qswitch import cli
print(sorted({"fractions", "decimal"} & set(sys.modules)), cli._digit_tables.cache_info().currsize)
"""


def test_import_loads_no_tables():
    # a fresh `import qswitch.cli` pays for neither module nor the formatter's
    # tables, which are built when a long float column is first formatted
    result = run_qswitch(child=IMPORT_ONLY, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] 0\n"
