import math

import mpmath as mp
import numpy as np
import pytest

from qswitch.spacetime import (
    CODATA2018,
    CentralBody,
    DomainError,
    PhysicalConstants,
    check_domain,
    dilation_difference,
    dilation_factor,
    each_distinct,
    point_failures,
    schwarzschild_radius,
)

from conftest import EARTH_MASS, EARTH_RADIUS

mp.mp.dps = 40


def oracle_dilation(r, body):
    """>=30-digit evaluation of sqrt(1 - R_S/r) at the exact double inputs."""
    k = body.constants
    r_s = 2 * mp.mpf(k.G) * mp.mpf(body.mass) / mp.mpf(k.c) ** 2
    return mp.sqrt(1 - r_s / mp.mpf(r))


def oracle_difference(r_hi, r_lo, body):
    return oracle_dilation(r_hi, body) - oracle_dilation(r_lo, body)


def naive_difference(r_hi, r_lo, body):
    # the two-square-root subtraction the production path must avoid
    r_s = body.schwarzschild_radius
    return math.sqrt(1.0 - r_s / r_hi) - math.sqrt(1.0 - r_s / r_lo)


class TestSchwarzschildRadius:
    def test_earth_value(self, earth):
        # frozen from 2GM/c^2 with CODATA G, c and M = 5.9722e24 kg
        assert earth.schwarzschild_radius == pytest.approx(8.8701028718461e-3, rel=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            schwarzschild_radius(0.0)
        with pytest.raises(ValueError):
            schwarzschild_radius(-1.0)

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError, match="mass must be positive, got nan"):
            schwarzschild_radius(math.nan)

    def test_inverted_definition(self):
        k = CODATA2018
        mass = k.c**2 / (2.0 * k.G)
        assert schwarzschild_radius(mass) == pytest.approx(1.0, rel=1e-15)

    def test_weak_field_enforced_at_construction(self):
        k = CODATA2018
        mass = k.c**2 / (2.0 * k.G)  # R_S = 1 m
        with pytest.raises(ValueError):
            CentralBody(mass, 0.5)
        CentralBody(mass, 10.0)  # exterior body is fine

    def test_derived_body_quantities(self, earth):
        g = CODATA2018.G * EARTH_MASS / EARTH_RADIUS**2
        assert earth.surface_gravity == pytest.approx(g, rel=1e-15)
        r0101 = -CODATA2018.c**2 * earth.schwarzschild_radius / EARTH_RADIUS**3
        assert earth.curvature_r0101 == pytest.approx(r0101, rel=1e-15)
        assert earth.curvature_r0101 < 0


class TestDilationFactor:
    def test_flat_space_limit(self, earth):
        assert dilation_factor(1e30, earth) == pytest.approx(1.0, abs=1e-15)

    def test_two_schwarzschild_radii(self):
        k = CODATA2018
        body = CentralBody(k.c**2 / (2.0 * k.G), 10.0)  # R_S = 1 m
        assert dilation_factor(2.0, body) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_earth_surface_against_series_oracle(self, earth):
        x = earth.schwarzschild_radius / EARTH_RADIUS
        series = 1.0 - x / 2.0 - x * x / 8.0
        value = dilation_factor(EARTH_RADIUS, earth)
        assert value == pytest.approx(series, abs=1e-22)
        # frozen magnitude of the surface deficit
        assert 1.0 - value == pytest.approx(6.961311e-10, rel=1e-6)

    def test_rejects_interior_radii(self, earth):
        with pytest.raises(ValueError):
            dilation_factor(earth.schwarzschild_radius, earth)
        with pytest.raises(ValueError):
            dilation_factor(0.5 * earth.schwarzschild_radius, earth)

    def test_rejects_nan_radius(self, earth):
        with pytest.raises(ValueError, match="radius nan m is not outside"):
            dilation_factor(math.nan, earth)

    def test_monotone_increasing_below_one(self, earth):
        radii = [EARTH_RADIUS * f for f in (0.5, 1.0, 2.0, 10.0, 1e3, 1e6)]
        values = [dilation_factor(r, earth) for r in radii]
        assert all(0.0 < v < 1.0 for v in values)
        assert values == sorted(values)


class TestDilationDifference:
    def test_one_meter_against_oracle(self, earth):
        value = dilation_difference(EARTH_RADIUS + 1.0, EARTH_RADIUS, earth)
        oracle = float(oracle_difference(EARTH_RADIUS + 1.0, EARTH_RADIUS, earth))
        assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)
        assert value == pytest.approx(1.0927e-16, rel=1e-3, abs=0.0)

    def test_degenerate_input_returns_zero(self, earth):
        assert dilation_difference(EARTH_RADIUS, EARTH_RADIUS, earth) == 0.0

    def test_far_limit(self):
        k = CODATA2018
        body = CentralBody(k.c**2 / (2.0 * k.G), 10.0)  # R_S = 1 m
        value = dilation_difference(1e18, 2.0, body)
        assert value == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-12)

    def test_ordering_violation(self, earth):
        with pytest.raises(ValueError):
            dilation_difference(EARTH_RADIUS, EARTH_RADIUS + 1.0, earth)
        with pytest.raises(ValueError):
            dilation_difference(EARTH_RADIUS, 0.5 * earth.schwarzschild_radius, earth)

    def test_rejects_nan_radii(self, earth):
        with pytest.raises(ValueError, match="ordering violated: r_hi=nan"):
            dilation_difference(math.nan, EARTH_RADIUS, earth)
        with pytest.raises(ValueError, match="lower radius nan m"):
            dilation_difference(EARTH_RADIUS, math.nan, earth)

    def test_positive(self, earth):
        for h in (1e-3, 1.0, 1e3):
            assert dilation_difference(EARTH_RADIUS + h, EARTH_RADIUS, earth) > 0.0

    def test_oracle_agreement_across_heights(self, earth):
        # safe path holds ~15 digits over six decades of separation
        for h in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3):
            value = dilation_difference(EARTH_RADIUS + h, EARTH_RADIUS, earth)
            oracle = float(oracle_difference(EARTH_RADIUS + h, EARTH_RADIUS, earth))
            assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_naive_subtraction_fails_below_one_meter(self, earth):
        # at sub-meter separations the true difference is below one ulp of
        # the dilation factors, so the direct subtraction returns 0 or a
        # whole ulp; the regression pins the big deviations
        deviations = {}
        for h in (1e-3, 0.01, 0.1, 0.25, 0.5):
            safe = dilation_difference(EARTH_RADIUS + h, EARTH_RADIUS, earth)
            naive = naive_difference(EARTH_RADIUS + h, EARTH_RADIUS, earth)
            deviations[h] = abs(naive - safe) / safe
        assert all(dev > 0.10 for dev in deviations.values())
        assert max(deviations.values()) > 0.90


class TestPhysicalConstants:
    def test_defaults_are_codata(self):
        assert CODATA2018.c == 299792458.0
        assert CODATA2018.G == 6.67430e-11
        assert CODATA2018.hbar == 1.054571817e-34

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(c=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PhysicalConstants(G=bad)
        with pytest.raises(ValueError, match="finite"):
            CentralBody(bad, EARTH_RADIUS)
        with pytest.raises(ValueError, match="finite"):
            CentralBody(EARTH_MASS, bad)

    def test_injectable(self):
        k = PhysicalConstants(c=1.0, G=1.0, hbar=1.0)
        body = CentralBody(0.1, 10.0, k)
        assert body.schwarzschild_radius == pytest.approx(0.2, rel=1e-15)


class TestEachDistinct:
    @staticmethod
    def counted(fn):
        """fn of each value of an array, and the list of values it was called
        with; it may be called once only."""
        calls = []

        def wrapped(values):
            assert not calls
            calls.extend(values.tolist())
            return list(map(fn, values.tolist()))

        return wrapped, calls

    def test_one_call_per_distinct_value(self):
        fn, calls = self.counted(math.asinh)
        column = np.array([3.0, 1.5, 3.0, 7.0, 1.5, 3.0])
        result = each_distinct(fn, column, float)
        assert sorted(calls) == [1.5, 3.0, 7.0]
        assert result.tobytes() == np.array([math.asinh(x) for x in column.tolist()]).tobytes()

    def test_signed_zeros_get_separate_calls(self):
        fn, calls = self.counted(lambda x: math.copysign(1.0, x))
        result = each_distinct(fn, np.array([0.0, -0.0, 0.0, -0.0]), float)
        assert len(calls) == 2
        assert result.tolist() == [1.0, -1.0, 1.0, -1.0]

    def test_stride_zero_column_makes_one_call(self):
        fn, calls = self.counted(math.asinh)
        column = np.broadcast_to(np.array(2.0), (5,))
        result = each_distinct(fn, column, float)
        assert result.tolist() == [math.asinh(2.0)] * 5
        assert calls == [2.0]
        assert result.strides == (0,)  # the broadcast value, not a copy per point

    @pytest.mark.parametrize("column", [np.array([True, False, True, True]),
                                        np.array(["b", "a", "b", "a"])])
    def test_other_dtypes_keyed_by_value(self, column):
        fn, calls = self.counted(repr)
        result = each_distinct(fn, column, object)
        assert sorted(calls) == sorted(set(column.tolist()))
        assert result.tolist() == [repr(v) for v in column.tolist()]


class TestPointFailures:
    """point_failures: each failing point of n with its checks' messages."""

    X = np.array([1.0, -2.0, 3.0, -4.0])

    def test_scalar_checks(self):
        checks = [(False, "never"), (True, "always {}", 7.5)]
        assert list(point_failures(checks, 1)) == [(0, ["always 7.5"])]
        assert list(point_failures([(False, "never")], 1)) == []

    def test_column_checks(self):
        checks = [(self.X < 0, "negative {}", self.X), (self.X > 2, "large {}", self.X)]
        assert list(point_failures(checks, 4)) == [
            (1, ["negative -2.0"]), (2, ["large 3.0"]), (3, ["negative -4.0"])]

    def test_mixed_checks(self):
        checks = [(self.X < 0, "negative {} of {}", self.X, 4), (False, "never")]
        assert list(point_failures(checks, 4)) == [(1, ["negative -2.0 of 4"]),
                                                   (3, ["negative -4.0 of 4"])]

    def test_scalar_true_covers_every_point(self):
        checks = [(self.X > 2, "large {}", self.X), (True, "unchecked")]
        assert list(point_failures(checks, 4)) == [
            (0, ["unchecked"]), (1, ["unchecked"]), (2, ["large 3.0", "unchecked"]),
            (3, ["unchecked"])]

    def test_zero_d_numpy_booleans_at_one_point(self):
        x = np.float64(-1.0)
        checks = [(np.logical_not(x > 0), "not positive {}", x), (np.bool_(False), "never")]
        assert list(point_failures(checks, 1)) == [(0, ["not positive -1.0"])]

    def test_messages_in_check_order(self):
        checks = [(self.X < 5, "first {}", self.X), (True, "second"),
                  (self.X != 0, "third {}", self.X)]
        assert [messages for _, messages in point_failures(checks, 4)] == [
            [f"first {x}", "second", f"third {x}"] for x in self.X.tolist()]

    @pytest.mark.parametrize("checks, index, message", [
        ([(X > 2, "large {}", X), (X < 0, "negative {}", X)], 1, "negative -2.0"),
        ([(X < 0, "negative {}", X), (X > 0, "positive {}", X)], 0, "positive 1.0"),
        ([(X < 0, "negative {}", X), (True, "always")], 0, "always"),
        ([(np.bool_(True), "always"), (X < 0, "negative {}", X)], 0, "always"),
        ([(X > 0, "positive {}", X), (X > 2, "large {}", X)], 0, "positive 1.0"),
    ])
    def test_first_failure_is_what_check_domain_raises(self, checks, index, message):
        i, messages = next(point_failures(checks, len(self.X)))
        assert (i, messages[0]) == (index, message)
        with pytest.raises(DomainError) as caught:
            check_domain(*checks)
        assert (caught.value.index, str(caught.value)) == (index, message)
