"""Property tests of the switch register over arbitrary models and inputs."""

import cmath
import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qswitch import cli
from qswitch.config import ScenarioConfig
from qswitch.hilbert import FACTOR_DIMS, SWITCH_FACTORS
from qswitch.switch_model import (
    DETECTOR_PATTERNS,
    AmplitudeModel,
    build_input,
    diagonal_measure,
    run_switch,
    switch_summaries,
)

from test_switch_model import dense_oracle_state

DIMS = tuple(FACTOR_DIMS[f] for f in SWITCH_FACTORS)
AMPLITUDES = ("c1a", "c4a", "c1b", "c2b", "f_ba", "f_ab")
PHASES = ("delta_1a", "delta_4a", "delta_1b", "delta_2b", "gamma_ba", "gamma_ab")

unit_disk = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi),
)
models = st.builds(
    AmplitudeModel,
    **{name: unit_disk for name in AMPLITUDES},
    **{name: st.floats(-10.0, 10.0) for name in PHASES},
)
alphas = (
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=5, max_size=5)
    .map(np.array)
    .filter(lambda a: np.linalg.norm(a) > 1e-3)
    .map(lambda a: a / np.linalg.norm(a))
)


# derandomized so that every run checks the same examples
PROPERTY = dict(deadline=None, database=None, derandomize=True)


def _config(alpha, model):
    config = ScenarioConfig()
    fields = {name: getattr(model, name) for name in AMPLITUDES + PHASES}
    config.switch = dataclasses.replace(config.switch, alpha=tuple(alpha), **fields)
    return config


@settings(max_examples=200, **PROPERTY)
@given(models, alphas)
def test_run_switch_conserves_norm(model, alpha):
    outcome = run_switch(build_input(alpha), model)
    assert abs(np.linalg.norm(outcome.pre_measurement.amps) - 1.0) <= 1e-12
    assert abs(sum(outcome.zeta_probabilities) - 1.0) <= 1e-12
    assert abs(switch_summaries(build_input(alpha), [model.coefficients()])[0, :4].sum() - 1.0) <= 1e-12


@settings(max_examples=100, **PROPERTY)
@given(models, alphas)
def test_zeta3_readout_matches_diagonal_measure(model, alpha):
    row = switch_summaries(build_input(alpha), [model.coefficients()])[0]
    state3 = run_switch(build_input(alpha), model).postselection(3).state
    expected = [0.0, 0.0]
    if state3 is not None:
        expected = [res.probability for res in diagonal_measure(state3, "agents")[0]]
    assert abs(row[4] - expected[0]) <= 1e-12
    assert abs(row[5] - expected[1]) <= 1e-12


@settings(max_examples=200, **PROPERTY)
@given(models, alphas)
def test_typed_run_reads_out_as_a_sweep(model, alpha):
    config = _config(alpha, model)
    rows = {(r["zeta"], r["mode"], r["outcome"]): r for r in cli.compute_switch(config)[1]}
    typed = [rows[zeta, "agents", "+"]["zeta_probability"] for zeta in DETECTOR_PATTERNS]
    typed += [rows[3, "agents", sign]["outcome_probability"] for sign in "+-"]
    sweep = cli.switch_summary(config)
    assert [value.hex() for value in typed] == [sweep[name].hex() for name in cli.SWITCH_SUMMARY_COLUMNS]


@settings(max_examples=50, **PROPERTY)
@given(st.lists(models, min_size=1, max_size=8), alphas)
def test_batch_rows_equal_single_summaries(batch, alpha):
    rows = switch_summaries(build_input(alpha), [model.coefficients() for model in batch])
    for row, model in zip(rows.tolist(), batch):
        single = cli.switch_summary(_config(alpha, model))
        assert row == [single[name] for name in cli.SWITCH_SUMMARY_COLUMNS]  # bit for bit


@settings(max_examples=8, **PROPERTY)
@given(models, alphas)
def test_zeta_probabilities_match_dense_product(model, alpha):
    dense = dense_oracle_state(alpha, model).reshape(DIMS)
    batch = switch_summaries(build_input(alpha), [model.coefficients()])[0]
    single = run_switch(build_input(alpha), model).zeta_probabilities
    for zeta, (det_a, det_b) in DETECTOR_PATTERNS.items():
        expected = float(np.sum(np.abs(dense[..., det_a, det_b]) ** 2))
        assert abs(batch[zeta] - expected) <= 1e-12
        assert abs(single[zeta] - expected) <= 1e-12
