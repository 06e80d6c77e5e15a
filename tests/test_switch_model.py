import cmath
import math

import numpy as np
import pytest

from qswitch.hilbert import (
    FACTOR_DIMS,
    PATH_EARLY,
    PATH_LATE,
    SWITCH_FACTORS,
    basis_state,
    entanglement_entropy,
    project,
)
from qswitch.switch_model import (
    A3,
    A5,
    B3,
    B5,
    E1,
    E2,
    E3,
    E4,
    E5,
    ENERGY_LEVELS,
    AmplitudeModel,
    build_input,
    diagonal_measure,
    interaction_a,
    interaction_b,
    postselect,
    run_switch,
)

from conftest import random_alphas, random_model
from test_hilbert import dense_full_matrix

DIMS = tuple(FACTOR_DIMS[f] for f in SWITCH_FACTORS)


# ---------------------------------------------------------------------------
# independent amplitude-algebra oracle: assembles the final register state
# directly from the per-process amplitudes, never touching SparseOperator

def _complement(c, phase):
    return cmath.exp(1j * phase) * math.sqrt(1.0 - abs(c) ** 2)


def oracle_pre_measurement(alphas, model):
    a = np.asarray(alphas, dtype=complex)
    d1a = _complement(model.c1a, model.delta_1a)
    d4a = _complement(model.c4a, model.delta_4a)
    d1b = _complement(model.c1b, model.delta_1b)
    d2b = _complement(model.c2b, model.delta_2b)
    g_ba = _complement(model.f_ba, model.gamma_ba)
    g_ab = _complement(model.f_ab, model.gamma_ab)

    amps = np.zeros(DIMS, dtype=complex)
    w = 1.0 / math.sqrt(2.0)

    def add(path, lev_a, lev_b, photon, det_a, det_b, amp):
        amps[path, lev_a, lev_b, photon, det_a, det_b] += w * amp

    both_fail = [
        (E1, a[0] * d1a * d1b),
        (E2, a[1] * d2b),   # off-channel complements carry unit amplitude
        (E3, a[2]),
        (E4, a[3] * d4a),
        (E5, a[4]),
    ]

    # early branch: scatter off A, then off B
    add(PATH_EARLY, A3, B5, E3, 0, 0, a[0] * model.c1a * model.f_ba)
    add(PATH_EARLY, A3, B5, E2, 0, 1, a[0] * model.c1a * g_ba)
    add(PATH_EARLY, A5, B5, E5, 0, 1, a[3] * model.c4a)
    add(PATH_EARLY, A5, B3, E4, 1, 0, a[0] * d1a * model.c1b)
    add(PATH_EARLY, A5, B5, E3, 1, 0, a[1] * model.c2b)
    for photon, amp in both_fail:
        add(PATH_EARLY, A5, B5, photon, 1, 1, amp)

    # late branch: scatter off B, then off A
    add(PATH_LATE, A5, B3, E5, 0, 0, a[0] * model.c1b * model.f_ab)
    add(PATH_LATE, A5, B3, E4, 1, 0, a[0] * model.c1b * g_ab)
    add(PATH_LATE, A5, B5, E3, 1, 0, a[1] * model.c2b)
    add(PATH_LATE, A3, B5, E2, 0, 1, a[0] * d1b * model.c1a)
    add(PATH_LATE, A5, B5, E5, 0, 1, a[3] * model.c4a)
    for photon, amp in both_fail:
        add(PATH_LATE, A5, B5, photon, 1, 1, amp)

    return amps.reshape(-1)


def dense_product_pre_measurement(alphas, model):
    """Second oracle: explicit dense matrix products with path control."""
    u_a1 = dense_full_matrix(interaction_a(model, "first"))
    u_b2 = dense_full_matrix(interaction_b(model, "after_a"))
    u_b1 = dense_full_matrix(interaction_b(model, "first"))
    u_a2 = dense_full_matrix(interaction_a(model, "after_b"))
    path_axis = SWITCH_FACTORS.index("path")
    proj = {}
    for value in (PATH_EARLY, PATH_LATE):
        mask = np.zeros(DIMS)
        index = [slice(None)] * len(DIMS)
        index[path_axis] = value
        mask[tuple(index)] = 1.0
        proj[value] = np.diag(mask.reshape(-1))
    composite = (
        proj[PATH_EARLY] @ (u_b2 @ u_a1) @ proj[PATH_EARLY]
        + proj[PATH_LATE] @ (u_a2 @ u_b1) @ proj[PATH_LATE]
    )
    return composite @ build_input(alphas).amps


class TestEnergyLevelMap:
    def test_agent_a_channels(self):
        assert ENERGY_LEVELS.absorb_a[E1].photon_out == E2
        assert ENERGY_LEVELS.absorb_a[E1].level_out == A3
        assert ENERGY_LEVELS.absorb_a[E4].photon_out == E5
        assert ENERGY_LEVELS.absorb_a[E4].level_out == A5
        assert set(ENERGY_LEVELS.absorb_a) == {E1, E4}

    def test_agent_b_channels(self):
        assert ENERGY_LEVELS.absorb_b[E1].photon_out == E4
        assert ENERGY_LEVELS.absorb_b[E1].level_out == B3
        assert ENERGY_LEVELS.absorb_b[E2].photon_out == E3
        assert ENERGY_LEVELS.absorb_b[E2].level_out == B5
        assert set(ENERGY_LEVELS.absorb_b) == {E1, E2}

    def test_rest_levels(self):
        assert ENERGY_LEVELS.rest_a == A5
        assert ENERGY_LEVELS.rest_b == B5


class TestAmplitudeModel:
    def test_channel_unitarity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            model = random_model(rng)
            for c, d in (
                (model.c1a, model.d_a(E1)),
                (model.c4a, model.d_a(E4)),
                (model.c1b, model.d_b(E1)),
                (model.c2b, model.d_b(E2)),
                (model.f_ba, model.g_ba),
                (model.f_ab, model.g_ab),
            ):
                assert abs(c) ** 2 + abs(d) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_off_channel_complements_are_unity(self):
        rng = np.random.default_rng(32)
        model = random_model(rng)
        for photon in (E2, E3, E5):
            assert model.d_a(photon) == 1.0
        for photon in (E3, E4, E5):
            assert model.d_b(photon) == 1.0

    def test_rejects_super_unit_modulus(self):
        with pytest.raises(ValueError):
            AmplitudeModel(c1a=1.5)
        with pytest.raises(ValueError):
            AmplitudeModel(f_ab=1.0001)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AmplitudeModel(c1a=complex(math.nan, 0.0))
        with pytest.raises(ValueError, match="finite"):
            AmplitudeModel(delta_1a=math.inf)


class TestInteractionOperators:
    def test_a_full_absorption_limits(self):
        op = interaction_a(AmplitudeModel(), "first")
        mat = op.as_matrix()
        src = np.ravel_multi_index((1, E1, 0), op.dims)
        dst = np.ravel_multi_index((A3, E2, 0), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)
        src4 = np.ravel_multi_index((1, E4, 0), op.dims)
        dst4 = np.ravel_multi_index((A5, E5, 0), op.dims)
        assert mat[dst4, src4] == pytest.approx(1.0)

    def test_a_witness_on_unabsorbable_photon(self):
        op = interaction_a(AmplitudeModel(), "first")
        mat = op.as_matrix()
        src = np.ravel_multi_index((1, E3, 0), op.dims)
        dst = np.ravel_multi_index((A5, E3, 1), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)  # photon untouched, witness out

    def test_b_full_absorption_limits(self):
        op = interaction_b(AmplitudeModel(), "first")
        mat = op.as_matrix()
        src = np.ravel_multi_index((0, E2, 0), op.dims)
        dst = np.ravel_multi_index((B5, E3, 0), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)
        src1 = np.ravel_multi_index((0, E1, 0), op.dims)
        dst1 = np.ravel_multi_index((B3, E4, 0), op.dims)
        assert mat[dst1, src1] == pytest.approx(1.0)

    def test_b_witness_on_unabsorbable_photon(self):
        op = interaction_b(AmplitudeModel(), "first")
        mat = op.as_matrix()
        src = np.ravel_multi_index((0, E5, 0), op.dims)
        dst = np.ravel_multi_index((B5, E5, 1), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)

    def test_second_pass_uses_double_scattering_amplitude(self):
        model = AmplitudeModel(f_ba=0.5j, c2b=0.25)
        op = interaction_b(model, "after_a")
        mat = op.as_matrix()
        # photon re-emitted by A (marker level A3): f amplitude
        src = np.ravel_multi_index((A3, 0, E2, 0), op.dims)
        dst = np.ravel_multi_index((A3, B5, E3, 0), op.dims)
        assert mat[dst, src] == pytest.approx(0.5j)
        # fresh photon (agent A idle in rest level): ordinary amplitude
        src_f = np.ravel_multi_index((A5, 0, E2, 0), op.dims)
        dst_f = np.ravel_multi_index((A5, B5, E3, 0), op.dims)
        assert mat[dst_f, src_f] == pytest.approx(0.25)

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError):
            interaction_a(AmplitudeModel(), "later")

    def test_all_operators_isometric_for_random_models(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            model = random_model(rng)
            assert interaction_a(model, "first").is_isometry()
            assert interaction_a(model, "after_b").is_isometry()
            assert interaction_b(model, "first").is_isometry()
            assert interaction_b(model, "after_a").is_isometry()


class TestBuildInput:
    def test_single_energy_input(self):
        state = build_input([1, 0, 0, 0, 0])
        rows = state.nonzero_rows()
        assert len(rows) == 2  # both path branches
        for idx, amp in rows:
            assert idx[1] == 1 and idx[2] == 0 and idx[3] == E1
            assert idx[4] == 0 and idx[5] == 0
            assert amp == pytest.approx(1 / math.sqrt(2))

    def test_uniform_input_norm(self):
        state = build_input(np.ones(5) / math.sqrt(5.0))
        assert state.norm == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            build_input([1, 1, 0, 0, 0])
        with pytest.raises(ValueError):
            build_input([1, 0, 0])
        with pytest.raises(ValueError):
            build_input([math.nan, 0, 0, 0, 0])


class TestIdealRuns:
    def test_e1_switch_composite(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        expected = (
            basis_state({"path": PATH_EARLY, "agentA": A3, "agentB": B5,
                         "target": E3, "detA": 0, "detB": 0})
            + basis_state({"path": PATH_LATE, "agentA": A5, "agentB": B3,
                           "target": E5, "detA": 0, "detB": 0})
        ) * (1 / math.sqrt(2))
        assert np.allclose(outcome.pre_measurement.amps, expected.amps, atol=1e-12)
        assert outcome.zeta_probabilities[3] == pytest.approx(1.0, abs=1e-12)

    def test_e1_diagonal_measurement(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        state3, _ = postselect(outcome, 3)
        results, remainder = diagonal_measure(state3, "agents")
        assert remainder == pytest.approx(0.0, abs=1e-12)
        for res, sign in zip(results, (1.0, -1.0)):
            assert res.probability == pytest.approx(0.5, abs=1e-12)
            expected = np.zeros(5, dtype=complex)
            expected[E3] = 1 / math.sqrt(2)
            expected[E5] = sign / math.sqrt(2)
            assert res.residual.factors == ("target",)
            assert np.allclose(res.residual.amps, expected, atol=1e-12)

    def test_e4_trivial_switch(self):
        outcome = run_switch(build_input([0, 0, 0, 1, 0]), AmplitudeModel())
        # both orders leave the same product state: photon shifted once,
        # agent B's witness out, target already disentangled
        assert outcome.zeta_probabilities[2] == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(outcome.pre_measurement, ("target",)) < 1e-12
        state2, _ = postselect(outcome, 2)
        target_block, prob = project(state2, {"target": E5})
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_e4_needs_no_agent_measurement(self):
        # path-only diagonal readout already lands on the + branch with
        # certainty: nothing left to erase
        outcome = run_switch(build_input([0, 0, 0, 1, 0]), AmplitudeModel())
        state2, _ = postselect(outcome, 2)
        results, _ = diagonal_measure(state2, "path")
        assert results[0].probability == pytest.approx(1.0, abs=1e-12)
        assert results[1].probability == pytest.approx(0.0, abs=1e-12)


class TestGenericModels:
    def test_amplitude_algebra_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            model = random_model(rng)
            alphas = random_alphas(rng)
            outcome = run_switch(build_input(alphas), model)
            expected = oracle_pre_measurement(alphas, model)
            assert np.allclose(outcome.pre_measurement.amps, expected, atol=1e-12)

    def test_dense_product_oracle(self):
        rng = np.random.default_rng(35)
        for _ in range(10):  # dense embeddings are slow; acceptance runs 100
            model = random_model(rng)
            alphas = random_alphas(rng)
            outcome = run_switch(build_input(alphas), model)
            expected = dense_product_pre_measurement(alphas, model)
            assert np.allclose(outcome.pre_measurement.amps, expected, atol=1e-12)

    def test_postselection_completeness(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            outcome = run_switch(build_input(random_alphas(rng)), random_model(rng))
            assert sum(outcome.zeta_probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_order_sensitivity_confined_to_first_energy(self):
        # with no amplitude on e1 the two branch states coincide exactly
        rng = np.random.default_rng(37)
        for _ in range(25):
            model = random_model(rng)
            alphas = random_alphas(rng)
            alphas[0] = 0.0
            alphas = alphas / np.linalg.norm(alphas)
            outcome = run_switch(build_input(alphas), model)
            tensor = outcome.pre_measurement.amps.reshape(DIMS)
            early, late = tensor[PATH_EARLY], tensor[PATH_LATE]
            assert np.allclose(early, late, atol=1e-12)

    def test_zeta3_universality(self):
        # the no-witness state depends only on the e1 component
        rng = np.random.default_rng(38)
        model = random_model(rng)
        alpha1 = 0.6
        reference = None
        for _ in range(10):
            rest = rng.normal(size=4) + 1j * rng.normal(size=4)
            rest = rest * math.sqrt(1.0 - alpha1**2) / np.linalg.norm(rest)
            alphas = np.concatenate([[alpha1], rest])
            outcome = run_switch(build_input(alphas), model)
            state3, prob3 = postselect(outcome, 3)
            assert prob3 > 0
            if reference is None:
                reference = state3.amps
            else:
                assert np.allclose(state3.amps, reference, atol=1e-12)

    def test_zeta3_probability_tracks_e1_weight(self):
        rng = np.random.default_rng(39)
        model = random_model(rng)
        expected_rate = (
            abs(model.c1a * model.f_ba) ** 2 + abs(model.c1b * model.f_ab) ** 2
        ) / 2.0
        for alpha1 in (0.2, 0.5, 0.9):
            alphas = np.array([alpha1, 0, 0, 0, math.sqrt(1 - alpha1**2)])
            outcome = run_switch(build_input(alphas), model)
            assert outcome.zeta_probabilities[3] == pytest.approx(
                alpha1**2 * expected_rate, abs=1e-12
            )

    def test_zero_probability_class_flagged(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        state0, prob0 = postselect(outcome, 0)
        assert prob0 == pytest.approx(0.0, abs=1e-12)
        assert state0 is None

    def test_generic_postselected_diagonal_residuals(self):
        # path-mode residual must reproduce (early block +/- late block),
        # normalized, straight from the oracle state
        rng = np.random.default_rng(40)
        for _ in range(20):
            model = random_model(rng)
            alphas = random_alphas(rng)
            outcome = run_switch(build_input(alphas), model)
            oracle = oracle_pre_measurement(alphas, model).reshape(DIMS)
            for zeta, (det_a, det_b) in ((0, (1, 1)), (1, (1, 0)), (2, (0, 1)), (3, (0, 0))):
                state, prob = postselect(outcome, zeta)
                if state is None:
                    continue
                block = oracle[:, :, :, :, det_a, det_b]
                results, _ = diagonal_measure(state, "path")
                for res, sign in zip(results, (1.0, -1.0)):
                    combo = (block[PATH_EARLY] + sign * block[PATH_LATE]).reshape(-1)
                    norm = np.linalg.norm(combo)
                    if norm < 1e-12:
                        assert res.probability == pytest.approx(0.0, abs=1e-12)
                        continue
                    assert np.allclose(
                        res.residual.amps, combo / norm, atol=1e-12
                    )

    def test_postselect_rejects_bad_zeta(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        with pytest.raises(ValueError):
            postselect(outcome, 4)
