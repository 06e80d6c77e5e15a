import cmath
import math

import mpmath
import numpy as np
import pytest

from qswitch import switch_model
from qswitch.hilbert import (
    FACTOR_DIMS,
    PATH_EARLY,
    PATH_LATE,
    SWITCH_FACTORS,
    StateVector,
    basis_state,
    measure_in_basis,
    project,
)
from qswitch.switch_model import (
    A3,
    A5,
    B3,
    B5,
    COEFFICIENTS,
    DETECTOR_PATTERNS,
    DIAGONAL_BRANCHES,
    E1,
    E2,
    E3,
    E4,
    E5,
    ENERGY_LEVELS,
    AmplitudeModel,
    build_input,
    complement,
    diagonal_measure,
    interaction,
    interaction_a,
    interaction_b,
    run_switch,
)

from conftest import as_matrix, entanglement_entropy, is_isometry, random_alphas, random_model

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


def _stage_matrix(model, agent, second):
    """Dense matrix of one agent's scattering on the whole register, built
    from the level diagram and the model's per-channel amplitudes.

    The agent acts on basis elements where it is ready and its detector
    clear: a photon in its absorption table is absorbed with amplitude c,
    and with the complement d it passes while the agent falls to rest and
    its witness flips; any other photon passes with amplitude 1.  Acting
    second, it meets the photon the other agent re-emitted from its e1
    absorption with the double-scattering pair (f, g) instead.
    """
    me, them = ENERGY_LEVELS[agent], ENERGY_LEVELS["b" if agent == "a" else "a"]
    fresh = {
        "a": {E1: (model.c1a, _complement(model.c1a, model.delta_1a)),
              E4: (model.c4a, _complement(model.c4a, model.delta_4a))},
        "b": {E1: (model.c1b, _complement(model.c1b, model.delta_1b)),
              E2: (model.c2b, _complement(model.c2b, model.delta_2b))},
    }[agent]
    double = {"a": (model.f_ab, _complement(model.f_ab, model.gamma_ab)),
              "b": (model.f_ba, _complement(model.f_ba, model.gamma_ba))}[agent]
    own, det, outside, target = (SWITCH_FACTORS.index(name) for name in (
        me.factor, me.detector, them.factor, "target"))
    ready, rest, absorb, marker = me.ready, me.rest, me.absorb, them.absorb[E1]
    matrix = np.zeros((math.prod(DIMS),) * 2, dtype=complex)

    def add(src, changes, amp):
        dst = list(src)
        for axis, value in changes.items():
            dst[axis] = value
        matrix[np.ravel_multi_index(dst, DIMS), np.ravel_multi_index(src, DIMS)] += amp

    for src in np.ndindex(*DIMS):
        if src[own] != ready or src[det] != 0:
            continue
        photon = src[target]
        c, d = fresh.get(photon, (0.0, 1.0))
        if second and (src[outside], photon) == (marker.level_out, marker.photon_out):
            c, d = double
        if photon in absorb:
            add(src, {own: absorb[photon].level_out, target: absorb[photon].photon_out}, c)
        add(src, {own: rest, det: 1}, d)
    return matrix


def dense_oracle_state(alphas, model):
    """Independent dense-product oracle: the path-controlled product of the
    agents' dense matrices, A then B on the early branch and B then A on the
    late one, applied to the input register."""
    amps = build_input(alphas).amps.reshape(DIMS)
    early = np.zeros(DIMS, dtype=complex)
    early[PATH_EARLY] = amps[PATH_EARLY]
    late = np.zeros(DIMS, dtype=complex)
    late[PATH_LATE] = amps[PATH_LATE]
    return (_stage_matrix(model, "b", True) @ (_stage_matrix(model, "a", False) @ early.reshape(-1))
            + _stage_matrix(model, "a", True) @ (_stage_matrix(model, "b", False) @ late.reshape(-1)))


class TestEnergyLevelMap:
    def test_agent_a_channels(self):
        absorb = ENERGY_LEVELS["a"].absorb
        assert absorb[E1].photon_out == E2
        assert absorb[E1].level_out == A3
        assert absorb[E4].photon_out == E5
        assert absorb[E4].level_out == A5
        assert set(absorb) == {E1, E4}

    def test_agent_b_channels(self):
        absorb = ENERGY_LEVELS["b"].absorb
        assert absorb[E1].photon_out == E4
        assert absorb[E1].level_out == B3
        assert absorb[E2].photon_out == E3
        assert absorb[E2].level_out == B5
        assert set(absorb) == {E1, E2}

    def test_rest_levels(self):
        assert ENERGY_LEVELS["a"].rest == A5
        assert ENERGY_LEVELS["b"].rest == B5


class TestAmplitudeModel:
    def test_channel_unitarity(self):
        rng = np.random.default_rng(31)
        amplitudes, complements = COEFFICIENTS[1:7], COEFFICIENTS[7:]
        assert [name[1:] for name in amplitudes] == [name[1:] for name in complements]
        for _ in range(20):
            values = random_model(rng).coefficients()
            for c, d in zip(values[1:7], values[7:]):
                assert abs(c) ** 2 + abs(d) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_off_channel_complements_are_unity(self):
        for agent, context in (("a", "first"), ("b", "first"), ("a", "after_b"), ("b", "after_a")):
            absorb = ENERGY_LEVELS[agent].absorb
            _, triples = interaction(agent, context)
            for src, dst, k in triples:
                if src[-2] not in absorb:
                    assert dst[-1] == 1 and COEFFICIENTS[k] == "1"

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

    def test_complement_of_a_column_keeps_each_point_bits(self):
        # numpy's abs and power round differently from Python's on some of these
        rng = np.random.default_rng(17)
        values = rng.uniform(-0.8, 0.8, 60) + 1j * rng.uniform(-0.6, 0.6, 60)
        column = np.concatenate([values, values[::4], [0.0, -0.0, complex(-0.0, -0.0), 1.0, -1j]])
        rng.shuffle(column)
        # columns of one imaginary part, whose real parts alone are sorted: a
        # swept amplitude's (imaginary parts 0.0 and -0.0 mixed, as == sees
        # them alike) and one whose imaginary part is not zero
        reals = np.concatenate([values.real, values.real[::4], [0.0, -0.0, 1.0, -1.0]])
        signed = (reals + 0j).copy()
        signed.imag = np.where(rng.random(len(reals)) < 0.5, -0.0, 0.0)
        for col in (column, signed, reals + 0.25j):
            for phase in (0.0, -2.1):
                expected = np.array([complement(c, phase) for c in col.tolist()])
                assert complement(col, phase).tobytes() == expected.tobytes()

    def test_column_model_rows_are_its_points_rows(self):
        rng = np.random.default_rng(23)
        c1a, f_ba = rng.uniform(0.0, 1.0, (2, 7)) + 0j
        model = AmplitudeModel(c1a=c1a, f_ba=f_ba, c2b=0.3 - 0.4j, gamma_ba=1.3)
        rows = [AmplitudeModel(c1a=a, f_ba=f, c2b=0.3 - 0.4j, gamma_ba=1.3).coefficient_rows()[0]
                for a, f in zip(c1a.tolist(), f_ba.tolist())]
        assert model.coefficient_rows(7).tobytes() == np.array(rows).tobytes()
        with pytest.raises(ValueError, match=r"\|f_ba\| must be <= 1, got 1\.5") as caught:
            AmplitudeModel(c1a=c1a[:3], f_ba=np.array([0.5, 1.5, 2.0]) + 0j)
        assert caught.value.index == 1


class TestInteractionOperators:
    def test_a_full_absorption_limits(self):
        op = interaction_a(AmplitudeModel(), "first")
        mat = as_matrix(op)
        src = np.ravel_multi_index((1, E1, 0), op.dims)
        dst = np.ravel_multi_index((A3, E2, 0), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)
        src4 = np.ravel_multi_index((1, E4, 0), op.dims)
        dst4 = np.ravel_multi_index((A5, E5, 0), op.dims)
        assert mat[dst4, src4] == pytest.approx(1.0)

    def test_a_witness_on_unabsorbable_photon(self):
        op = interaction_a(AmplitudeModel(), "first")
        mat = as_matrix(op)
        src = np.ravel_multi_index((1, E3, 0), op.dims)
        dst = np.ravel_multi_index((A5, E3, 1), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)  # photon untouched, witness out

    def test_b_full_absorption_limits(self):
        op = interaction_b(AmplitudeModel(), "first")
        mat = as_matrix(op)
        src = np.ravel_multi_index((0, E2, 0), op.dims)
        dst = np.ravel_multi_index((B5, E3, 0), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)
        src1 = np.ravel_multi_index((0, E1, 0), op.dims)
        dst1 = np.ravel_multi_index((B3, E4, 0), op.dims)
        assert mat[dst1, src1] == pytest.approx(1.0)

    def test_b_witness_on_unabsorbable_photon(self):
        op = interaction_b(AmplitudeModel(), "first")
        mat = as_matrix(op)
        src = np.ravel_multi_index((0, E5, 0), op.dims)
        dst = np.ravel_multi_index((B5, E5, 1), op.dims)
        assert mat[dst, src] == pytest.approx(1.0)

    def test_second_pass_uses_double_scattering_amplitude(self):
        model = AmplitudeModel(f_ba=0.5j, c2b=0.25)
        op = interaction_b(model, "after_a")
        mat = as_matrix(op)
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
            assert is_isometry(interaction_a(model, "first"))
            assert is_isometry(interaction_a(model, "after_b"))
            assert is_isometry(interaction_b(model, "first"))
            assert is_isometry(interaction_b(model, "after_a"))


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
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)

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
                         "target": E3, "detA": 0, "detB": 0}).amps
            + basis_state({"path": PATH_LATE, "agentA": A5, "agentB": B3,
                           "target": E5, "detA": 0, "detB": 0}).amps
        ) * (1 / math.sqrt(2))
        assert np.allclose(outcome.pre_measurement.amps, expected, atol=1e-12)
        assert outcome.zeta_probabilities[3] == pytest.approx(1.0, abs=1e-12)

    def test_e1_diagonal_measurement(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        state3 = outcome.postselection(3).state
        results, remainder = diagonal_measure(state3, "agents")
        assert remainder == pytest.approx(0.0, abs=1e-12)
        for res, sign in zip(results, (1.0, -1.0)):
            assert res.probability == pytest.approx(0.5, abs=1e-12)
            expected = np.zeros(5, dtype=complex)
            expected[E3] = 1 / math.sqrt(2)
            expected[E5] = sign / math.sqrt(2)
            assert res.state.factors == ("target",)
            assert np.allclose(res.state.amps, expected, atol=1e-12)

    def test_e4_trivial_switch(self):
        outcome = run_switch(build_input([0, 0, 0, 1, 0]), AmplitudeModel())
        # both orders leave the same product state: photon shifted once,
        # agent B's witness out, target already disentangled
        assert outcome.zeta_probabilities[2] == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(outcome.pre_measurement, ("target",)) < 1e-12
        state2 = outcome.postselection(2).state
        target_block, prob = project(state2, {"target": E5})
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_e4_needs_no_agent_measurement(self):
        # path-only diagonal readout already lands on the + branch with
        # certainty: nothing left to erase
        outcome = run_switch(build_input([0, 0, 0, 1, 0]), AmplitudeModel())
        state2 = outcome.postselection(2).state
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
        for _ in range(10):  # dense products are slow; acceptance runs 100
            model = random_model(rng)
            alphas = random_alphas(rng)
            outcome = run_switch(build_input(alphas), model)
            expected = dense_oracle_state(alphas, model)
            assert np.allclose(outcome.pre_measurement.amps, expected, atol=1e-12)

    @pytest.mark.parametrize("key, name, wrong", [
        (("b", "after_a"), "f_ba", "c2b"),
        (("a", "after_b"), "g_ab", "d4a"),
        (("a", "first"), "c1a", "c4a"),
    ])
    def test_dense_oracle_catches_a_corrupted_triple(self, monkeypatch, key, name, wrong):
        factors, triples = switch_model._INTERACTIONS[key]
        k, bad = COEFFICIENTS.index(name), COEFFICIENTS.index(wrong)
        assert sum(t[2] == k for t in triples) == 1
        corrupted = tuple((src, dst, bad if t == k else t) for src, dst, t in triples)
        monkeypatch.setitem(switch_model._INTERACTIONS, key, (factors, corrupted))
        for column, values in zip(("_END", "_START", "_COEFFICIENT", "_ZETA", "_SLOT"),
                                  switch_model._compile_histories()):
            monkeypatch.setattr(switch_model, column, values)
        rng = np.random.default_rng(41)
        model, alphas = random_model(rng), random_alphas(rng)
        gap = np.abs(run_switch(build_input(alphas), model).pre_measurement.amps
                     - dense_oracle_state(alphas, model))
        assert gap.max() > 1e-3

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
            sel3 = outcome.postselection(3)
            assert sel3.probability > 0
            if reference is None:
                reference = sel3.state.amps
            else:
                assert np.allclose(sel3.state.amps, reference, atol=1e-12)

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
        sel0 = outcome.postselection(0)
        assert sel0.probability == pytest.approx(0.0, abs=1e-12)
        assert sel0.state is None

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
                state = outcome.postselection(zeta).state
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
                        res.state.amps, combo / norm, atol=1e-12
                    )

    def test_postselect_rejects_bad_zeta(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        for zeta in (4, -1):
            with pytest.raises(ValueError, match="zeta must be in 0..3"):
                outcome.postselection(zeta)


#: the factors and the (early, late) rows each diagonal-measurement mode reads
MODE_ROWS = {"agents": (("path", "agentA", "agentB"), DIAGONAL_BRANCHES),
             "path": (("path",), ((PATH_EARLY,), (PATH_LATE,)))}


def _mp_outcome(early, late, sign, probability):
    """40-digit outcome probability and residual of rows early ± late."""
    part = [mpmath.mpc(e) + sign * mpmath.mpc(l) for e, l in zip(early.tolist(), late.tolist())]
    norm2 = mpmath.fsum(abs(z) ** 2 for z in part)
    if norm2 == 0:
        return norm2, None
    return norm2 / (2 * probability), [z / mpmath.sqrt(norm2) for z in part]


class TestReadout:
    def test_readout_matches_40_digit_oracle(self):
        rng = np.random.default_rng(42)
        with mpmath.workdps(40):
            for _ in range(100):
                outcome = run_switch(build_input(random_alphas(rng)), random_model(rng))
                tensor = outcome.pre_measurement.amps.reshape(DIMS)
                for zeta, pattern in DETECTOR_PATTERNS.items():
                    block = tensor[(...,) + pattern]
                    p = mpmath.fsum(abs(mpmath.mpc(x)) ** 2 for x in block.reshape(-1).tolist())
                    assert outcome.postselection(zeta).probability == pytest.approx(
                        float(p), rel=4e-15, abs=0.0)
                    for mode, (_, branches) in MODE_ROWS.items():
                        early, late = (block[branch].reshape(-1) for branch in branches)
                        results, _ = outcome.readout(mode)[zeta]
                        for res, sign in zip(results, (1, -1)):
                            prob, residual = _mp_outcome(early, late, sign, p)
                            assert abs(res.probability - prob) <= 4e-15 * prob
                            if residual is None:
                                assert res.state is None
                                continue
                            for got, want in zip(res.state.amps.tolist(), residual):
                                assert abs(got - want) <= 4e-15 * abs(want)

    def test_diagonal_measure_matches_measure_in_basis(self):
        rng = np.random.default_rng(43)
        inv = 1.0 / math.sqrt(2.0)
        for _ in range(50):
            outcome = run_switch(build_input(random_alphas(rng)), random_model(rng))
            for sel in outcome.postselections:
                for mode, (names, branches) in MODE_ROWS.items():
                    early, late = (basis_state(dict(zip(names, b)), factors=names).amps
                                   for b in branches)
                    plus, minus = measure_in_basis(sel.state, (StateVector(names, inv * (early + late)),
                                                               StateVector(names, inv * (early - late))))
                    results, remainder = diagonal_measure(sel.state, mode)
                    for res, expected in zip(results, (plus, minus)):
                        assert abs(res.probability - expected.probability) <= 1e-12
                        # the basis overlap's residual is off by about 1e-16/sqrt(p)
                        if expected.probability < 1e-6:
                            continue
                        assert res.state.factors == expected.state.factors
                        assert np.allclose(res.state.amps, expected.state.amps,
                                           rtol=0.0, atol=1e-12)
                    assert abs(remainder - max(0.0, 1.0 - plus.probability - minus.probability)) <= 1e-12

    def test_empty_class_reads_zero(self):
        outcome = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel())
        for mode in MODE_ROWS:
            results, remainder = outcome.readout(mode)[0]
            assert [(r.probability, r.state) for r in results] == [(0.0, None), (0.0, None)]
            assert remainder == 0.0

    def test_unknown_mode_rejected(self):
        state = run_switch(build_input([1, 0, 0, 0, 0]), AmplitudeModel()).postselection(3).state
        with pytest.raises(ValueError, match="mode"):
            diagonal_measure(state, "detectors")
