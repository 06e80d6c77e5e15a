import math

import numpy as np
import pytest

from qswitch.hilbert import (
    FACTOR_DIMS,
    SWITCH_FACTORS,
    SparseOperator,
    StateVector,
    apply,
    basis_state,
    measure_in_basis,
    project,
)

from conftest import as_matrix, entanglement_entropy, is_isometry

DIMS = tuple(FACTOR_DIMS[f] for f in SWITCH_FACTORS)
FULL_DIM = int(np.prod(DIMS))


def dense_full_matrix(op):
    """Embed an operator into the full register as an explicit dense matrix.

    Independent of qswitch.hilbert.apply: walks every full-space column and
    transplants the operator's subspace action index by index.
    """
    positions = [SWITCH_FACTORS.index(f) for f in op.factors]
    sub = as_matrix(op)
    full = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    for flat_in in range(FULL_DIM):
        idx_in = list(np.unravel_index(flat_in, DIMS))
        sub_in = int(np.ravel_multi_index([idx_in[p] for p in positions], op.dims))
        col = sub[:, sub_in]
        for sub_out in np.nonzero(col)[0]:
            idx_out = list(idx_in)
            for p, v in zip(positions, np.unravel_index(sub_out, op.dims)):
                idx_out[p] = v
            full[int(np.ravel_multi_index(idx_out, DIMS)), flat_in] = col[sub_out]
    return full


def random_state(rng, factors=SWITCH_FACTORS):
    dims = tuple(FACTOR_DIMS[f] for f in factors)
    raw = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateVector(factors, raw / np.linalg.norm(raw))


class TestBasisStates:
    def test_unit_vector_single_amplitude(self):
        state = basis_state(
            {"path": 0, "agentA": 0, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
        )
        assert np.linalg.norm(state.amps) == pytest.approx(1.0)
        assert np.count_nonzero(state.amps) == 1
        assert state.amps[0] == 1.0

    def test_index_semantics(self):
        state = basis_state(
            {"path": 1, "agentA": 3, "agentB": 4, "target": 2, "detA": 0, "detB": 1}
        )
        flat = np.ravel_multi_index((1, 3, 4, 2, 0, 1), DIMS)
        assert state.amps[flat] == 1.0

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            basis_state(
                {"path": 0, "agentA": 6, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
            )

    def test_missing_and_unknown_factors_rejected(self):
        with pytest.raises(ValueError):
            basis_state({"path": 0})
        with pytest.raises(ValueError):
            basis_state({"path": 0, "bogus": 1}, factors=("path",))

    def test_superposition_norm(self):
        a = basis_state({"path": 0}, factors=("path",))
        b = basis_state({"path": 1}, factors=("path",))
        combo = StateVector(a.factors, (a.amps + b.amps) * (1.0 / math.sqrt(2.0)))
        assert np.linalg.norm(combo.amps) == pytest.approx(1.0, abs=1e-15)

    def test_amplitude_length_validation(self):
        with pytest.raises(ValueError):
            StateVector(("path",), np.zeros(3, dtype=complex))


class TestApply:
    def test_identity_bit_identical(self):
        rng = np.random.default_rng(11)
        state = random_state(rng)
        triples = [((i,), (i,), 1.0) for i in range(FACTOR_DIMS["detA"])]
        identity = SparseOperator(("detA",), triples)
        assert np.array_equal(apply(identity, state).amps, state.amps)

    def test_swap_on_detector(self):
        rng = np.random.default_rng(12)
        state = random_state(rng)
        swap = SparseOperator(("detA",), [((0,), (1,), 1.0), ((1,), (0,), 1.0)])
        swapped = apply(swap, state)
        tensor = state.amps.reshape(DIMS)
        expected = np.flip(tensor, axis=SWITCH_FACTORS.index("detA")).reshape(-1)
        assert np.allclose(swapped.amps, expected, atol=0.0)

    def test_factor_mismatch_rejected(self):
        state = basis_state({"path": 0}, factors=("path",))
        op = SparseOperator(("detA",), [((0,), (0,), 1.0)])
        with pytest.raises(ValueError):
            apply(op, state)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        s1, s2 = random_state(rng), random_state(rng)
        op = SparseOperator(
            ("agentA", "target"),
            [((1, 0), (3, 1), 0.6), ((1, 0), (5, 0), 0.8j), ((2, 2), (4, 4), 1.0)],
        )
        a, b = 0.3 - 0.4j, 1.1 + 0.2j
        lhs = apply(op, StateVector(s1.factors, a * s1.amps + b * s2.amps))
        rhs = a * apply(op, s1).amps + b * apply(op, s2).amps
        assert np.allclose(lhs.amps, rhs, atol=1e-12)

    def test_dense_matrix_oracle_equivalence(self):
        rng = np.random.default_rng(14)
        op = SparseOperator(
            ("agentB", "target", "detB"),
            [
                ((0, 0, 0), (2, 3, 0), 0.3 + 0.1j),
                ((0, 1, 0), (4, 2, 0), -0.7j),
                ((0, 2, 0), (4, 2, 1), 0.5),
                ((3, 4, 1), (1, 0, 0), 1.2),
            ],
        )
        dense = dense_full_matrix(op)
        for _ in range(5):
            state = random_state(rng)
            assert np.allclose(
                apply(op, state).amps, dense @ state.amps, atol=1e-12
            )

    def test_norm_change_of_nonisometry(self):
        # operator with a known 0.5-norm column
        op = SparseOperator(("detA",), [((0,), (1,), 0.5)])
        state = basis_state(
            {"path": 0, "agentA": 1, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
        )
        assert np.linalg.norm(apply(op, state).amps) == pytest.approx(0.5, abs=1e-15)
        assert not is_isometry(op)

    def test_isometry_flag(self):
        rot = SparseOperator(
            ("detA",),
            [
                ((0,), (0,), math.cos(0.3)),
                ((0,), (1,), math.sin(0.3)),
                ((1,), (0,), -math.sin(0.3)),
                ((1,), (1,), math.cos(0.3)),
            ],
        )
        assert is_isometry(rot)

    def test_norm_preserved_by_isometry_random_states(self):
        rng = np.random.default_rng(15)
        theta = 0.77
        rot = SparseOperator(
            ("agentB",),
            [
                ((0,), (0,), math.cos(theta)),
                ((0,), (2,), math.sin(theta)),
                ((2,), (0,), -math.sin(theta)),
                ((2,), (2,), math.cos(theta)),
            ]
            + [((i,), (i,), 1.0) for i in (1, 3, 4)],
        )
        assert is_isometry(rot)
        for _ in range(100):
            state = random_state(rng)
            assert np.linalg.norm(apply(rot, state).amps) == pytest.approx(1.0, abs=1e-12)


class TestProject:
    def test_full_and_empty_projections(self):
        rng = np.random.default_rng(16)
        state = random_state(rng)
        kept, prob = project(state, {})
        assert np.array_equal(kept.amps, state.amps)
        assert prob == pytest.approx(1.0, abs=1e-12)
        none, prob0 = project(state, {"detA": ()})
        assert np.linalg.norm(none.amps) == 0.0
        assert prob0 == 0.0

    def test_detector_quarter_probability(self):
        parts = [
            basis_state(
                {"path": 0, "agentA": 1, "agentB": 0, "target": 0, "detA": a, "detB": b}
            )
            for a in (0, 1)
            for b in (0, 1)
        ]
        state = StateVector(SWITCH_FACTORS, sum(part.amps for part in parts) * 0.5)
        _, prob = project(state, {"detA": 1, "detB": 1})
        assert prob == pytest.approx(0.25, abs=1e-15)

    def test_complement_reassembles_exactly(self):
        rng = np.random.default_rng(17)
        state = random_state(rng)
        kept, _ = project(state, {"agentA": (0, 2, 4)})
        rest, _ = project(state, {"agentA": (1, 3, 5)})
        assert np.array_equal(kept.amps + rest.amps, state.amps)

    def test_unknown_selector_name_rejected(self):
        state = basis_state({"path": 0}, factors=("path",))
        with pytest.raises(ValueError):
            project(state, {"bogus": 0})


class TestMeasureInBasis:
    def test_computational_basis_probabilities_sum_to_one(self):
        rng = np.random.default_rng(19)
        state = random_state(rng)
        basis = [basis_state({"path": p}, factors=("path",)) for p in (0, 1)]
        outcomes = measure_in_basis(state, basis)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)
        for o in outcomes:
            assert np.linalg.norm(o.state.amps) == pytest.approx(1.0, abs=1e-12)
            assert o.state.factors == tuple(
                f for f in SWITCH_FACTORS if f != "path"
            )

    def test_partial_basis_leaves_remainder(self):
        rng = np.random.default_rng(20)
        state = random_state(rng)
        basis = [basis_state({"agentA": 0}, factors=("agentA",))]
        outcomes = measure_in_basis(state, basis)
        assert 0.0 < outcomes[0].probability < 1.0

    def test_nonorthonormal_basis_rejected(self):
        a = basis_state({"path": 0}, factors=("path",))
        b = StateVector(a.factors, (a.amps + basis_state({"path": 1}, factors=("path",)).amps)
                        * (1 / math.sqrt(2)))
        with pytest.raises(ValueError):
            measure_in_basis(random_state(np.random.default_rng(3)), [a, b])

    def test_born_rule_against_overlap(self):
        rng = np.random.default_rng(21)
        state = random_state(rng)
        vec = random_state(rng)  # full-register basis vector
        outcomes = measure_in_basis(state, [vec])
        assert outcomes[0].probability == pytest.approx(
            abs(np.vdot(vec.amps, state.amps)) ** 2, abs=1e-12
        )


#: columns of 2x2 bases on the path factor, and whether they are orthonormal
#: within ORTHONORMALITY_ATOL = 1e-12
GRAM_CASES = {
    "identity": (np.eye(2), True),
    "rotation": (np.array([[math.cos(0.3), -math.sin(0.3)],
                           [math.sin(0.3), math.cos(0.3)]]), True),
    "5e-13 off the diagonal": (np.array([[1.0, 5e-13], [0.0, 1.0]]), True),
    "2e-12 off the diagonal": (np.array([[1.0, 2e-12], [0.0, 1.0]]), False),
    "diagonal 1 + 2e-12": (np.array([[math.sqrt(1.0 + 2e-12), 0.0], [0.0, 1.0]]), False),
    "NaN": (np.array([[math.nan, 0.0], [0.0, 1.0]]), False),
    "inf": (np.array([[1e200, 0.0], [0.0, 1.0]]), False),  # |1e200|^2 overflows
}


class TestOrthonormalityCheck:
    """measure_in_basis and the tests' is_isometry share one check, max|gram - I| <= atol,
    which must give the verdict np.allclose(gram, I, atol, rtol=0) gives."""

    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_verdicts(self, case):
        columns, orthonormal = GRAM_CASES[case]
        basis = [StateVector(("path",), column) for column in columns.T]
        op = SparseOperator(("path",), [((i,), (o,), columns[o, i])
                                        for i in range(2) for o in range(2)])
        gram = np.array([[np.vdot(b1.amps, b2.amps) for b2 in basis] for b1 in basis])
        assert np.isnan(gram).any() == (case == "NaN")
        assert np.isinf(gram).any() == (case == "inf")
        # the form both used before
        assert np.allclose(gram, np.eye(2), atol=1e-12, rtol=0.0) == orthonormal
        assert is_isometry(op) == orthonormal
        empty = StateVector(("path",), np.zeros(2, dtype=complex))
        if orthonormal:
            outcomes = measure_in_basis(empty, basis)
            assert [o.probability for o in outcomes] == [0.0, 0.0]
        else:
            with pytest.raises(ValueError, match="not orthonormal"):
                measure_in_basis(empty, basis)

    def test_empty_operator_is_an_isometry(self):
        assert is_isometry(SparseOperator(("path",), []))


class TestDensityAndDumps:
    def test_product_state_entropy_zero(self):
        state = basis_state(
            {"path": 0, "agentA": 1, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
        )
        assert entanglement_entropy(state, ("target",)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_pair(self):
        a = basis_state(
            {"path": 0, "agentA": 1, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
        )
        b = basis_state(
            {"path": 1, "agentA": 1, "agentB": 0, "target": 1, "detA": 0, "detB": 0}
        )
        state = StateVector(a.factors, (a.amps + b.amps) * (1 / math.sqrt(2)))
        assert entanglement_entropy(state, ("target",)) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_dump_cutoff_suppresses_noise(self):
        state = basis_state(
            {"path": 0, "agentA": 1, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
        )
        noisy = StateVector(state.factors, state.amps + 1e-16 * basis_state(
            {"path": 1, "agentA": 1, "agentB": 0, "target": 0, "detA": 0, "detB": 0}
        ).amps)
        assert len(noisy.nonzero_rows()) == 1
