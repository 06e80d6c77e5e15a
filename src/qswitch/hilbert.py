"""Dense state vectors over labeled tensor factors, with sparse operators.

The protocol's register is small enough (2*6*5*5*2*2 = 1200 amplitudes)
that dense storage wins on simplicity and testability.  Factors are
addressed by name; basis index conventions:

    path    (2): 0 = early branch (A then B), 1 = late branch (B then A)
    agentA  (6): levels A0..A5
    agentB  (5): levels B1..B5 (index j holds level B_{j+1}; there is no B0)
    target  (5): photon energies e1..e5 (index i holds e_{i+1})
    detA    (2): 0 = witness photon e6 absent, 1 = present
    detB    (2): 0 = witness photon e7 absent, 1 = present

States are treated as immutable values: every operation returns a new
StateVector and never mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FACTOR_DIMS = {
    "path": 2,
    "agentA": 6,
    "agentB": 5,
    "target": 5,
    "detA": 2,
    "detB": 2,
}

SWITCH_FACTORS = ("path", "agentA", "agentB", "target", "detA", "detB")

PATH_EARLY = 0  # operations applied A first, then B
PATH_LATE = 1   # operations applied B first, then A

ORTHONORMALITY_ATOL = 1e-12
DUMP_CUTOFF = 1e-14


def factor_dims(factors):
    try:
        return tuple(FACTOR_DIMS[name] for name in factors)
    except KeyError as exc:
        raise ValueError(f"unknown factor label {exc.args[0]!r}") from None


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector on an ordered tuple of labeled factors."""

    factors: tuple
    amps: np.ndarray

    def __post_init__(self):
        dims = factor_dims(self.factors)
        expected = math.prod(dims)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.size != expected:
            raise ValueError(
                f"amplitude array length {amps.size} does not match factor "
                f"dimensions {dims} (need {expected})"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "amps", amps)

    @property
    def dims(self):
        return factor_dims(self.factors)

    def nonzero_rows(self):
        """(index tuple, amplitude) pairs with |amplitude| above DUMP_CUTOFF."""
        keep = np.flatnonzero(np.abs(self.amps) > DUMP_CUTOFF)
        return [(np.unravel_index(flat, self.dims), complex(self.amps[flat])) for flat in keep]


def basis_state(indices, factors=SWITCH_FACTORS):
    """Unit vector on one product basis element.

    `indices` maps every factor label in `factors` to a basis index.
    """
    factors = tuple(factors)
    dims = factor_dims(factors)
    unknown = set(indices) - set(factors)
    if unknown:
        raise ValueError(f"indices given for absent factors: {sorted(unknown)}")
    missing = set(factors) - set(indices)
    if missing:
        raise ValueError(f"missing indices for factors: {sorted(missing)}")
    idx = []
    for name, dim in zip(factors, dims):
        k = indices[name]
        if not 0 <= k < dim:
            raise ValueError(f"index {k} out of range for factor {name!r} (dim {dim})")
        idx.append(k)
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[int(np.ravel_multi_index(tuple(idx), dims))] = 1.0
    return StateVector(factors, amps)


def _orthonormal(gram):
    """max|gram - I| <= ORTHONORMALITY_ATOL; false where gram holds NaN or inf."""
    return bool(np.abs(gram - np.eye(len(gram))).max(initial=0.0) <= ORTHONORMALITY_ATOL)


class SparseOperator:
    """Operator on a subset of factors, stored as (in, out, amplitude) triples.

    Indices are per-factor tuples in the operator's own factor order.
    Triples with the same (in, out) pair accumulate.
    """

    def __init__(self, factors, triples):
        self.factors = tuple(factors)
        self.dims = factor_dims(self.factors)
        flat = {}
        for idx_in, idx_out, amp in triples:
            fin = int(np.ravel_multi_index(tuple(idx_in), self.dims))
            fout = int(np.ravel_multi_index(tuple(idx_out), self.dims))
            flat[(fin, fout)] = flat.get((fin, fout), 0.0) + complex(amp)
        self._flat = sorted(
            (fin, fout, amp) for (fin, fout), amp in flat.items() if amp != 0.0
        )


def _moved_block(state, op_factors):
    """View of the amplitudes as (op subspace, everything else)."""
    positions = []
    for name in op_factors:
        if name not in state.factors:
            raise ValueError(f"operator factor {name!r} absent from state factors")
        positions.append(state.factors.index(name))
    tensor = state.amps.reshape(state.dims)
    tensor = np.moveaxis(tensor, positions, range(len(positions)))
    d_op = math.prod(FACTOR_DIMS[name] for name in op_factors)
    return tensor.reshape(d_op, -1), positions, tensor.shape


def apply(op, state):
    """Linear action of a SparseOperator on the matching factors of a state."""
    block, positions, moved_shape = _moved_block(state, op.factors)
    out = np.zeros_like(block)
    for fin, fout, amp in op._flat:
        out[fout] += amp * block[fin]
    tensor = out.reshape(moved_shape)
    tensor = np.moveaxis(tensor, range(len(positions)), positions)
    return StateVector(state.factors, tensor.reshape(-1))


def _selection_mask(state, selector):
    unknown = set(selector) - set(state.factors)
    if unknown:
        raise ValueError(f"selector names absent factors: {sorted(unknown)}")
    slicer = []
    for name, dim in zip(state.factors, state.dims):
        wanted = selector.get(name, range(dim))
        wanted = (wanted,) if isinstance(wanted, int) else tuple(wanted)
        for k in wanted:
            if not 0 <= k < dim:
                raise ValueError(f"index {k} out of range for factor {name!r} (dim {dim})")
        slicer.append(wanted)
    mask = np.zeros(state.dims, dtype=bool)
    mask[np.ix_(*slicer)] = True
    return mask.reshape(-1)


def project(state, selector):
    """Zero out non-matching amplitudes.

    `selector` maps factor names to an index or an iterable of indices;
    factors it does not name are kept whole.  Returns the unnormalized
    projected state and its probability (squared norm); a zero-probability
    projection returns the zero vector with probability 0.
    """
    mask = _selection_mask(state, selector)
    amps = np.where(mask, state.amps, 0.0)
    projected = StateVector(state.factors, amps)
    prob = float(np.vdot(amps, amps).real)
    return projected, prob


@dataclass(frozen=True)
class MeasurementOutcome:
    """One Born-rule outcome: its probability and the normalized state it
    leaves (None at probability 0)."""

    probability: float
    state: StateVector | None


def measure_in_basis(state, basis):
    """Born-rule measurement of the factors spanned by the basis vectors.

    All basis vectors must live on the same factor subset and be mutually
    orthonormal (checked to 1e-12).  Returns one MeasurementOutcome per
    basis vector; its state is the normalized residual on the remaining
    factors (None when the outcome has zero probability).
    Probabilities sum to at most 1; the deficit is the overlap with the
    orthogonal complement of the spanned subspace.
    """
    if not basis:
        raise ValueError("basis must contain at least one vector")
    sub_factors = basis[0].factors
    for vec in basis:
        if vec.factors != sub_factors:
            raise ValueError("basis vectors must share one factor subset")
    vectors = np.array([vec.amps for vec in basis])
    if not _orthonormal(vectors.conj() @ vectors.T):
        raise ValueError("basis vectors are not orthonormal")

    block, _, _ = _moved_block(state, sub_factors)
    rest_factors = tuple(f for f in state.factors if f not in sub_factors)
    outcomes = []
    for vec in basis:
        residual = vec.amps.conj() @ block
        prob = float(np.vdot(residual, residual).real)
        outcomes.append(MeasurementOutcome(
            prob, StateVector(rest_factors, residual / math.sqrt(prob)) if prob > 0.0 else None))
    return outcomes
