"""Agent-photon interactions, ordering control, postselection, readout.

Each agent is armed in a single ready level and gets exactly one chance to
absorb the incoming photon.  Absorption excites the agent, which promptly
decays to a shelf level while re-emitting at a shifted energy; failure to
absorb drops the agent to its rest level and emits a witness photon whose
presence is recorded in a two-level detector factor.  The path factor
controls which agent acts first, and a photon that was already scattered
once interacts with the second agent through dedicated double-scattering
amplitudes rather than the fresh-photon ones.

The interactions' index structure does not depend on the amplitudes: it
is compiled once, at import, into the scattering histories of a run.  A
batch of runs multiplies the input amplitudes its support reaches by rows
of a (batch, 13) array of model coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    FACTOR_DIMS,
    PATH_EARLY,
    PATH_LATE,
    SWITCH_FACTORS,
    MeasurementOutcome,
    SparseOperator,
    StateVector,
    factor_dims,
)
from .spacetime import check_domain

# target indices (photon energies e1..e5)
E1, E2, E3, E4, E5 = range(5)
# agentA level indices A0..A5
A0, A1, A2, A3, A4, A5 = range(6)
# agentB level indices (factor index j holds level B_{j+1})
B1, B2, B3, B4, B5 = range(5)

#: detector pattern (detA, detB) for each postselection class zeta:
#: 0 = both witness photons emitted, 1 = only agent A's witness,
#: 2 = only agent B's witness, 3 = neither (both agents absorbed).
DETECTOR_PATTERNS = {0: (1, 1), 1: (1, 0), 2: (0, 1), 3: (0, 0)}

NORMALIZATION_ATOL = 1e-9


@dataclass(frozen=True)
class Absorption:
    """One absorb-and-decay channel: photon_in -> photon_out, agent -> level_out."""

    photon_in: int
    photon_out: int
    level_out: int


@dataclass(frozen=True)
class EnergyLevelMap:
    """Level diagram of the two agents as absorption channels.

    Agents start in their ready level; any photon not listed in the
    absorption table leaves the agent to fall to its rest level while the
    matching witness detector flips.
    """

    ready_a: int
    rest_a: int
    absorb_a: dict
    ready_b: int
    rest_b: int
    absorb_b: dict


ENERGY_LEVELS = EnergyLevelMap(
    ready_a=A1,
    rest_a=A5,
    absorb_a={
        E1: Absorption(E1, E2, A3),  # A1 -e1-> A2, decays to A3 emitting e2
        E4: Absorption(E4, E5, A5),  # A1 -e4-> A4, decays to A5 emitting e5
    },
    ready_b=B1,
    rest_b=B5,
    absorb_b={
        E1: Absorption(E1, E4, B3),  # B1 -e1-> B2, decays to B3 emitting e4
        E2: Absorption(E2, E3, B5),  # B1 -e2-> B4, decays to B5 emitting e3
    },
)

#: (path, agentA, agentB) of the doubly scattered early (A's e1, then B's e2
#: channel) and late (B's e1, then A's e4) branches the "agents" readout mixes
DIAGONAL_BRANCHES = (
    (PATH_EARLY, ENERGY_LEVELS.absorb_a[E1].level_out, ENERGY_LEVELS.absorb_b[E2].level_out),
    (PATH_LATE, ENERGY_LEVELS.absorb_a[E4].level_out, ENERGY_LEVELS.absorb_b[E1].level_out),
)

#: amplitudes an interaction entry can carry; "1" is the witness emission
#: for a photon outside the agent's absorption table
COEFFICIENTS = ("1", "c1a", "c4a", "c1b", "c2b", "f_ba", "f_ab",
                "d1a", "d4a", "d1b", "d2b", "g_ba", "g_ab")

#: the two interactions, in order, on each path branch
ORDERS = {PATH_EARLY: (("a", "first"), ("b", "after_a")),
          PATH_LATE: (("b", "first"), ("a", "after_b"))}


#: each scattering amplitude with the phase of its no-absorption complement,
#: in the order COEFFICIENTS lists both
AMPLITUDES = (("c1a", "delta_1a"), ("c4a", "delta_4a"), ("c1b", "delta_1b"),
              ("c2b", "delta_2b"), ("f_ba", "gamma_ba"), ("f_ab", "gamma_ab"))


def complement(c, phase):
    """d = exp(i phase) sqrt(1 - |c|^2), the no-absorption partner of amplitude c.

    Of a column, the scalar formula once per distinct value: numpy's abs and
    power round some inputs differently, which would change a point's bits.
    """
    if isinstance(c, np.ndarray):
        distinct, where = np.unique(c, return_inverse=True)
        return np.array([complement(v, phase) for v in distinct.tolist()])[where]
    return cmath.exp(1j * phase) * math.sqrt(max(0.0, 1.0 - abs(c) ** 2))


@dataclass(frozen=True)
class AmplitudeModel:
    """Scattering amplitudes for the four absorption channels.

    c1a, c4a (c1b, c2b) are the fresh-photon absorption amplitudes of
    agent A (B); f_ba is the double-scattering amplitude for a photon
    re-emitted by A to also scatter off B, and f_ab the converse.  Each
    channel's no-absorption complement carries unit total weight:
    d = exp(i*delta)*sqrt(1 - |c|^2), and photons outside an agent's
    absorption table pass with amplitude exactly 1 (the witness emission
    contributes no extra phase).  The same amplitudes apply on both paths.

    An amplitude may be a numpy column, one model per entry, as a sweep's
    points give them; the phases are numbers.
    """

    c1a: complex = 1.0
    c4a: complex = 1.0
    c1b: complex = 1.0
    c2b: complex = 1.0
    f_ba: complex = 1.0
    f_ab: complex = 1.0
    delta_1a: float = 0.0
    delta_4a: float = 0.0
    delta_1b: float = 0.0
    delta_2b: float = 0.0
    gamma_ba: float = 0.0
    gamma_ab: float = 0.0

    def __post_init__(self):
        """Reject the first model that leaves the unit disk or has a non-finite phase."""
        amplitudes, phases = self._fields()
        check_domain(
            *((np.logical_not(abs(c) <= 1.0 + 1e-12), "|{}| must be <= 1, got {:g}", name, abs(c))
              for (name, _), c in zip(AMPLITUDES, amplitudes)),
            *((~np.isfinite(phase), "{} must be finite, got {}", name, phase)
              for (_, name), phase in zip(AMPLITUDES, phases)),
        )

    def _fields(self):
        return ([getattr(self, c) for c, _ in AMPLITUDES],
                [getattr(self, phase) for _, phase in AMPLITUDES])

    def coefficients(self):
        """The model's value (or column) of each name in COEFFICIENTS, in that order."""
        amplitudes, phases = self._fields()
        return (1.0, *amplitudes, *map(complement, amplitudes, phases))

    def coefficient_rows(self, n=1):
        """(n, 13) coefficients, a model per row as :func:`switch_summaries`
        takes them; a column amplitude holds n models."""
        columns = np.empty((len(COEFFICIENTS), n), dtype=complex)
        for column, value in zip(columns, self.coefficients()):
            column[:] = value
        return columns.T


def _index(name):
    """Position of a name in COEFFICIENTS; the complement of a photon outside
    the agent's absorption table ("d3a") is not there: it is exactly 1."""
    return COEFFICIENTS.index(name) if name in COEFFICIENTS else 0


def _compile_interaction(agent, context):
    """(factors, triples) of one agent's operator; see :func:`interaction`."""
    other = "b" if agent == "a" else "a"
    own, det, outside = f"agent{agent.upper()}", f"det{agent.upper()}", f"agent{other.upper()}"
    lv = ENERGY_LEVELS
    ready, rest, absorb = (getattr(lv, f"{key}_{agent}") for key in ("ready", "rest", "absorb"))
    if context == "first":
        factors, prefixes, marker = (own, "target", det), [()], None
    else:
        factors = (outside, own, "target", det)
        prefixes = [(level,) for level in range(FACTOR_DIMS[outside])]
        first = getattr(lv, f"absorb_{other}")[E1]
        marker = ((first.level_out,), first.photon_out)
    triples = []
    for prefix in prefixes:
        for photon in range(FACTOR_DIMS["target"]):
            src = prefix + (ready, photon, 0)
            c, d = f"c{photon + 1}{agent}", f"d{photon + 1}{agent}"
            if (prefix, photon) == marker:
                c, d = f"f_{agent}{other}", f"g_{agent}{other}"
            if photon in absorb:
                ch = absorb[photon]
                triples.append((src, prefix + (ch.level_out, ch.photon_out, 0), _index(c)))
            triples.append((src, prefix + (rest, photon, 1), _index(d)))
    return factors, tuple(triples)


_INTERACTIONS = {key: _compile_interaction(*key) for stages in ORDERS.values() for key in stages}


def interaction(agent, context="first"):
    """Index structure (factors, triples) of agent "a" or "b"'s operator.

    A triple (index in, index out, k) carries amplitude COEFFICIENTS[k];
    basis elements without one are annihilated.  Context "first": the agent
    meets the photon fresh.  Context "after_b" for A ("after_a" for B): it
    acts second and conditions on, but never changes, the other agent's
    level; the photon that agent re-emitted from its e1 absorption scatters
    with f_ab, g_ab (f_ba, g_ba for B) instead of the fresh amplitudes.
    """
    if (agent, context) not in _INTERACTIONS:
        raise ValueError(f"unknown context {context!r} for agent {agent!r}")
    return _INTERACTIONS[agent, context]


def _operator(agent, model, context):
    factors, triples = interaction(agent, context)
    values = model.coefficients()
    return SparseOperator(factors, [(i, o, values[k]) for i, o, k in triples])


def interaction_a(model, context="first"):
    """Agent A's scattering operator; context "first" or "after_b"."""
    return _operator("a", model, context)


def interaction_b(model, context="first"):
    """Agent B's scattering operator; context "first" or "after_a"."""
    return _operator("b", model, context)


def _compile_histories():
    """Every scattering history of a run, as columns: the register index it
    ends on (ascending, distinct: each amplitude is a single product), the
    index it starts from, its coefficient index in each interaction, its
    postselection class, and its slot in the (early/late, target) block the
    "agents" diagonal measurement reads (-1 off that block)."""
    dims = factor_dims(SWITCH_FACTORS)
    zeta_of = {pattern: zeta for zeta, pattern in DETECTOR_PATTERNS.items()}
    rows = []
    for path, stages in ORDERS.items():
        walks = ((idx, idx, ()) for idx in np.ndindex(*dims) if idx[0] == path)
        for stage in stages:
            factors, triples = interaction(*stage)
            axes = [SWITCH_FACTORS.index(name) for name in factors]
            step = {}
            for src, dst, k in triples:
                step.setdefault(src, []).append((dst, k))
            walks = [
                (start, tuple(dst[axes.index(a)] if a in axes else v for a, v in enumerate(idx)),
                 ks + (k,))
                for start, idx, ks in walks
                for dst, k in step.get(tuple(idx[a] for a in axes), ())
            ]
        for start, idx, ks in walks:
            zeta = zeta_of[idx[4:]]
            on_block = zeta == 3 and idx[:3] in DIAGONAL_BRANCHES
            slot = DIAGONAL_BRANCHES.index(idx[:3]) * dims[3] + idx[3] if on_block else -1
            rows.append((np.ravel_multi_index(idx, dims), np.ravel_multi_index(start, dims),
                         ks, zeta, slot))
    columns = [np.array(column) for column in zip(*sorted(rows))]
    if len(set(columns[0])) != len(rows):
        raise ValueError("two scattering histories end on one register amplitude")
    return columns


_END, _START, _COEFFICIENT, _ZETA, _SLOT = _compile_histories()

#: factors of a postselected class: the detector factors come last
CLASS_FACTORS = SWITCH_FACTORS[:-2]
#: each class's flat index on the (detA, detB) axes, in zeta order
_CLASS_COLUMNS = [2 * det_a + det_b for det_a, det_b in DETECTOR_PATTERNS.values()]

#: the factors and the (early, late) indices of the two rows each
#: diagonal-measurement mode reads
_DIAGONAL_ROWS = {"agents": (("path", "agentA", "agentB"), DIAGONAL_BRANCHES),
                  "path": (("path",), ((PATH_EARLY,), (PATH_LATE,)))}


def _reachable(input_state, coefficients):
    """Histories whose start the input holds, and their (batch, history) amplitudes."""
    if input_state.factors != SWITCH_FACTORS:
        raise ValueError(f"the switch needs a state on {SWITCH_FACTORS}")
    keep = np.flatnonzero(input_state.amps[_START])
    amps = input_state.amps[_START[keep]]
    for k in _COEFFICIENT[keep].T:  # one interaction after the other
        amps = coefficients[:, k] * amps
    return keep, amps


def _class_probabilities(table, keep, amps):
    """`table` with the zeta probabilities of the histories `keep` added to its
    columns 0..3, summed history by history in the order of their end index."""
    for r, zeta in enumerate(_ZETA[keep]):
        table[:, zeta] += abs(amps[:, r]) ** 2
    return table


def _diagonal_outcomes(early, late, probability):
    """The + and - outcomes of the diagonal measurement of rows early and late,
    entries along axis 0 and a column per class of `probability`: for each
    sign, the part early ± late, its squared norm summed entry by entry in
    order (entries zero in every column add nothing and are skipped), and
    the outcome probability ½‖early ± late‖²/p (0.0 where p = 0)."""
    outcomes = []
    for part in (early + late, early - late):
        norm2 = np.zeros(part.shape[1:])
        for entry in part[part.any(axis=1)]:
            norm2 += abs(entry) ** 2
        outcomes.append((part, norm2, np.divide(0.5 * norm2, probability, out=np.zeros_like(norm2),
                                                where=probability > 0.0)))
    return outcomes


def switch_summaries(input_state, coefficients):
    """Postselection classes and the zeta=3 readout of a batch of models.

    `coefficients` holds one model per row, as AmplitudeModel.coefficients
    gives it.  Returns a (batch, 6) array: the zeta=0..3 probabilities, then
    the + and - probabilities of the "agents" diagonal measurement of the
    zeta=3 class (0.0 where it is empty).  Only amplitudes reachable from
    the input's support are computed; sums run in a fixed order, so a row
    does not depend on the rest of the batch.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    keep, amps = _reachable(input_state, coefficients)
    n_target = FACTOR_DIMS["target"]
    block = np.zeros((2 * n_target + 1, len(coefficients)), dtype=complex)
    block[_SLOT[keep]] = amps.T  # histories off the block land in the last row
    table = _class_probabilities(np.zeros((len(coefficients), 6)), keep, amps)
    (_, _, table[:, 4]), (_, _, table[:, 5]) = _diagonal_outcomes(
        block[:n_target], block[n_target:-1], table[:, 3])
    return table


def build_input(alphas):
    """Initial register for a photon with target amplitudes `alphas`.

    Both agents armed, detectors clear, path factor in the balanced
    superposition of the two orderings.
    """
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    if alphas.size != 5:
        raise ValueError(f"need 5 target amplitudes, got {alphas.size}")
    total = float(np.vdot(alphas, alphas).real)
    if not abs(total - 1.0) <= NORMALIZATION_ATOL:
        raise ValueError(f"target amplitudes must be normalized, got |alpha|^2={total!r}")
    lv = ENERGY_LEVELS
    amps = np.zeros(factor_dims(SWITCH_FACTORS), dtype=complex)
    for path in (PATH_EARLY, PATH_LATE):
        for photon, amp in enumerate(alphas):
            if amp != 0.0:
                amps[path, lv.ready_a, lv.ready_b, photon, 0, 0] = amp / math.sqrt(2.0)
    return StateVector(SWITCH_FACTORS, amps)


@dataclass(frozen=True)
class SwitchOutcome:
    """Full result of one run: pre-measurement state plus all postselections,
    a MeasurementOutcome per detector pattern in zeta order, its state on
    CLASS_FACTORS."""

    pre_measurement: StateVector
    postselections: tuple

    def postselection(self, zeta):
        """The MeasurementOutcome of detector pattern zeta."""
        if zeta not in DETECTOR_PATTERNS:
            raise ValueError(f"zeta must be in 0..3, got {zeta}")
        return self.postselections[zeta]

    @property
    def zeta_probabilities(self):
        return tuple(p.probability for p in self.postselections)

    def readout(self, mode="agents"):
        """(results, remainder) of :func:`diagonal_measure` for each class, zeta
        by zeta, read from its unnormalized amplitudes and probability as
        :func:`switch_summaries` reads them; an empty class reads all 0.0."""
        return _measure(_classes(self.pre_measurement), CLASS_FACTORS, mode,
                        np.array(self.zeta_probabilities))


def _classes(register):
    """The register's amplitudes with its two detector axes made one zeta axis."""
    return register.amps.reshape(factor_dims(CLASS_FACTORS) + (-1,))[..., _CLASS_COLUMNS]


def run_switch(input_state, model):
    """Apply both orderings under path control and classify by detectors.

    The early branch scatters off A then B, the late branch off B then A;
    the second interaction uses the double-scattering amplitudes where the
    first agent's level records a previous scattering (the histories of
    :func:`switch_summaries`, whose class probabilities these are).
    """
    keep, amps = _reachable(input_state, model.coefficient_rows())
    pre = np.zeros_like(input_state.amps)
    pre[_END[keep]] = amps[0]
    pre = StateVector(SWITCH_FACTORS, pre)
    classes = _classes(pre)
    selections = tuple(
        MeasurementOutcome(p, StateVector(CLASS_FACTORS, classes[..., zeta] / math.sqrt(p))
                           if p > 0.0 else None)
        for zeta, p in enumerate(_class_probabilities(np.zeros((1, 4)), keep, amps)[0].tolist()))
    return SwitchOutcome(pre_measurement=pre, postselections=selections)


def _measure(tensor, factors, mode, probability):
    """(results, remainder) of :func:`diagonal_measure` for each of a batch of
    states: amplitudes `tensor` on `factors`, then an axis over the batch."""
    if mode not in _DIAGONAL_ROWS or not set(_DIAGONAL_ROWS[mode][0]) <= set(factors):
        raise ValueError(f"no diagonal-measurement mode {mode!r} on factors {factors}")
    names, branches = _DIAGONAL_ROWS[mode]
    early, late = (tensor[tuple(dict(zip(names, branch)).get(f, slice(None)) for f in factors)]
                   .reshape(-1, len(probability)) for branch in branches)
    outcomes = _diagonal_outcomes(early, late, probability)
    rest = tuple(f for f in factors if f not in names)
    readouts = []
    for k, class_probability in enumerate(probability.tolist()):
        results = []
        for part, norm2, p in outcomes:
            state = StateVector(rest, part[:, k] / math.sqrt(norm2[k])) if p[k] > 0.0 else None
            results.append(MeasurementOutcome(float(p[k]), state))
        remainder = 1.0 - results[0].probability - results[1].probability
        readouts.append((results, max(0.0, remainder) if class_probability > 0.0 else 0.0))
    return readouts


def diagonal_measure(state, mode="agents"):
    """Measure in the balanced (+/-) basis that erases which-order information.

    Mode "agents" reads the rows of the doubly scattered branches,
    DIAGONAL_BRANCHES, leaving a residual on the target and any remaining
    factors; mode "path" reads the two rows of the path factor.  Outcome ±
    has probability ½‖early ± late‖² and state (early ± late)/‖early ± late‖,
    None at probability 0.  Returns the + and - MeasurementOutcomes, in that
    order, followed by the probability left in the unspanned complement.
    """
    return _measure(state.amps.reshape(state.dims + (1,)), state.factors, mode, np.ones(1))[0]
