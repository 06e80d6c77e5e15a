"""Agent-photon interactions, ordering control, postselection, readout.

Each agent is armed in a single ready level and gets exactly one chance to
absorb the incoming photon.  Absorption excites the agent, which promptly
decays to a shelf level while re-emitting at a shifted energy; failure to
absorb drops the agent to its rest level and emits a witness photon whose
presence is recorded in a two-level detector factor.  The path factor
controls which agent acts first, and a photon that was already scattered
once interacts with the second agent through dedicated double-scattering
amplitudes rather than the fresh-photon ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    PATH_EARLY,
    PATH_LATE,
    SparseOperator,
    StateVector,
    apply,
    basis_state,
    measure_in_basis,
    project,
)

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


def _check_unit_disk(name, value):
    if not abs(value) <= 1.0 + 1e-12:
        raise ValueError(f"|{name}| must be <= 1, got {abs(value):g}")


def _complement(c, phase):
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
        for name in ("c1a", "c4a", "c1b", "c2b", "f_ba", "f_ab"):
            _check_unit_disk(name, getattr(self, name))
        for name in ("delta_1a", "delta_4a", "delta_1b", "delta_2b", "gamma_ba", "gamma_ab"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    # no-absorption complements per incoming photon index
    def d_a(self, photon):
        if photon == E1:
            return _complement(self.c1a, self.delta_1a)
        if photon == E4:
            return _complement(self.c4a, self.delta_4a)
        return 1.0

    def d_b(self, photon):
        if photon == E1:
            return _complement(self.c1b, self.delta_1b)
        if photon == E2:
            return _complement(self.c2b, self.delta_2b)
        return 1.0

    def c_a(self, photon):
        return {E1: self.c1a, E4: self.c4a}.get(photon, 0.0)

    def c_b(self, photon):
        return {E1: self.c1b, E2: self.c2b}.get(photon, 0.0)

    @property
    def g_ba(self):
        return _complement(self.f_ba, self.gamma_ba)

    @property
    def g_ab(self):
        return _complement(self.f_ab, self.gamma_ab)


def _fresh_triples(prefix, ready, rest, absorb, c_of, d_of):
    """Channels for a photon meeting an armed agent for the first time."""
    triples = []
    for photon in range(5):
        src = prefix + (ready, photon, 0)
        if photon in absorb:
            ch = absorb[photon]
            triples.append((src, prefix + (ch.level_out, ch.photon_out, 0), c_of(photon)))
        triples.append((src, prefix + (rest, photon, 1), d_of(photon)))
    return triples


def interaction_a(model, context="first"):
    """Agent A's scattering operator.

    context "first": A meets the photon fresh; acts on (agentA, target, detA).
    context "after_b": A acts second.  A photon that B already scattered
    (flagged by B sitting in its post-absorption level) is rescattered with
    amplitude f_ab instead of the fresh c4a, so the operator additionally
    conditions on (and never changes) the agentB factor.
    """
    lv = ENERGY_LEVELS
    if context == "first":
        return SparseOperator(
            ("agentA", "target", "detA"),
            _fresh_triples((), lv.ready_a, lv.rest_a, lv.absorb_a, model.c_a, model.d_a),
        )
    if context != "after_b":
        raise ValueError(f"unknown context {context!r}")
    marker = lv.absorb_b[E1]  # B's e1 absorption: level B3, outgoing photon e4
    triples = []
    for b_level in range(5):
        prefix = (b_level,)
        for photon in range(5):
            src = prefix + (lv.ready_a, photon, 0)
            if b_level == marker.level_out and photon == marker.photon_out:
                ch = lv.absorb_a[photon]
                triples.append(
                    (src, prefix + (ch.level_out, ch.photon_out, 0), model.f_ab)
                )
                triples.append((src, prefix + (lv.rest_a, photon, 1), model.g_ab))
                continue
            if photon in lv.absorb_a:
                ch = lv.absorb_a[photon]
                triples.append(
                    (src, prefix + (ch.level_out, ch.photon_out, 0), model.c_a(photon))
                )
            triples.append((src, prefix + (lv.rest_a, photon, 1), model.d_a(photon)))
    return SparseOperator(("agentB", "agentA", "target", "detA"), triples)


def interaction_b(model, context="first"):
    """Agent B's scattering operator; mirror of :func:`interaction_a`.

    In context "after_a" the photon A re-emitted from its e1 absorption
    (flagged by agentA sitting in that channel's final level) scatters with
    amplitude f_ba instead of the fresh c2b.
    """
    lv = ENERGY_LEVELS
    if context == "first":
        return SparseOperator(
            ("agentB", "target", "detB"),
            _fresh_triples((), lv.ready_b, lv.rest_b, lv.absorb_b, model.c_b, model.d_b),
        )
    if context != "after_a":
        raise ValueError(f"unknown context {context!r}")
    marker = lv.absorb_a[E1]  # A's e1 absorption: level A3, outgoing photon e2
    triples = []
    for a_level in range(6):
        prefix = (a_level,)
        for photon in range(5):
            src = prefix + (lv.ready_b, photon, 0)
            if a_level == marker.level_out and photon == marker.photon_out:
                ch = lv.absorb_b[photon]
                triples.append(
                    (src, prefix + (ch.level_out, ch.photon_out, 0), model.f_ba)
                )
                triples.append((src, prefix + (lv.rest_b, photon, 1), model.g_ba))
                continue
            if photon in lv.absorb_b:
                ch = lv.absorb_b[photon]
                triples.append(
                    (src, prefix + (ch.level_out, ch.photon_out, 0), model.c_b(photon))
                )
            triples.append((src, prefix + (lv.rest_b, photon, 1), model.d_b(photon)))
    return SparseOperator(("agentA", "agentB", "target", "detB"), triples)


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
    state = None
    for path in (PATH_EARLY, PATH_LATE):
        for photon, amp in enumerate(alphas):
            if amp == 0.0:
                continue
            term = (amp / math.sqrt(2.0)) * basis_state(
                {
                    "path": path,
                    "agentA": lv.ready_a,
                    "agentB": lv.ready_b,
                    "target": photon,
                    "detA": 0,
                    "detB": 0,
                }
            )
            state = term if state is None else state + term
    return state


@dataclass(frozen=True)
class Postselection:
    """One detector pattern: probability and the surviving register state."""

    zeta: int
    probability: float
    state: StateVector | None  # normalized, on (path, agentA, agentB, target)


@dataclass(frozen=True)
class SwitchOutcome:
    """Full result of one run: pre-measurement state plus all postselections."""

    model: AmplitudeModel
    pre_measurement: StateVector
    postselections: tuple

    def postselection(self, zeta):
        return self.postselections[zeta]

    @property
    def zeta_probabilities(self):
        return tuple(p.probability for p in self.postselections)


def run_switch(input_state, model):
    """Apply both orderings under path control and classify by detectors.

    The early branch scatters off A then B, the late branch off B then A;
    the second interaction uses the double-scattering amplitudes where the
    first agent's level records a previous scattering.
    """
    early, _ = project(input_state, {"path": PATH_EARLY})
    late, _ = project(input_state, {"path": PATH_LATE})
    early = apply(interaction_b(model, "after_a"), apply(interaction_a(model, "first"), early))
    late = apply(interaction_a(model, "after_b"), apply(interaction_b(model, "first"), late))
    pre = early + late

    detector_basis_factors = ("detA", "detB")
    selections = []
    for zeta in range(4):
        det_a, det_b = DETECTOR_PATTERNS[zeta]
        pattern = basis_state(
            {"detA": det_a, "detB": det_b}, factors=detector_basis_factors
        )
        outcome = measure_in_basis(pre, [pattern])[0]
        selections.append(
            Postselection(
                zeta=zeta, probability=outcome.probability, state=outcome.collapsed
            )
        )
    return SwitchOutcome(
        model=model, pre_measurement=pre, postselections=tuple(selections)
    )


def postselect(outcome, zeta):
    """Normalized surviving state and probability for detector pattern zeta."""
    if zeta not in DETECTOR_PATTERNS:
        raise ValueError(f"zeta must be in 0..3, got {zeta}")
    sel = outcome.postselection(zeta)
    return sel.state, sel.probability


@dataclass(frozen=True)
class DiagonalResult:
    sign: str  # "+" or "-"
    probability: float
    residual: StateVector | None


def _diagonal_basis(mode):
    lv = ENERGY_LEVELS
    if mode == "agents":
        factors = ("path", "agentA", "agentB")
        early = basis_state(
            {
                "path": PATH_EARLY,
                "agentA": lv.absorb_a[E1].level_out,
                "agentB": lv.absorb_b[E2].level_out,
            },
            factors=factors,
        )
        late = basis_state(
            {
                "path": PATH_LATE,
                "agentA": lv.absorb_a[E4].level_out,
                "agentB": lv.absorb_b[E1].level_out,
            },
            factors=factors,
        )
    elif mode == "path":
        factors = ("path",)
        early = basis_state({"path": PATH_EARLY}, factors=factors)
        late = basis_state({"path": PATH_LATE}, factors=factors)
    else:
        raise ValueError(f"unknown diagonal-measurement mode {mode!r}")
    inv = 1.0 / math.sqrt(2.0)
    return [inv * (early + late), inv * (early - late)]


def diagonal_measure(state, mode="agents"):
    """Measure in the balanced (+/-) basis that erases which-order information.

    mode "agents" uses the joint path-and-final-levels basis appropriate to
    a doubly scattered photon, leaving a residual on the target (and any
    remaining factors); mode "path" measures the path factor alone.
    Returns the two DiagonalResults followed by the probability left in
    the unspanned complement.
    """
    plus, minus = measure_in_basis(state, _diagonal_basis(mode))
    results = [
        DiagonalResult("+", plus.probability, plus.collapsed),
        DiagonalResult("-", minus.probability, minus.collapsed),
    ]
    remainder = 1.0 - plus.probability - minus.probability
    return results, max(0.0, remainder)
