"""Oscillator clock that flips the agent's internal state at quarter period.

A coherent wavepacket of a 1D harmonic oscillator is released at rest from
displacement +A and couples to the two-level subspace {ready-off, ready-on}
only inside the interaction zone x in [0, delta], through a constant
sigma_x term of strength v0.  Released far from the zone (A >> delta) with
a packet much narrower than the zone (delta >> sigma), it crosses the zone
around quarter period at speed ~ omega*A, accumulating a sigma_x rotation
of v0*delta/(hbar*omega*A).  Choosing A = 2*delta*v0/(pi*hbar*omega) makes
that angle exactly pi/2: the internal state is fully transferred when the
packet exits the zone at tau_star = T/4.

Two independent routes are provided: the piecewise closed form valid in
the perfect-transmission limit, and a split-step Fourier integration of
the two decoupled sigma_x eigenchannels (barrier for |+>, well for |->).

The integration runs in the frame that moves with the classical packet:
psi(x, t) = exp(i (p_cl (x - x_cl) + S) / hbar) phi(x - x_cl, t) with
x_cl = A cos(omega t), p_cl = -m omega A sin(omega t) is exact for the
harmonic potential.  phi starts as the ground-state Gaussian at y = 0 and
feels m omega^2 y^2 / 2 +- v0 chi_[0, delta](y + x_cl(t)), so the grid
(GridSpec, in y) holds the packet rather than the whole orbit.  The phase
factor is common to both channels and drops out of every population.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spacetime import HBAR, check_domain, check_warnings

#: "much greater than" factor for the parameter hierarchy
VALIDITY_THRESHOLD = 10.0

#: trigger-condition fidelity thresholds (ready-state, fired-state)
READY_THRESHOLD = 0.99
FIRED_THRESHOLD = 0.95

#: clock resolution: grid spacing at most sigma / POINTS_PER_SIGMA; step at most
#: (2 pi/omega) / STEPS_PER_SCALE, and at most (pi hbar/v0) / ZONE_STEPS_PER_SCALE
#: where the zone can reach the grid.  The zone's is measured: numeric_fired meets
#: its convergence bounds at any value, and from about 30 on the two-passage run
#: keeps <p> within 3e-8 of one at 200 steps per pi hbar/v0 (tests/test_trigger.py)
POINTS_PER_SIGMA = 8.0
STEPS_PER_SCALE = 200.0
ZONE_STEPS_PER_SCALE = 35.0
#: two-point Gauss-Legendre nodes on [0, 1], exact to cubic order on each smooth piece
GAUSS_NODES = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
#: complex zone factors planned at a time, which bounds a long run's plan memory
PLAN_ENTRIES = 1 << 16
#: most points of a default grid: each (2, n) complex array is then at most 32 MB
MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class TriggerParams:
    """Oscillator and interaction-zone parameters (SI unless hbar says otherwise).

    amplitude is normally derived from the pi/2 relation
    A = 2*delta*v0/(pi*hbar*omega); passing it explicitly decouples the
    release displacement from the coupling (used e.g. for the free-motion
    check with v0 = 0, where the derived amplitude would vanish).
    """

    m: float
    omega: float
    delta: float
    v0: float
    hbar: float = HBAR
    amplitude: float | None = None

    def __post_init__(self):
        explicit = () if self.amplitude is None else ("amplitude",)
        inputs = {name: getattr(self, name) for name in ("m", "omega", "delta", "hbar") + explicit}
        check_domain(
            *((not (math.isfinite(value) and value > 0), f"require finite {name} > 0, got {{}}", value)
              for name, value in inputs.items()),
            (not (math.isfinite(self.v0) and self.v0 >= 0), "require finite v0 >= 0, got {}", self.v0),
            (self.amplitude is None and self.v0 == 0.0, "v0 = 0 requires an explicit amplitude"))
        # the derived quantities the clock divides by, each inside the float range and formed
        # once those before it pass; products before quotients and powers, which raise on 0 or
        # past the range; the crossing time and the zone's phase over it are 0 where v0 = 0
        for name, op, form in (
                ("m omega", ">", lambda: self.m * self.omega),
                ("pi hbar omega", ">", lambda: math.pi * self.hbar * self.omega),
                ("sigma = sqrt(hbar/(m omega))", ">", lambda: self.sigma),
                ("speed omega A", ">", lambda: self.speed),
                ("kinetic energy m v^2/2", ">", lambda: 0.5 * self.m * (self.speed * self.speed)),
                ("m omega^2/2", ">", lambda: 0.5 * self.m * (self.omega * self.omega)),
                ("wavenumber k = m v/hbar", ">", lambda: _wavenumbers(self)[0]),
                ("k + k'", ">", lambda: sum(_wavenumbers(self))),
                ("crossing time epsilon = delta/(omega A)", ">=", lambda: self.epsilon),
                ("v0 epsilon", ">=", lambda: self.v0 * self.epsilon),
                ("rotation angle v0 epsilon/hbar", ">=", lambda: self.rotation_angle)):
            value = form()
            check_domain((not (0 < value < math.inf or value == 0 and op == ">="),
                          f"require a finite {name} {op} 0, got {{:g}}", value))

    @property
    def period(self):
        return 2.0 * math.pi / self.omega

    @property
    def tau_star(self):
        """Firing time: quarter period."""
        return 0.25 * self.period

    @property
    def sigma(self):
        """Ground-state packet width sqrt(hbar / m omega)."""
        return math.sqrt(self.hbar / (self.m * self.omega))

    @property
    def amp(self):
        """Release displacement; derived as 2*delta*v0/(pi*hbar*omega) by default."""
        if self.amplitude is not None:
            return self.amplitude
        return 2.0 * self.delta * self.v0 / (math.pi * self.hbar * self.omega)

    @property
    def alpha0(self):
        """Initial coherent-state parameter A / (sqrt(2) sigma)."""
        return self.amp / (math.sqrt(2.0) * self.sigma)

    @property
    def speed(self):
        """Packet speed near the zone, omega * A."""
        return self.omega * self.amp

    @property
    def epsilon(self):
        """Zone crossing time delta / (omega A)."""
        return self.delta / self.speed

    @property
    def probe_time(self):
        """Where the firing condition reads the armed state: tau_star - 2 epsilon,
        one crossing time before zone entry, floored at 0."""
        return max(0.0, self.tau_star - 2.0 * self.epsilon)

    @property
    def rotation_angle(self):
        """Accumulated sigma_x angle v0 * epsilon / hbar."""
        return self.v0 * self.epsilon / self.hbar

    @property
    def kinetic_energy(self):
        """m v^2 / 2 at zone entry."""
        return 0.5 * self.m * self.speed**2

    def validity_factors(self):
        """(A/delta, delta/sigma, E_kin/v0); each should be >> 1."""
        energy = self.kinetic_energy / self.v0 if self.v0 > 0 else math.inf
        return (self.amp / self.delta, self.delta / self.sigma, energy)

    def validity_checks(self):
        """Warning records (bad, template, factor), one per factor of validity_factors()."""
        names = ("amplitude/zone-width", "zone-width/packet-width", "kinetic-energy/barrier")
        return [(value < VALIDITY_THRESHOLD,
                 f"{name} factor {{:.3g}} below threshold {VALIDITY_THRESHOLD:g}", value)
                for name, value in zip(names, self.validity_factors())]


@dataclass(frozen=True)
class ChannelState:
    """Both sigma_x channels of the co-moving packet.

    psi[0] is the |+> (barrier) and psi[1] the |-> (well) channel, sampled
    at y = x - x_cl on the grid, without the common moving-frame phase.
    """

    psi: np.ndarray
    dx: float

    @property
    def psi_plus(self):
        return self.psi[0]

    @property
    def psi_minus(self):
        return self.psi[1]


def analytic_columns(params, taus):
    """Closed form under perfect transmission: (p_off, p_on, x_mean) over a
    column of times in [0, tau_star].

    Free coherent motion until the packet reaches the zone at
    tau_star - epsilon, then a uniform sigma_x rotation while it crosses:
    p_off is 1 before entry and cos^2(v0 (tau - entry) / hbar) after, so
    at tau_star the internal state is fully fired.
    """
    tau_star = params.tau_star
    check_domain(((taus < 0) | (taus > tau_star * (1 + 1e-12)),
                  "tau={:g} outside [0, tau_star={:g}]", taus, tau_star))
    # the phase is 0 before entry, where cos^2 = 1 and sin^2 = 0
    phi = params.v0 * np.maximum(taus - (tau_star - params.epsilon), 0.0) / params.hbar
    cos, sin = np.cos(phi), np.sin(phi)
    alpha = params.alpha0 * np.exp(-1j * params.omega * taus)
    return cos * cos, sin * sin, math.sqrt(2.0) * params.sigma * alpha.real


def reflection_bound(params):
    """Plane-wave estimate of one-edge reflection at the potential step.

    ((k - k')/(k + k'))^2 with  hbar k = m v  and
    hbar k' = sqrt(2 m (E - v0)); quantifies the error of the
    perfect-transmission approximation.  Returns 1.0 when the packet
    energy does not clear the barrier (invalid regime, also surfaced by
    validity_checks()).
    """
    k, k_prime = _wavenumbers(params)
    return ((k - k_prime) / (k + k_prime)) ** 2


def _wavenumbers(params):
    """Carrier k = m v / hbar and transmitted k' = sqrt(2 m (E - v0)) / hbar
    over the barrier; k' = 0 when the packet does not clear it."""
    k = params.m * params.speed / params.hbar
    excess = max(params.kinetic_energy - params.v0, 0.0)
    return k, math.sqrt(2.0 * params.m * excess) / params.hbar


@dataclass(frozen=True)
class GridSpec:
    """Grid and step ceiling for the split-step integration.

    x_min and x_max bound the co-moving coordinate y = x - x_cl(t), not the
    lab position: the packet sits near y = 0 for the whole run.  dt_max
    bounds the step while the zone can reach the grid; elsewhere the bound
    is dt_max scaled by the ratio of the default ceilings (_step_ceilings).
    """

    x_min: float
    x_max: float
    n_points: int
    dt_max: float

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_points


def _fft_friendly(n):
    """Smallest integer of the form 2^a * 5^b (b <= 4) >= n; fast FFT length."""
    best = 1 << (n - 1).bit_length()
    for b in range(5):
        p2 = 5**b
        while p2 < n:
            p2 *= 2
        best = min(best, p2)
    return best


def _step_ceilings(params):
    """Default step ceilings (where the zone can reach the grid, elsewhere): the
    period / STEPS_PER_SCALE, and the first also pi hbar/v0 / ZONE_STEPS_PER_SCALE."""
    coarse = params.period / STEPS_PER_SCALE
    if params.v0 == 0:
        return coarse, coarse
    zone = math.pi * params.hbar / params.v0 / ZONE_STEPS_PER_SCALE
    check_domain((not zone > 0, "zone step ceiling (pi hbar/v0)/{:g} underflows to 0 at "
                  "hbar={:g}, v0={:g}", ZONE_STEPS_PER_SCALE, params.hbar, params.v0))
    return min(coarse, zone), coarse


def _grid_needs(params, tau_end):
    """(reach, spacing) a co-moving grid for a run up to tau_end needs.

    reach: the half-width in y to cover, 10 sigma of tails plus the lag
    delta (k/k' - 1) that each zone passage leaves behind (the well channel's
    lead is smaller), never more than the orbit, 2A.  spacing: the stricter of
    sigma / POINTS_PER_SIGMA and pi over the momentum content, a few packet
    widths of spread plus the barrier channel's slow-down k - k' in the zone.
    The barrier channel never leads: where k' rounds above k, lag and slow-down
    are 0, so reach and spacing are positive.
    """
    k, k_prime = _wavenumbers(params)
    lag = params.delta * max(k / k_prime - 1.0, 0.0) if k_prime > 0 else math.inf
    passages = max(1, math.floor(2.0 * tau_end / params.period + 0.5))
    reach = 10.0 * params.sigma + min(passages * lag, 2.0 * params.amp)
    spacing = min(params.sigma / POINTS_PER_SIGMA,
                  math.pi / (6.0 / params.sigma + max(k - k_prime, 0.0)))
    return reach, spacing


def default_grid(params, tau_end=None):
    """Co-moving grid [-r, r] at the needs of _grid_needs for a run up to tau_end
    (default tau_star): r the reach, the spacing at most the needed one with a
    5-smooth point count, and the zone's step ceiling of _step_ceilings.
    """
    reach, spacing = _grid_needs(params, params.tau_star if tau_end is None else tau_end)
    need = 2.0 * reach / spacing
    check_domain((not need <= MAX_GRID_POINTS,
                  "the clock grid needs {:.3g} points, more than {}", need, MAX_GRID_POINTS))
    n_points = _fft_friendly(max(256, math.ceil(need)))
    return GridSpec(-reach, reach, n_points, _step_ceilings(params)[0])


def _validate_grid(params, grid, tau_end):
    check_domain((not (isinstance(grid.n_points, (int, np.integer)) and grid.n_points > 0),
                  "require integer n_points > 0, got {}", grid.n_points),
                 (not 0 < grid.dt_max < math.inf, "require finite dt_max > 0, got {}", grid.dt_max))
    (reach, spacing), ceiling = _grid_needs(params, tau_end), _step_ceilings(params)[0]
    check_domain(
        (grid.x_min > -reach or grid.x_max < reach, "grid [{:g}, {:g}] does not cover the "
         "packet's co-moving reach [{:g}, {:g}]", grid.x_min, grid.x_max, -reach, reach),
        (grid.dx > spacing * (1 + 1e-12), "grid spacing {:g} exceeds the {:g} that the "
         "packet's width and momentum need", grid.dx, spacing),
        (grid.dt_max > ceiling * (1 + 1e-12),
         "time step {:g} exceeds the clock's ceiling {:g}", grid.dt_max, ceiling))


@dataclass
class TriggerTrajectory:
    """Sampled observables of a numeric run, plus the final channel state."""

    grid: GridSpec
    taus: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    p_off: np.ndarray
    p_on: np.ndarray
    norm: np.ndarray
    final: ChannelState
    n_steps: int  # Strang steps the run took


def _x_range(amp, start, stop):
    """Least and greatest x_cl = amp cos(phase) for phase in [start, stop]: at the ends,
    or -amp and amp where the interval holds a turning point pi + 2 pi k and 2 pi k."""
    ends = amp * np.cos([start, stop])
    turns = [np.ceil((start - top) / (2.0 * math.pi)) * 2.0 * math.pi + top <= stop
             for top in (math.pi, 0.0)]
    return np.where(turns[0], -amp, ends.min(0)), np.where(turns[1], amp, ends.max(0))


def _zone_plan(spans, rate, amp, y, dx, delta, near, far):
    """Zone factors of the steps at phases omega t_i = spans[0], spans[1] = omega dt apart:
    work[:, lo:hi] *= z multiplies each cell [y -+ dx/2] by exp(rate * integral of hat * chi),
    chi the cell's part in [-x_cl, delta - x_cl] at x_cl = amp cos(phase), and the hat
    1 - |phase - spans[0]| / spans[1] over the step before (if spans[2]) and after (if spans[3]).
    The integral is a Gauss rule on the pieces where hat * chi is smooth on the cells an edge
    sweeps and one more each side (once each), the hat's area between the edges; no factor
    where x_cl keeps the zone off (near, far)."""
    n, (centre, h, left, right) = len(y), spans
    ends = centre + h * np.array([-left, right])
    x_lo, x_hi = _x_range(amp, *ends)
    a0, a1, b0, b1 = (np.clip(np.floor((e - y[0]) / dx + 0.5), -2, n + 1).astype(int)
                      for e in (-x_hi, -x_lo, delta - x_hi, delta - x_lo))
    lo = np.clip(a0 - 1, 0, n)
    hi = np.where((near < x_hi) & (x_lo < far), np.clip(b1 + 2, lo, n), lo)
    area = 0.5 * h * (left + right)
    z, stops = np.repeat(np.exp(rate * area), hi - lo, axis=1), np.cumsum(hi - lo)
    first = np.clip([a0 - 1, np.maximum(b0 - 1, a1 + 2)], lo, hi)
    last = np.clip([a1 + 2, b1 + 2], first, hi)
    cells = first[..., None] + np.arange(np.max(last - first, initial=0))
    swept = cells < last[..., None]
    c, step = cells[swept], np.nonzero(swept)[1]
    # hat * chi is smooth between the hat's ends and centre and the phases nearest the centre at
    # which an edge meets a cell end, +-arccos(e / amp) + 2 pi k: two Gauss nodes on each piece
    high = y[c] + 0.5 * dx
    x_meet = np.stack([delta - high + dx, delta - high, dx - high, -high], axis=-1)
    meets = np.arccos(np.clip(x_meet / amp, -1.0, 1.0))
    meets = np.concatenate([meets, -meets], axis=-1)
    meets += 2.0 * math.pi * np.round((centre[step, None] - meets) / (2.0 * math.pi))
    knots = np.sort(np.concatenate([np.clip(meets, ends[0, step, None], ends[1, step, None]),
                                    ends.T[step], centre[step, None]], axis=-1), axis=-1)
    width = np.diff(knots, axis=-1)
    cell, piece = np.nonzero(width)
    width, at = width[cell, piece], step[cell]
    nodes = knots[cell, piece, None] + width[:, None] * GAUSS_NODES
    # chi is the cell's part right of the left edge less its part right of the right edge
    right = (amp / dx) * np.cos(nodes) + (high[cell] / dx)[:, None]
    chi = np.clip(right, 0.0, 1.0) - np.clip(right - delta / dx, 0.0, 1.0)
    hat = 1.0 - np.abs(nodes - centre[at, None]) / h[at, None]
    integral = np.bincount(cell, 0.5 * width * (chi * hat).sum(-1), minlength=len(c))
    z[:, stops[step] - hi[step] + c] = np.exp(rate * integral)
    return [(p, q, z[:, e - q + p:e]) for p, q, e in zip(lo.tolist(), hi.tolist(), stops.tolist())]


def numeric_evolve(params, grid=None, tau_end=None, sample_times=(), n_samples=200):
    """Integrate the two sigma_x channels with Strang-split Fourier steps.

    Runs in the co-moving frame of the module docstring: the |+> channel
    sees the harmonic potential plus the barrier, the |-> channel plus the
    well, both at y = x - x_cl(t).  Each grid time's zone phase is the zone
    integrated in time against the hat over the steps beside it (the first
    two Magnus terms' potential and [T, V] parts; Magnus 1954, Blanes et al.
    2009), so the moving edges need no step of their own.  Both channels
    keep the initial Gaussian, unstepped, until the first segment between
    two samples in which x_cl can bring the zone onto the grid; from it on
    the step is at most grid.dt_max where x_cl can, else dt_max scaled by
    the ratio of the default ceilings.  n_steps counts the steps taken.
    Splitting is unitary, so the norm is conserved to FFT
    roundoff.  The wave reflected at the zone edges is not resolved; its
    population is at most reflection_bound(params), inside the closed-form
    agreement budget max(0.05, 3 * reflection).  `sample_times`, in
    [0, tau_end], are landed on exactly; n_samples regular samples cover
    [0, tau_end] in addition.  x_mean and p_mean are lab-frame values.
    """
    if tau_end is None:
        tau_end = params.tau_star
    check_domain((not (math.isfinite(tau_end) and tau_end > 0),
                  "require finite tau_end > 0, got {}", tau_end),
                 *((not 0.0 <= t <= tau_end, "sample time {} outside [0, tau_end={}]", t, tau_end)
                   for t in map(float, sample_times)))
    if grid is None:
        grid = default_grid(params, tau_end=tau_end)
    _validate_grid(params, grid, tau_end)

    m, omega, hbar, amp = params.m, params.omega, params.hbar, params.amp
    n, dx = grid.n_points, grid.dx
    y = grid.x_min + dx * np.arange(n)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    harmonic, kinetic = 0.5 * m * omega**2 * y**2, hbar * k**2 / (2.0 * m)
    zone = np.array([[params.v0], [-params.v0]])  # barrier for |+>, well for |->

    packet = np.exp(-(y**2) / (2.0 * params.sigma**2))
    packet = packet / math.sqrt(float(np.sum(packet**2)) * dx)
    psi = np.tile(packet.astype(complex) / math.sqrt(2.0), (2, 1))

    regular = tau_end * np.arange(n_samples + 1) / max(n_samples, 1)
    taus = np.unique(np.concatenate([[0.0, tau_end], np.asarray(sample_times, float), regular]))
    taus = taus[taus <= tau_end] + 0.0  # + 0.0 turns a sample time -0.0 into 0.0

    # the zone term reaches the grid only for x_cl in (near, far); other segments step coarsely
    near, far = -(y[-1] + 0.5 * dx), params.delta - (y[0] - 0.5 * dx)
    fine, coarse = _step_ceilings(params)
    coarse *= grid.dt_max / fine
    x_lo, x_hi = _x_range(amp, omega * taus[:-1], omega * taus[1:])
    touches = (x_hi > near) & (x_lo < far)
    first = int(np.argmax(np.append(touches, True)))  # before it psi stays the initial Gaussian
    lengths = np.diff(taus)[first:]
    counts = np.maximum(1, np.ceil(lengths / np.where(touches[first:], grid.dt_max, coarse)))
    factors, schedule = {}, []
    for start, steps, dt in zip(taus[first:].tolist(), counts.astype(int).tolist(),
                                (lengths / counts).tolist()):
        if dt not in factors:  # half, full and kick, one row per channel
            half = np.tile(np.exp(-0.5j * harmonic * dt / hbar), (2, 1))
            factors[dt] = (half, half * half, np.tile(np.exp(-1j * kinetic * dt), (2, 1)))
        schedule.append((start, steps, dt, *factors[dt]))

    def plans():  # each step's zone, planned PLAN_ENTRIES factors at a time
        chunk, rate = max(1, PLAN_ENTRIES // (2 * n)), -1j * zone / (hbar * omega)
        spans = ((omega * (start + i * dt), omega * dt, i > 0, i < steps)
                 for start, steps, dt, *_ in schedule for i in range(steps + 1))
        while block := list(itertools.islice(spans, chunk)):
            yield from _zone_plan(np.array(block, dtype=float).T, rate, amp, y, dx, params.delta,
                                  near, far)

    # merged Strang sweep: half V(t_0), (kick, full V(t_i)) for 0 < i < steps, kick,
    # half V(t_steps), each V(t_i) the zone against the hat of t_i over the steps beside it
    # in the segment; each segment's end state is recorded as a copy
    plan, work, states = plans(), psi.copy(), [psi]
    for _, steps, _, half, full, kick in schedule:
        for i in range(steps + 1):
            if i:
                np.fft.fft(work, axis=-1, out=work)
                work *= kick
                np.fft.ifft(work, axis=-1, out=work)
            work *= half if i in (0, steps) else full
            lo, hi, z = next(plan)
            work[:, lo:hi] *= z
        states.append(work.copy())
    psi, n_steps = states[-1], sum(segment[1] for segment in schedule)

    # lab-frame <x> = x_cl + <y> and <p> = p_cl + hbar <k>; samples before contact share psi_0
    rows = np.maximum(np.arange(len(taus)) - (len(taus) - len(states)), 0)
    states = np.asarray(states)
    density = np.sum(np.abs(states) ** 2, axis=1)
    total = np.sum(density, axis=-1)
    spectrum = np.sum(np.abs(np.fft.fft(states, axis=-1)) ** 2, axis=1)
    return TriggerTrajectory(
        grid=grid,
        taus=taus,
        x_mean=amp * np.cos(omega * taus) + (np.sum(density * y, axis=-1) / total)[rows],
        p_mean=(-m * omega * amp * np.sin(omega * taus)
                + (hbar * np.sum(spectrum * k, axis=-1) / np.sum(spectrum, axis=-1))[rows]),
        p_off=(np.sum(np.abs(states[:, 0] + states[:, 1]) ** 2, axis=-1) * dx / 2.0)[rows],
        p_on=(np.sum(np.abs(states[:, 0] - states[:, 1]) ** 2, axis=-1) * dx / 2.0)[rows],
        norm=np.sqrt(total * dx)[rows],
        final=ChannelState(psi=psi, dx=dx),
        n_steps=n_steps,
    )


@dataclass(frozen=True)
class TriggerConditionReport:
    """Both clauses of the firing condition, with diagnostics."""

    p_ready_before: float   # not-fired population at params.probe_time
    p_fired_at_star: float  # fired population at tau_star
    norm_drift: float
    validity_failures: tuple

    @property
    def passed(self):
        return (
            not self.validity_failures
            and self.p_ready_before >= READY_THRESHOLD
            and self.p_fired_at_star >= FIRED_THRESHOLD
        )


def _report(params, p_ready_before, p_fired_at_star, norm_drift):
    """The report of both clauses; a violated parameter hierarchy, or a
    crossing time too long to leave room for the probe, fails it whatever
    the populations."""
    failures = check_warnings(params.validity_checks() + [(
        params.probe_time == 0.0, "crossing time epsilon={:g} too close to tau_star={:g}",
        params.epsilon, params.tau_star)])
    return TriggerConditionReport(p_ready_before, p_fired_at_star, norm_drift, tuple(failures))


def check_trigger_condition(params):
    """The firing condition in closed form: armed at params.probe_time,
    fired at tau_star.  Passes by construction unless the hierarchy fails."""
    p_off, p_on, _ = analytic_columns(params, np.array([params.probe_time, params.tau_star]))
    return _report(params, float(p_off[0]), float(p_on[1]), 0.0)


def condition_from_trajectory(params, trajectory):
    """The firing condition read from a numeric run, with its norm drift.

    The trajectory must contain samples at (or near) params.probe_time and
    tau_star; :func:`numeric_evolve` lands exactly on requested sample_times.
    """
    probe, star = (int(np.argmin(np.abs(trajectory.taus - t)))
                   for t in (params.probe_time, params.tau_star))
    return _report(params, float(trajectory.p_off[probe]), float(trajectory.p_on[star]),
                   float(np.max(np.abs(trajectory.norm - 1.0))))
