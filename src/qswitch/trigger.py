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

from .spacetime import HBAR

#: "much greater than" factor for the parameter hierarchy
VALIDITY_THRESHOLD = 10.0

#: trigger-condition fidelity thresholds (ready-state, fired-state)
READY_THRESHOLD = 0.99
FIRED_THRESHOLD = 0.95

#: clock resolution: grid spacing at most sigma / POINTS_PER_SIGMA, step at
#: most min(2 pi/omega, pi hbar/v0) / STEPS_PER_SCALE
POINTS_PER_SIGMA = 8.0
STEPS_PER_SCALE = 200.0
#: complex zone factors planned at a time, which bounds a long run's plan memory
PLAN_ENTRIES = 1 << 16


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
        for name in ("m", "omega", "delta", "hbar") + explicit:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"require finite {name} > 0, got {value}")
        if not (math.isfinite(self.v0) and self.v0 >= 0):
            raise ValueError(f"require finite v0 >= 0, got {self.v0}")
        if self.amplitude is None and self.v0 == 0.0:
            raise ValueError("v0 = 0 requires an explicit amplitude")

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

    def validity_failures(self):
        names = ("amplitude/zone-width", "zone-width/packet-width",
                 "kinetic-energy/barrier")
        return [
            f"{name} factor {value:.3g} below threshold {VALIDITY_THRESHOLD:g}"
            for name, value in zip(names, self.validity_factors())
            if value < VALIDITY_THRESHOLD
        ]


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
    outside = (taus < 0) | (taus > tau_star * (1 + 1e-12))
    if outside.any():
        raise ValueError(f"tau={taus[outside][0]:g} outside [0, tau_star={tau_star:g}]")
    entry = tau_star - params.epsilon
    phi = params.v0 * (taus - entry) / params.hbar
    fired = taus >= entry
    cos, sin = np.cos(phi), np.sin(phi)
    alpha = params.alpha0 * np.exp(-1j * params.omega * taus)
    return (np.where(fired, cos * cos, 1.0), np.where(fired, sin * sin, 0.0),
            math.sqrt(2.0) * params.sigma * alpha.real)


def reflection_bound(params):
    """Plane-wave estimate of one-edge reflection at the potential step.

    ((k - k')/(k + k'))^2 with  hbar k = m v  and
    hbar k' = sqrt(2 m (E - v0)); quantifies the error of the
    perfect-transmission approximation.  Returns 1.0 when the packet
    energy does not clear the barrier (invalid regime, also surfaced by
    validity_failures()).
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
    is dt_max * period / min(period, pi hbar / v0), scaled alike.
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


def _time_scale(params):
    """Fastest time scale the step must resolve: min(2 pi/omega, pi hbar/v0)."""
    if params.v0 > 0:
        return min(params.period, math.pi * params.hbar / params.v0)
    return params.period


def _max_wavenumber(params):
    """Momentum content of the co-moving packet: a few packet widths of
    spread plus the slow-down k - k' of the barrier channel in the zone."""
    k, k_prime = _wavenumbers(params)
    return 6.0 / params.sigma + (k - k_prime)


def _reach(params, tau_end):
    """Half-width in y the grid must cover: 10 sigma of tails plus the lag
    delta (k/k' - 1) that each zone passage up to tau_end leaves behind
    (the well channel's lead is smaller); never more than the orbit, 2A."""
    k, k_prime = _wavenumbers(params)
    lag = params.delta * (k / k_prime - 1.0) if k_prime > 0 else math.inf
    passages = max(1, math.floor(2.0 * tau_end / params.period + 0.5))
    return 10.0 * params.sigma + min(passages * lag, 2.0 * params.amp)


def default_grid(params, tau_end=None):
    """Co-moving grid [-r, r], r the packet's reach up to tau_end (default
    tau_star), resolving both width and momentum: spacing the stricter of
    sigma / POINTS_PER_SIGMA and pi/(6/sigma + k - k'), a 5-smooth point
    count, and a step ceiling min(2 pi/omega, pi hbar/v0) / STEPS_PER_SCALE.
    """
    reach = _reach(params, params.tau_star if tau_end is None else tau_end)
    dx_req = min(params.sigma / POINTS_PER_SIGMA, math.pi / _max_wavenumber(params))
    n_points = _fft_friendly(max(256, math.ceil(2.0 * reach / dx_req)))
    return GridSpec(-reach, reach, n_points, _time_scale(params) / STEPS_PER_SCALE)


def _validate_grid(params, grid, tau_end):
    if not (isinstance(grid.n_points, (int, np.integer)) and grid.n_points > 0):
        raise ValueError(f"require integer n_points > 0, got {grid.n_points}")
    if not 0 < grid.dt_max < math.inf:
        raise ValueError(f"require finite dt_max > 0, got {grid.dt_max}")
    reach = _reach(params, tau_end)
    if grid.x_min > -reach or grid.x_max < reach:
        raise ValueError(
            f"grid [{grid.x_min:g}, {grid.x_max:g}] does not cover the packet's "
            f"co-moving reach [{-reach:g}, {reach:g}]"
        )
    dx_max = params.sigma / POINTS_PER_SIGMA
    if grid.dx > dx_max * (1 + 1e-12):
        raise ValueError(
            f"grid spacing {grid.dx:g} exceeds sigma/{POINTS_PER_SIGMA:g} = {dx_max:g}"
        )
    k_nyquist = math.pi / grid.dx
    k_needed = _max_wavenumber(params)
    if k_nyquist < k_needed * (1 - 1e-12):
        raise ValueError(
            f"grid spacing {grid.dx:g} cannot represent the packet momentum: "
            f"Nyquist {k_nyquist:g} < required {k_needed:g} rad/m"
        )
    scale = _time_scale(params)
    if grid.dt_max > scale / STEPS_PER_SCALE * (1 + 1e-12):
        raise ValueError(
            f"time step {grid.dt_max:g} does not resolve the fastest scale "
            f"{scale:g}/{STEPS_PER_SCALE:g}"
        )


@dataclass
class TriggerTrajectory:
    """Sampled observables of a numeric run, plus the final channel state."""

    params: TriggerParams
    grid: GridSpec
    taus: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    p_off: np.ndarray
    p_on: np.ndarray
    norm: np.ndarray
    final: ChannelState
    n_steps: int  # Strang steps the run took

    def at(self, tau):
        """Sampled values at the stored time closest to tau."""
        i = int(np.argmin(np.abs(self.taus - tau)))
        return {
            "tau": float(self.taus[i]),
            "x_mean": float(self.x_mean[i]),
            "p_mean": float(self.p_mean[i]),
            "p_off": float(self.p_off[i]),
            "p_on": float(self.p_on[i]),
            "norm": float(self.norm[i]),
        }


def _zone_plan(x_cl, rate, y, dx, delta, near, far):
    """Zone factor of steps at x_cl, rate[:, i]: work[:, lo:hi] *= z multiplies each cell
    [y -+ dx/2] by exp(rate * chi), chi its part in [-x_cl, delta - x_cl]: the fraction on
    the 3 cells at each edge (once each), exp(rate) between, none if x_cl is off (near, far)."""
    n = len(y)
    a, b = (np.floor((e - y[0]) / dx + 0.5).astype(int) for e in (-x_cl, delta - x_cl))
    lo = np.clip(a - 1, 0, n)
    hi = np.where((near < x_cl) & (x_cl < far), np.clip(b + 2, lo, n), lo)
    z, ends = np.repeat(np.exp(rate), hi - lo, axis=1), np.cumsum(hi - lo)
    cells = np.concatenate([a[:, None] + [-1, 0, 1], b[:, None] + [-1, 0, 1]], axis=1)
    on = (lo[:, None] <= cells) & (cells < hi[:, None])
    on[:, 3:] &= cells[:, 3:] >= a[:, None] + 2
    i, c = np.nonzero(on)
    x, c = x_cl[i], cells[i, c]
    chi = np.clip((np.minimum(delta - x, y[c] + 0.5 * dx) - np.maximum(-x, y[c] - 0.5 * dx)) / dx,
                  0.0, 1.0)
    z[:, ends[i] - hi[i] + c] = np.exp(rate[:, i] * chi)
    return [(p, q, z[:, e - q + p:e]) for p, q, e in zip(lo.tolist(), hi.tolist(), ends.tolist())]


def numeric_evolve(params, grid=None, tau_end=None, sample_times=(), n_samples=200):
    """Integrate the two sigma_x channels with Strang-split Fourier steps.

    Runs in the co-moving frame of the module docstring: the |+> channel
    sees the harmonic potential plus the barrier, the |-> channel plus the
    well, both at y = x - x_cl(t), with the zone sampled at each step's
    grid times.  Both channels keep the initial Gaussian, unstepped, until
    the first segment between two samples in which x_cl can bring the zone
    onto the grid; from it on the step is at most grid.dt_max where x_cl
    can, else dt_max * period / min(period, pi hbar / v0).  n_steps counts
    the steps taken.  Splitting is unitary, so the norm is conserved to FFT
    roundoff.  The wave reflected at the zone edges is not resolved; its
    population is at most reflection_bound(params), inside the closed-form
    agreement budget max(0.05, 3 * reflection).  `sample_times`, in
    [0, tau_end], are landed on exactly; n_samples regular samples cover
    [0, tau_end] in addition.  x_mean and p_mean are lab-frame values.
    """
    if tau_end is None:
        tau_end = params.tau_star
    if not (math.isfinite(tau_end) and tau_end > 0):
        raise ValueError(f"require finite tau_end > 0, got {tau_end}")
    for t in sample_times:
        if not 0.0 <= float(t) <= tau_end:
            raise ValueError(f"sample time {float(t)} outside [0, tau_end={tau_end}]")
    if grid is None:
        grid = default_grid(params, tau_end=tau_end)
    _validate_grid(params, grid, tau_end)

    m, omega, hbar, amp = params.m, params.omega, params.hbar, params.amp
    n, dx = grid.n_points, grid.dx
    y = grid.x_min + dx * np.arange(n)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    # one row per channel, so each step multiplies whole arrays without broadcasting
    harmonic, kinetic = (np.tile(v, (2, 1)) for v in (0.5 * m * omega**2 * y**2,
                                                      hbar * k**2 / (2.0 * m)))
    zone = np.array([[params.v0], [-params.v0]])  # barrier for |+>, well for |->

    packet = np.exp(-(y**2) / (2.0 * params.sigma**2))
    packet = packet / math.sqrt(float(np.sum(packet**2)) * dx)
    psi = np.tile(packet.astype(complex) / math.sqrt(2.0), (2, 1))

    events = {0.0, float(tau_end), *(float(t) for t in sample_times)}
    events.update(tau_end * i / max(n_samples, 1) for i in range(n_samples + 1))
    events = sorted(t for t in events if 0.0 <= t <= tau_end)

    # the zone term reaches the grid only for x_cl in (near, far); other segments step coarsely
    near, far = -(y[-1] + 0.5 * dx), params.delta - (y[0] - 0.5 * dx)
    coarse = grid.dt_max * params.period / _time_scale(params)
    x_events = [amp * math.cos(omega * t) for t in events]
    factors, rates, schedule = {}, [], []
    for j, (start, end) in enumerate(zip(events, events[1:])):
        # x_cl over the segment: its ends and any turning point t = i pi/omega
        turns = range(math.ceil(omega * start / math.pi), math.floor(omega * end / math.pi) + 1)
        x_range = x_events[j:j + 2] + [amp * (-1.0) ** i for i in turns[:2]]
        touches = max(x_range) > near and min(x_range) < far
        if not (touches or schedule):
            continue  # before the first contact psi stays the initial Gaussian
        steps = max(1, math.ceil((end - start) / (grid.dt_max if touches else coarse)))
        dt = (end - start) / steps
        if dt not in factors:  # half, full, kick and zone rate column (full step; + 1: half)
            half = np.exp(-0.5j * harmonic * dt / hbar)
            factors[dt] = (half, half * half, np.exp(-1j * kinetic * dt), len(rates))
            rates += [-1j * (s * dt / hbar) * zone for s in (1.0, 0.5)]
        schedule.append((start, steps, dt, *factors[dt]))

    def plans():  # each step's zone, planned PLAN_ENTRIES factors at a time
        table, chunk = np.hstack(rates), max(1, PLAN_ENTRIES // (2 * n))
        grid_times = ((amp * math.cos(omega * (start + i * dt)), column + (i in (0, steps)))
                      for start, steps, dt, *_, column in schedule for i in range(steps + 1))
        while block := list(itertools.islice(grid_times, chunk)):
            x_cl, cols = zip(*block)
            yield from _zone_plan(np.array(x_cl), table[:, cols], y, dx, params.delta, near, far)

    # merged Strang sweep: half V(t_0), (kick, full V(t_i)) for 0 < i < steps,
    # kick, half V(t_steps); each segment's end state is recorded as a copy
    plan, work, states = plans(), psi.copy(), [psi]
    for _, steps, _, half, full, kick, _ in schedule:
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
    taus = np.asarray(events)
    rows = np.maximum(np.arange(len(taus)) - (len(taus) - len(states)), 0)
    states = np.asarray(states)
    density = np.sum(np.abs(states) ** 2, axis=1)
    total = np.sum(density, axis=-1)
    spectrum = np.sum(np.abs(np.fft.fft(states, axis=-1)) ** 2, axis=1)
    return TriggerTrajectory(
        params=params,
        grid=grid,
        taus=taus,
        x_mean=amp * np.cos(omega * taus) + (density @ y / total)[rows],
        p_mean=(-m * omega * amp * np.sin(omega * taus)
                + (hbar * (spectrum @ k) / np.sum(spectrum, axis=-1))[rows]),
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
    reflection: float
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
    failures = tuple(params.validity_failures())
    if params.probe_time == 0.0:
        failures += (f"crossing time epsilon={params.epsilon:g} too close to "
                     f"tau_star={params.tau_star:g}",)
    return TriggerConditionReport(p_ready_before, p_fired_at_star,
                                  reflection_bound(params), norm_drift, failures)


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
    return _report(params, trajectory.at(params.probe_time)["p_off"],
                   trajectory.at(params.tau_star)["p_on"],
                   float(np.max(np.abs(trajectory.norm - 1.0))))
