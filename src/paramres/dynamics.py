"""Time-domain propagation of the three-body system under flux pulses.

The integrator is a piecewise-constant midpoint rule: the Hamiltonian is
sampled at step midpoints and each step applies exp(-i*2*pi*H(t_mid)*dt)
through an exact eigendecomposition, so every step is exactly unitary and
the global error is second order in dt.  Propagation happens in the lab
frame; single-qubit phases are stripped afterwards (see tomography).

The step size follows the physics.  Each step is exact for its own
Hamiltonian, so the static part of H costs no accuracy at any step size
and only the modulation sets the error.  A modulated pulse takes its
steps per period from a closed-form rule under an error budget
(STEP_ERROR_BUDGET: 5e-4 on the gate's computational columns; the step
is modulation_step), and step_error measures what a run actually left.
A static pulse takes no steps: it evolves in closed form from one
eigendecomposition.  A propagation evolves only the columns its caller
reads, U(t) X for a DIMxk isometry X (one prepared state, or the dressed
computational basis of a gate block), cut at exactly the requested
times, the duration by default.

The Hamiltonian conserves the excitation parity, so H and every
propagator are block diagonal in effective.PARITY_BLOCKS, and each block
evolves on its own.  A propagation evolves only the blocks that X
reaches: a block whose rows of X are all exactly zero is never
diagonalized, multiplied or cut.  One prepared state of a definite
parity, such as a dressed computational state, evolves in its block
alone; the identity and a gate block's basis reach both.

The drive is a pure sine, so a modulation period is fixed by its first
quarter: the step Hamiltonians mirror about T/4 and 3T/4, and about a
sweet spot the second half repeats the first.  propagate diagonalizes
only those distinct steps, one quarter (two off a sweet spot), builds
the prefixes of one period from the products over those quarters, and
with the period's Floquet form gives the propagator at any time, block
by block
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009); Shirley,
Phys. Rev. 138, B979 (1965)).

Only qubit 2 is flux-modulated.  The coupler stays at the DC bias that
set the parameters p (see device.device_params), so its frequency and
its q1 coupling are static terms of the Hamiltonian; the sideband picture
of Didier et al., PRA 97, 022330 (2018).
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .effective import (COMPUTATIONAL_INDICES, COMPUTATIONAL_LABELS, DIM, PARITY_BLOCKS,
                        basis_index, min_gap, parity_blocks, static_couplings)
from .fluxcontrol import FluxPulse, instantaneous_flux, is_sweet_spot
from .spectrum import DeviceParams, transition_frequency, transmon_expansion

UNITARITY_TOL = 1e-8

#: Largest prefix table (bytes) of one modulation period that propagate
#: builds: m + 1 complex matrices per evolved parity block.  At the
#: calibrated amplitudes, with both blocks, that is 0.45 MiB (iSWAP) and
#: 0.90 MiB (CZ20) at 0.28 GHz, 2.2 and 4.7 MiB at 10 MHz, and 69 and
#: 148 MiB at 10 kHz; m grows as f_m^(-1/2), so 1e-9 GHz would take 6.7
#: and 14.5 GiB.
_PERIOD_TABLE_LIMIT = 64 * 2**20


@dataclass(frozen=True)
class Propagation:
    """Result of one time-domain propagation."""

    dt: float                    # step size (ns); a static pulse's duration
    n_steps: int                 # steps to the latest cut; 1 for a static pulse
    n_diagonalized: int          # step Hamiltonians diagonalized, in the blocks X reaches
    cuts: np.ndarray             # U(t_i) X per cut time t_i (T by default), (n_times, DIM, k)
    unitarity_defect: float      # largest max|U_P^H U_P - I| of an evolved block's period U_P


def _parameter_series(p, q2_pulse, q2_spec, t_mid):
    """Samples of the q2-dependent model parameters at the times t_mid.

    f2(t) = p.f2 + [band(flux(t)) - band(flux_dc)], so p remains the exact
    operating point at zero pulse amplitude.  The two couplings of q2
    scale with its zero-point charge fluctuation n_zpf, which goes as
    EJ^(1/4), relative to the DC value.  One spectrum.transmon_expansion
    at the flux samples and one at the DC flux give both.  f1, fc, g1c
    and the anharmonicities stay at their values in p.

    That ratio is all the scaling: device_params also multiplies each
    coupling of q2 by the flux-dependent factor (1 - (xi + xi2)/8), with
    xi that of its partner, and the series leaves it at its DC value.
    So at a q2 flux A the series reads g2c and g12 above
    device_params(phi2=A): by 0.08% at A = 0.155 Phi0 (iSWAP), 0.13% at
    0.2 Phi0 and 0.40% at 0.373 Phi0 (CZ20), the same at both default
    coupler biases.
    """
    flux2 = 2.0 * math.pi * instantaneous_flux(q2_pulse, t_mid)
    band = transmon_expansion(q2_spec, flux2)
    dc = transmon_expansion(q2_spec, 2.0 * math.pi * q2_pulse.phi_dc)
    r2 = band.n_zpf / dc.n_zpf
    return {"f2": p.f2 + (band.f01 - dc.f01), "g2c": p.g2c * r2, "g12": p.g12 * r2}


# cuts per batch: each batch gathers its cuts' prefixes from the period's
# table and takes their partial steps at once; bounds the work arrays
_CUT_BATCH = 64

def _step_matrices(p, series, dts, blocks):
    """The midpoint steps of lengths dts, one stack per block of blocks.

    series holds the q2 parameters at the step midpoints (see
    _parameter_series).  steps[b][i] is exp(-i*2*pi*H_i*dts[i]) in the
    parity block blocks[b] (see effective.parity_blocks), from the
    eigendecomposition of H_i there.
    """
    steps = []
    for _, h in parity_blocks(p, **series, blocks=blocks):
        evals, vecs = np.linalg.eigh(h)
        phases = np.exp(-2j * math.pi * evals * dts[:, None])
        steps.append((vecs * phases[:, None, :]) @ vecs.transpose(0, 2, 1))
    return steps


#: Step-error budget of a modulated pulse propagated at dt=None: the
#: largest error of the gate's computational columns, max|U B - U_ref B|
#: with B the dressed DIMx4 basis, that the steps per period may leave.
#:
#: The rule behind it.  Over one step of length h about its midpoint,
#: the exact exponent differs from the midpoint step's by the Taylor term
#: 2*pi*h^3*H''/24 and the commutator term (2*pi)^2*h^3*[H', H]/12
#: (Magnus expansion; Blanes et al. 2009).  Only q2's frequency moves
#: fast, so H' ~ f2'(t) N2.  The Taylor terms add up over the pulse to a
#: phase 2*pi*(h^2/24)*(f2'(T) - f2'(0)) that stays bounded instead of
#: growing with the duration.  q2's frequency swings by W at up to twice
#: the modulation frequency f_m, so |f2'| <= 2*pi*f_m*W and, with
#: h = 1/(m*f_m), the phase error is at most (pi^2/6)*W/(f_m*m^2).  The
#: commutator terms exchange q2 and coupler excitations and, away from a
#: q2-coupler sideband collision, are of the same order.  On the
#: calibrated iSWAP and CZ20 gates within 10 MHz of 0.28 GHz the measured
#: error is 0.25-2.3 times that estimate (it depends on where in the
#: period the pulse stops), so _STEP_MARGIN times the estimate is held to
#: the budget:
#:
#:     m = sqrt(_STEP_MARGIN * (pi^2/6) * W / (f_m * STEP_ERROR_BUDGET)),
#:
#: rounded up to a multiple of 8, so that m/2 steps per period also
#: snap exactly (the half-resolution run of step_error).  At 0.28 GHz
#: that is m = 80 for iSWAP and 160 for CZ20, where 1/(40*fc) gave 648
#: and 636.
STEP_ERROR_BUDGET = 5e-4
_STEP_MARGIN = 4.0


def _is_modulated(q2_pulse: FluxPulse) -> bool:
    return q2_pulse.mod_freq > 0 and q2_pulse.amplitude != 0.0


def modulation_step(q2_pulse: FluxPulse, q2_spec) -> float:
    """The step (ns) that propagate takes for q2_pulse at dt=None.

    A modulated pulse takes m steps per modulation period under
    STEP_ERROR_BUDGET.  W is the swing of q2's frequency over 33 fluxes
    spanning the pulse's excursion; the couplings' EJ^(1/4) scaling
    moves H far less and is left out.  Times dt*round(t/dt) lie on the
    step grid, where propagate cuts for free.  A static pulse evolves in
    one exact step, its duration.
    """
    if not _is_modulated(q2_pulse):
        return q2_pulse.duration
    flux = q2_pulse.phi_dc + q2_pulse.amplitude * np.linspace(-1.0, 1.0, 33)
    swing = float(np.ptp(transition_frequency(q2_spec, 2.0 * math.pi * flux)))
    m = math.sqrt(_STEP_MARGIN * math.pi ** 2 / 6.0 * swing
                  / (q2_pulse.mod_freq * STEP_ERROR_BUDGET))
    return (1.0 / q2_pulse.mod_freq) / (8 * max(1, math.ceil(m / 8.0)))


def _isometry(columns) -> np.ndarray:
    """columns as a complex DIMxk isometry, k >= 1.

    Anything that is not 2-D of DIM rows and at least one column, finite
    and orthonormal to 1e-8 (max|X^H X - I|) raises ValueError.
    """
    x = np.asarray(columns, dtype=complex)
    if (x.ndim != 2 or x.shape[0] != DIM or x.shape[1] < 1 or not np.all(np.isfinite(x))
            or np.max(np.abs(x.conj().T @ x - np.eye(x.shape[1]))) > 1e-8):
        raise ValueError(f"columns must be a finite {DIM}xk isometry with k >= 1, "
                         f"got shape {x.shape}")
    return x


def _half_period(quarter, h) -> np.ndarray:
    """Write into h[:2q + 1], and return h, the prefixes H_0 = I, H_1, ...,
    H_2q of a half period whose step j < q is quarter[j] and whose step
    q + j mirrors step q - 1 - j.

    Each step V exp(-i*phi) V^T, with V real, is complex symmetric, so
    with A = H_q the mirrored prefixes are H_{q+j} = conj(H_{q-j}) A^T A:
    q plain products and one batched one.
    """
    q = len(quarter)
    h[0] = np.eye(len(h[0]))
    for j in range(q):
        np.matmul(quarter[j], h[j], out=h[j + 1])
    np.matmul(h[q - 1::-1].conj(), h[q].T @ h[q], out=h[q + 1:2 * q + 1])
    return h


def propagate(p: DeviceParams, q2_pulse: FluxPulse, q2_spec, dt=None,
              columns=None, times=None) -> Propagation:
    """Propagate over the q2 pulse window and cut it at the requested times.

    p holds the model parameters at the DC biases (see
    device.device_params); the coupler stays at its bias in p.  q2_spec
    converts the instantaneous q2 flux to its frequency and coupling scale
    factors.

    times, a nonempty 1-D array, requests cuts of the evolution at times
    in (0, duration], one per request in request order: cuts[i] =
    U(t_i) X, of shape (len(times), DIM, k), for X = columns, a DIMxk
    isometry (orthonormal columns, k >= 1) that defaults to the identity.
    times defaults to [duration], so that cuts[-1] is U(T) X, the full
    unitary U(T) for the default X.  Callers pass only
    the columns they read: one prepared state, or the dressed basis B of
    a gate block B^H (U B).  The cut at t is the unitary that the same
    pulse with duration t returns: the pulse is square, so the truncated
    pulse takes the same steps up to t, and both end with the same
    partial step.  A duration scan then costs one propagation instead of
    one per duration.

    Parity blocks: H keeps the excitation parity, so U(t) is block
    diagonal in effective.PARITY_BLOCKS.  Only the blocks in which X has
    a nonzero row are evolved: their steps, prefixes, Floquet forms and
    cuts are computed block by block, and the rows of U(t) X outside
    them are exactly zero.  A column of one parity, such as a dressed
    computational state, costs one block.  Every cut of a block is built
    on its period propagator U_P (see Period reuse), or on a static
    pulse's eigenvectors Z, so that matrix is checked against
    UNITARITY_TOL; unitarity_defect is the largest max|U_P^H U_P - I|
    (or Z's).

    The step: with dt=None a modulated pulse takes modulation_step, m
    steps per period with m a multiple of 8 under STEP_ERROR_BUDGET
    (m = 80 for iSWAP and 160 for CZ20 at 0.28 GHz).  An explicit dt
    must be finite and > 0; it is snapped to the next multiple of 4 steps
    per period.  A period whose prefix table would exceed
    _PERIOD_TABLE_LIMIT raises ValueError, naming the modulation
    frequency and m, before any step is built.  A static pulse is exact
    at any t, as U(t) = Z exp(-2*pi*i*E*t) Z^T from the one
    eigendecomposition H = Z E Z^T: it ignores dt and counts one step and
    one diagonalization.

    The cost of a cut: at time t a modulated pulse takes s = floor(t/dt)
    whole steps by period reuse and then one partial step of length
    t - s*dt at its own midpoint (none when that is below 1e-4 of a
    step).  A cut on the step grid (dt*k, with dt from modulation_step)
    costs a few products per evolved block and no diagonalization, so a
    scan over grid times, the duration among them, diagonalizes the
    period's distinct steps and nothing else.  Each cut off the grid
    diagonalizes one partial step in each evolved block, and counts one
    diagonalization however many blocks it takes.

    Period reuse: a modulated pulse has m steps per period, so the
    Hamiltonian repeats every m steps.  With P_k the product of the first
    k steps of a period, after s = n*m + k steps (0 <= k < m) the
    propagator is P_k U_P^n, with U_P^n = Z diag(exp(i*n*theta)) Z^H and
    (theta, Z) from the complex Schur form of U_P = P_m, each of them
    per evolved block (Shirley's Floquet form is block diagonal too).
    The prefixes sample the periodic waveform, also past the end of a
    pulse shorter than its period, whose cuts read only the prefixes it
    reaches.  So the cost grows with the steps per period, the cuts and
    the evolved blocks, not with duration/dt.  Of the m prefixes only
    those of quarter 1 (and of quarter 3 off a sweet spot) are plain
    sequential products; the rest follow in two batched products, three
    off a sweet spot (see Quarter symmetry and _half_period).  The cuts
    go in one loop over batches of _CUT_BATCH requests: a batch reads
    each cut as P_k Z (exp(i*n*theta) * Z^H x) in each block, for x the
    block's rows of X, and then takes the partial steps of its off-grid
    cuts, diagonalized together; a static pulse is the case k = 0,
    theta = -2*pi*E and n = t.

    Quarter symmetry: with q = m/4 and midpoints (j + 1/2)*dt, the flux
    enters H only through sin(2*pi*f*t), so within each half period step
    j repeats step 2q-1-j (mirror about T/4 and 3T/4), for any phi_dc.
    About a sweet spot the band and EJ are even in the flux, so the
    second half also repeats the first.  Only the distinct steps, those
    of quarter 1 (and of quarter 3 off a sweet spot), are diagonalized.
    Each step is complex symmetric, so with A = P_q the mirrored quarter
    2 reads P_{q+j} = conj(P_{q-j}) A^T A, and the second half
    P_{2q+j} = H_j P_2q, with H_j the first half's prefixes P_j at a
    sweet spot, else those built the same way from quarter 3.
    """
    duration = q2_pulse.duration
    if duration <= 0:
        raise ValueError("pulse duration must be > 0")
    if dt is not None and not 0.0 < dt < math.inf:  # NaN fails too
        raise ValueError(f"step dt must be finite and > 0, got {dt!r}")
    want = np.asarray([duration] if times is None else times, float)
    if want.ndim != 1 or want.size == 0:
        raise ValueError(f"times must be a nonempty 1-D array, got shape {want.shape}")
    # written so that NaN fails the range test
    if not np.all((want > 0.0) & (want <= duration + 1e-9)):
        raise ValueError("cut times must lie in (0, duration]")
    cols = np.eye(DIM) if columns is None else _isometry(columns)
    # H never leaves a parity block, so a block without a nonzero row of
    # the columns evolves nothing that is read
    blocks = [idx for idx in PARITY_BLOCKS if np.any(cols[idx] != 0.0)]
    ends = np.minimum(want, duration)

    # floquet[b] = (theta, Z, table) of blocks[b]: the propagator after
    # n periods and k steps is table[k] Z diag(exp(i*n*theta)) Z^H
    floquet = []
    if not _is_modulated(q2_pulse):
        # one step of the whole duration, diagonalized once: the cut at t
        # is Z exp(i*t*theta) Z^T with theta = -2*pi*E, with no prefix
        dt, n_steps, n_diagonalized = duration, 1, 1
        series = _parameter_series(p, q2_pulse, q2_spec, np.zeros(1))
        for _, h in parity_blocks(p, **series, blocks=blocks):
            evals, vecs = np.linalg.eigh(h[0])
            floquet.append((-2.0 * math.pi * evals, vecs, None))
        s = np.zeros(len(ends), dtype=int)
        n, k, r = ends, s, np.zeros(len(ends))
    else:
        # Snap dt to m steps per modulation period.  Cut times taken from
        # the step grid sit within summation noise of a boundary; only
        # partial steps that are real are kept.
        period = 1.0 / q2_pulse.mod_freq
        dt = modulation_step(q2_pulse, q2_spec) if dt is None else dt
        # period/(4*dt) of a dt = period/m can round to an ulp above m/4
        m = 4 * math.ceil(period / (4.0 * dt) - 1e-9)
        dt = period / m
        size = (m + 1) * sum(len(idx) ** 2 for idx in blocks) * 16
        if size > _PERIOD_TABLE_LIMIT:
            raise ValueError(
                f"modulation frequency {q2_pulse.mod_freq!r} GHz takes m = {m} steps "
                f"per period, a period table of {size / 2**20:.0f} MiB over the "
                f"{_PERIOD_TABLE_LIMIT / 2**20:.0f} MiB limit")
        s = np.floor(ends / dt + 1e-9).astype(int)
        r = ends - s * dt
        r[r <= 1e-4 * np.minimum(dt, ends)] = 0.0
        n_steps = int(np.max(s + (r > 0.0)))  # to the latest cut
        n, k = np.divmod(s, m)

        # the distinct steps (see Quarter symmetry): quarter 1, and
        # quarter 3 off a sweet spot
        q = m // 4
        sweet = is_sweet_spot(q2_pulse.phi_dc)
        first = np.arange(q) if sweet else np.r_[0:q, 2 * q:3 * q]
        # the steps sample the waveform for a whole period
        wave = replace(q2_pulse, duration=max(duration, period))
        n_diagonalized = len(first)
        series = _parameter_series(p, wave, q2_spec, (first + 0.5) * dt)
        from scipy.linalg import schur

        for unique in _step_matrices(p, series, np.full(len(first), dt), blocks):
            table = np.empty((m + 1, *unique.shape[1:]), dtype=complex)  # table[k] = P_k
            _half_period(unique[:q], table)
            second = (table if sweet else
                      _half_period(unique[q:], np.empty_like(table[:2 * q + 1])))
            # P_{2q+j} = H_j P_2q, with H_j the prefixes of the second half
            np.matmul(second[1:2 * q + 1], table[2 * q], out=table[2 * q + 1:])
            # U_P is unitary, so its complex Schur form is diagonal and
            # U_P^n = Z diag(exp(i*n*theta)) Z^H.
            schur_t, z = schur(table[m], output="complex")
            floquet.append((np.angle(np.diag(schur_t)), z, table))

    # every cut of a block is built on its period propagator U_P = P_m,
    # or on a static pulse's eigenvectors, so a drift of the steps shows there
    defect = max(float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
                 for u in (z if table is None else table[-1] for _, z, table in floquet))
    if defect > UNITARITY_TOL:
        raise ValueError(
            f"unitarity drift {defect:.2e} exceeds {UNITARITY_TOL}; reduce dt")

    # the cuts off the step grid, each ending with one partial step; no
    # partial step, no parameter series
    off = np.flatnonzero(r > 0.0)
    if len(off):
        series = _parameter_series(p, q2_pulse, q2_spec, s[off] * dt + 0.5 * r[off])
    xs = [z.conj().T @ cols[idx] for idx, (_, z, _) in zip(blocks, floquet)]
    cuts = np.zeros((len(want), DIM, cols.shape[1]), dtype=complex)
    starts = range(0, len(want), _CUT_BATCH)
    # the batch of cuts from a on holds the off-grid cuts off[lo:hi]
    edges = np.searchsorted(off, [*starts, len(want)])
    for a, lo, hi in zip(starts, edges, edges[1:]):
        c = slice(a, a + _CUT_BATCH)
        if hi > lo:
            j = off[lo:hi] - a
            batch = {key: values[lo:hi] for key, values in series.items()}
            partial = _step_matrices(p, batch, r[off[lo:hi]], blocks)
        for b, (idx, x, (theta, z, table)) in enumerate(zip(blocks, xs, floquet)):
            zx = z @ (np.exp(1j * np.multiply.outer(n[c], theta))[:, :, None] * x)
            out = zx if table is None else table[k[c]] @ zx
            if hi > lo:
                out[j] = partial[b] @ out[j]
            cuts[c, idx] = out
    return Propagation(dt=dt, n_steps=n_steps, n_diagonalized=n_diagonalized + len(off),
                       cuts=cuts, unitarity_defect=defect)


def step_error(p: DeviceParams, q2_pulse: FluxPulse, q2_spec, basis) -> float:
    """Richardson estimate of the step error of propagate at dt=None.

    The midpoint rule is second order, so with m steps per period
    U(m) - U(m/2) is three times U(m) - U to leading order; the estimate
    is max|(U(m) - U(m/2)) B| / 3 at the duration, on the columns of the
    DIMxk isometry ``basis``.  It costs two propagations of those
    columns, at m and at m/2 steps per period, each cut at the duration.
    """
    full = propagate(p, q2_pulse, q2_spec, columns=basis)
    half = propagate(p, q2_pulse, q2_spec, dt=2.0 * full.dt, columns=basis)
    return float(np.max(np.abs(full.cuts[-1] - half.cuts[-1]))) / 3.0


@dataclass(frozen=True)
class ChevronMap:
    """Target-state population versus drive amplitude and duration."""

    amplitudes: np.ndarray       # q2 flux amplitudes (flux quanta)
    durations: np.ndarray        # ns
    populations: np.ndarray      # shape (n_amplitudes, n_durations)
    initial: str
    target: str


# Recorded state of a chevron from each initial state: from |10> the
# exchange partner |01> (transfer), from |11> itself (return).
_CHEVRON_TARGETS = {"10": "01", "11": "11"}


def chevron(p: DeviceParams, q2_pulse: FluxPulse, q2_spec, amplitudes,
            durations, initial="10", basis=None) -> ChevronMap:
    """Population map versus q2 drive amplitude and pulse duration.

    q2_pulse acts as a template: its amplitude and duration are replaced by
    the grid values (one propagation per amplitude, cut at exactly each
    duration), while the coupler stays at its bias in p.  From |10> the
    map records the |01> population (energy exchange); from |11> it
    records the |11> return population.  Both grids must be 1-D and
    nonempty, the durations positive and finite; each one off the step
    grid of its row (see propagate and modulation_step) costs a partial
    step.

    The prepared and recorded states are columns of ``basis``, a DIMx4
    isometry onto the computational states (columns ordered as
    ``effective.COMPUTATIONAL_LABELS``); the default is the bare states.
    With ``effective.dressed_computational_basis`` they are the dressed
    states, as a dispersive readout would see them; bare-state
    populations carry a percent-level micromotion wiggle from the static
    coupler admixture that masks the chevron structure near full
    transfer.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    durations = np.asarray(durations, dtype=float)
    if amplitudes.ndim != 1 or durations.ndim != 1 or 0 in (amplitudes.size, durations.size):
        raise ValueError("chevron grids must be nonempty 1-D arrays, got shapes "
                         f"{amplitudes.shape} and {durations.shape}")
    if not np.all(np.isfinite(durations) & (durations > 0.0)):
        raise ValueError("chevron durations must be positive and finite")
    if initial not in _CHEVRON_TARGETS:
        raise ValueError(f"initial state must be '10' or '11', got {initial!r}")
    target = _CHEVRON_TARGETS[initial]
    basis = np.asarray(np.eye(DIM)[:, COMPUTATIONAL_INDICES] if basis is None
                       else basis, dtype=complex)
    if basis.shape != (DIM, 4):
        raise ValueError(f"basis must be a {DIM}x4 isometry, got {basis.shape}")
    state_init = basis[:, COMPUTATIONAL_LABELS.index(initial)]
    bra_target = basis[:, COMPUTATIONAL_LABELS.index(target)].conj()
    t_max = float(durations.max())
    pops = np.zeros((amplitudes.size, durations.size))
    for i, amp in enumerate(amplitudes):
        pulse = replace(q2_pulse, amplitude=float(amp), duration=t_max)
        prop = propagate(p, pulse, q2_spec, columns=state_init[:, None],
                         times=durations)
        pops[i] = np.abs(prop.cuts[:, :, 0] @ bra_target) ** 2
    return ChevronMap(amplitudes=amplitudes, durations=durations,
                      populations=pops, initial=initial, target=target)


@dataclass(frozen=True)
class ExchangeFit:
    """Decaying-cosine fit of an exchange oscillation."""

    g: float          # GHz; population oscillates at 2*g
    decay: float      # 1/ns
    phase: float      # radians
    amplitude: float
    offset: float
    residual: float   # rms of the fit residual
    n_evaluations: int  # model evaluations of the least-squares fit


def _decaying_cosine(x, t):
    """A*exp(-gamma*t)*cos(2*pi*f*t + phi) + B and its Jacobian in x.

    x = (A, gamma, f, phi, B); the Jacobian has one row per time and one
    column per parameter.
    """
    a, gamma, f, phi, b = x
    envelope = np.exp(-gamma * t)
    arg = 2.0 * math.pi * f * t + phi
    cos, sin = envelope * np.cos(arg), envelope * np.sin(arg)
    jac = np.column_stack((cos, -a * t * cos, -2.0 * math.pi * a * t * sin,
                           -a * sin, np.ones_like(t)))
    return a * cos + b, jac


def fit_exchange(times, populations) -> ExchangeFit:
    """Fit A*exp(-gamma*t)*cos(2*pi*(2*g)*t + phi) + B to a population trace.

    times must be finite and strictly increasing, populations finite, both
    1-D of the same length.  The frequency f = 2*g is seeded from the
    spectrum of the trace.  At that frequency the model without decay is
    linear in c1*cos + c2*sin + B, so one linear least-squares solve seeds
    A = hypot(c1, c2), phi = atan2(-c2, c1) and B, each clipped into its
    bound, with gamma = 0.  One bounded trust-region fit then refines all
    five parameters with the closed-form Jacobian of the model, so from
    that seed it needs a few evaluations and no finite differences.
    """
    from scipy.linalg import lstsq
    from scipy.optimize import least_squares

    t = np.asarray(times, dtype=float)
    y = np.asarray(populations, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise ValueError("exchange fit needs 1-D times and populations of "
                         f"equal length, got shapes {t.shape} and {y.shape}")
    if t.size < 8:
        raise ValueError("need at least 8 samples to fit an oscillation")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("exchange fit needs finite times and populations")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("exchange fit needs strictly increasing times")
    contrast = y.max() - y.min()
    if contrast < 1e-6:
        raise ValueError("no oscillation contrast in the population trace")

    # seed the frequency from the spectrum of the detrended, uniformly
    # resampled trace
    t_u = np.linspace(t[0], t[-1], t.size)
    y_u = np.interp(t_u, t, y)
    spec = np.abs(np.fft.rfft(y_u - y_u.mean()))
    freqs = np.fft.rfftfreq(t_u.size, t_u[1] - t_u[0])
    f0 = freqs[1 + int(np.argmax(spec[1:]))]

    # the rest of the seed is linear at f0
    w = 2.0 * math.pi * f0 * t
    (c1, c2, b0), *_ = lstsq(
        np.column_stack((np.cos(w), np.sin(w), np.ones_like(t))), y)
    lower = np.array([0.0, -0.1, 0.0, -2 * math.pi, -1.0])
    upper = np.array([2.0, 1.0, freqs[-1], 2 * math.pi, 2.0])
    x0 = np.clip([math.hypot(c1, c2), 0.0, f0, math.atan2(-c2, c1), b0],
                 lower, upper)
    # least_squares asks for the residual and the Jacobian at the same
    # points; the model gives both, so each point is evaluated once
    @lru_cache(maxsize=1)
    def model(key):
        return _decaying_cosine(np.frombuffer(key), t)

    fit = least_squares(lambda x: model(x.tobytes())[0] - y, x0,
                        jac=lambda x: model(x.tobytes())[1],
                        bounds=(lower, upper))
    rms = float(np.sqrt(np.mean(fit.fun ** 2)))
    if not fit.success or rms > 0.25 * contrast:
        raise ValueError(f"exchange fit did not converge (residual rms {rms:.3g})")
    a, gamma, f, phi, b = fit.x
    return ExchangeFit(g=float(f / 2.0), decay=float(gamma), phase=float(phi),
                       amplitude=float(a), offset=float(b), residual=rms,
                       n_evaluations=int(fit.nfev))


#: coupling_vs_bias: swap periods per trace, samples per trace, and the
#: half-width (flux quanta) of the q2 window about the bare crossing in
#: which the vertex is sought
_SWEEP_PERIODS = 3.0
_SWEEP_SAMPLES = 720
_VERTEX_WINDOW = 1e-3


def _vertex_trace(device, phic):
    """One exchange trace at the chevron vertex at a coupler bias.

    The window is centred where q2's band meets q1's frequency, both
    bare and q1 at its upper sweet spot (transition_frequency alone);
    the sign change of that mismatch proves that q2 can be tuned onto
    q1.  The dressed vertex lies a fraction of a mPhi0 from the bare
    crossing, so 1e-6 Phi0 of it is enough.  The vertex is the q2 flux
    within _VERTEX_WINDOW of that crossing where the exact |10>/|01>
    dressed gap is smallest (effective.min_gap, the rule of exact_g01);
    a vertex outside the window raises with the bias named.  A bare q1
    excitation is evolved there for _SWEEP_PERIODS periods of that gap.
    Returns (parameters at the vertex, half the gap, times, |01>
    population).
    """
    from scipy.optimize import brentq

    from .device import device_params

    f1 = transition_frequency(device.q1, 0.0)

    def bare_mismatch(phi2):
        return transition_frequency(device.q2, 2.0 * math.pi * phi2) - f1

    lo, hi = 0.0, 0.26
    if bare_mismatch(lo) * bare_mismatch(hi) > 0:
        raise ValueError(f"cannot tune q2 onto q1 at coupler bias {phic}")
    crossing = brentq(bare_mismatch, lo, hi, xtol=1e-6)
    try:
        phi2, gap = min_gap(lambda x: device_params(device, phic=phic, phi2=x),
                            crossing - _VERTEX_WINDOW, crossing + _VERTEX_WINDOW, 1e-9)
    except ValueError as exc:
        raise ValueError(f"{exc} at coupler bias {phic}") from exc
    p = device_params(device, phic=phic, phi2=phi2)
    times = np.linspace(0.0, _SWEEP_PERIODS / gap, _SWEEP_SAMPLES + 1)[1:]
    pulse = FluxPulse(phi_dc=phi2, amplitude=0.0, duration=times[-1])
    prop = propagate(p, pulse, device.q2,
                     columns=np.eye(DIM)[:, [basis_index(1, 0, 0)]], times=times)
    return p, 0.5 * gap, times, np.abs(prop.cuts[:, basis_index(0, 0, 1), 0]) ** 2


def coupling_vs_bias(device, phic_grid):
    """Dynamically extracted |g01| versus coupler flux bias.

    For each coupler bias, q2 is flux-tuned to the chevron vertex, where
    the exact |10>/|01> dressed gap is smallest, sought within a window
    about the bare q1-q2 crossing (see _vertex_trace).  A bare q1
    excitation is evolved there, and its transferred population, cut at
    evenly spaced exact times, is fitted once with a decaying cosine.  A
    q2 that cannot reach q1, a vertex outside the window and a fit that
    fails each raise with the bias named.  The trace spans
    a fixed number of periods of the exact splitting, so weakly coupled
    points get the longer traces they need.  q1 stays at its upper sweet
    spot and the propagation keeps all DIM states.  phic_grid must be a
    finite 1-D array.

    Returns (measured |g01| array, static-model g01 array).  The static
    prediction is evaluated at the same vertex.
    """
    phic_grid = np.asarray(phic_grid, dtype=float)
    if phic_grid.ndim != 1:
        raise ValueError("coupler bias grid must be 1-D, "
                         f"got shape {phic_grid.shape}")
    if not np.all(np.isfinite(phic_grid)):
        raise ValueError(f"coupler bias must be finite, got {phic_grid.tolist()}")
    g_dyn = np.zeros(phic_grid.size)
    g_stat = np.zeros(phic_grid.size)
    for i, phic in enumerate(phic_grid):
        p, _, times, pop01 = _vertex_trace(device, phic)
        g_stat[i] = static_couplings(p).g01
        try:
            g_dyn[i] = fit_exchange(times, pop01).g
        except ValueError as exc:
            raise ValueError(
                f"no exchange oscillation resolved at coupler bias {phic}") from exc
    return g_dyn, g_stat
