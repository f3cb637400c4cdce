"""Time-domain propagation of the three-body system under flux pulses.

The integrator is a piecewise-constant midpoint rule: the Hamiltonian is
sampled at step midpoints and each step applies exp(-i*2*pi*H(t_mid)*dt)
through an exact eigendecomposition, so every step is exactly unitary and
the global error is second order in dt.  The Hamiltonian conserves the
excitation parity, so each step is diagonalized in its 14- and
13-dimensional parity blocks.  Propagation happens in the lab frame;
single-qubit phases are stripped afterwards (see tomography).

The drive is a pure sine, so a modulation period is fixed by its first
quarter: the step Hamiltonians mirror about T/4 and 3T/4, and about a
sweet spot the second half repeats the first.  propagate diagonalizes
one quarter (two off a sweet spot) and builds the rest of the period
from matrix products (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009); Shirley, Phys. Rev. 138, B979 (1965)).

Only qubit 2 is flux-modulated.  The coupler stays at the DC bias that
set the parameters p (see device.device_params), so its frequency and
its q1 coupling are static terms of the Hamiltonian; the sideband picture
of Didier et al., PRA 97, 022330 (2018).
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .effective import (COMPUTATIONAL_INDICES, COMPUTATIONAL_LABELS, DIM, NUM_1,
                        NUM_2, NUM_C, XX_12, XX_C2, _is_sweet_spot, _static_terms,
                        basis_index)
from .fluxcontrol import FluxPulse, instantaneous_flux
from .spectrum import DeviceParams, transition_frequency, zero_point

UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class Propagation:
    """Result of one time-domain propagation."""

    unitary: np.ndarray          # final U in the bare product basis
    dt: float                    # actual step size (ns)
    n_steps: int
    n_diagonalized: int          # step Hamiltonians diagonalized
    times: np.ndarray            # sample times (ns), empty unless sampling requested
    trajectory: np.ndarray       # sampled states (n_times x dim), empty likewise
    unitary_times: np.ndarray    # snapshot times (ns), empty unless requested
    unitaries: np.ndarray        # propagator snapshots (n x dim x dim), empty likewise
    unitarity_defect: float


def _parameter_series(p, q2_pulse, q2_spec, t_mid):
    """Samples of the q2-dependent model parameters at the times t_mid.

    f2(t) = p.f2 + [band(flux(t)) - band(flux_dc)], so p remains the exact
    operating point at zero pulse amplitude.  The two couplings of q2
    scale with its zero-point charge fluctuation n_zpf (spectrum.zero_point,
    which goes as EJ^(1/4)) relative to the DC value.  f1, fc, g1c and the
    anharmonicities stay at their values in p.
    """
    flux2 = 2.0 * math.pi * instantaneous_flux(q2_pulse, t_mid)
    flux_dc = 2.0 * math.pi * q2_pulse.phi_dc
    f2_band = transition_frequency(q2_spec, flux2)
    f2_dc = transition_frequency(q2_spec, flux_dc)
    r2 = zero_point(q2_spec, flux2)[0] / zero_point(q2_spec, flux_dc)[0]
    return {"f2": p.f2 + (f2_band - f2_dc), "g2c": p.g2c * r2, "g12": p.g12 * r2}


# steps diagonalized per batched np.linalg.eigh call, propagator snapshots
# per batch and period prefixes gathered per batch; bounds the work arrays
_EIGH_BATCH = 64

# Bare-state indices of even and odd total excitation.  The couplings
# change the excitation number by 0 or 2, so no step mixes the two.
_PARITY_BLOCKS = tuple(
    np.flatnonzero((NUM_1 + NUM_C + NUM_2).astype(int) % 2 == r) for r in (0, 1))


def _step_eigenpairs(terms, series):
    """Eigenpairs of the step Hamiltonians, one parity block at a time.

    terms = (static_xx, xx_c2, xx_12, static_diag, num2) define the real
    symmetric Hamiltonian of effective.build_hamiltonian: static_xx and
    static_diag hold the terms that do not move with q2
    (effective._static_terms), series the q2 parameters at the step
    midpoints (see _parameter_series).  Yields (idx, evals, vecs) for each
    block idx of _PARITY_BLOCKS, batched over the steps.
    """
    static_xx, xx_c2, xx_12, static_diag, num2 = terms
    for idx in _PARITY_BLOCKS:
        block = np.ix_(idx, idx)
        diag = np.arange(len(idx))
        h = (static_xx[block] + np.multiply.outer(series["g2c"], xx_c2[block])
             + np.multiply.outer(series["g12"], xx_12[block]))
        h[:, diag, diag] += static_diag[idx] + np.outer(series["f2"], num2[idx])
        yield (idx, *np.linalg.eigh(h))


def _step_products(terms, series, dts, u):
    """Yield the running propagator after each midpoint step, starting from u.

    terms and series are those of _step_eigenpairs and dts the step
    lengths.  Each step applies exp(-i*2*pi*H*dt) through the
    eigendecomposition of H in each parity block.
    """
    for a in range(0, len(dts), _EIGH_BATCH):
        c = slice(a, a + _EIGH_BATCH)
        steps = np.zeros((len(dts[c]), DIM, DIM), dtype=complex)
        batch = {key: values[c] for key, values in series.items()}
        for idx, evals, vecs in _step_eigenpairs(terms, batch):
            phases = np.exp(-2j * math.pi * evals * dts[c, None])
            steps[(slice(None), *np.ix_(idx, idx))] = ((vecs * phases[:, None, :])
                                                       @ vecs.swapaxes(1, 2))
        for step in steps:
            u = step @ u
            yield u


def default_dt(p: DeviceParams) -> float:
    """Step size resolving the fastest transition, 1/(40 * max frequency)."""
    return 1.0 / (40.0 * max(p.f1, p.f2, p.fc))


def propagate(p: DeviceParams, q2_pulse: FluxPulse, q2_spec, dt=None,
              initial_state=None, n_samples=0, unitary_times=None) -> Propagation:
    """Propagate over the q2 pulse window and return the final unitary.

    p holds the model parameters at the DC biases (see
    device.device_params); the coupler stays at its bias in p.  q2_spec
    converts the instantaneous q2 flux to its frequency and coupling scale
    factors.
    With n_samples > 0 and an initial_state (bare basis index or vector),
    the state trajectory is recorded at evenly spaced step boundaries, which
    gives a chevron duration axis from a single propagation.

    unitary_times requests snapshots of the running propagator, taken at the
    nearest step boundaries (the actual times come back in unitary_times).
    The pulse is square, so the steps of a truncated pulse coincide with
    the leading steps of the full one and the snapshot at time t is the
    final unitary of the same pulse with duration t; a duration scan then
    costs one propagation instead of one per duration.

    Period reuse: a modulated pulse that outlasts its period gets dt
    snapped to m steps per period, m a multiple of 4, so the Hamiltonian
    repeats every m steps; a DC pulse repeats its single step (m = 1).
    With P_k the product of the first k steps of a period, after
    s = n*m + k steps (0 <= k < m) the propagator is P_k U_P^n, with
    U_P^n = Z diag(exp(i*n*theta)) Z^H.  For m = 1, theta = -2*pi*E*dt
    and Z come from the step's own parity-block eigenpairs (E, Z), so a
    DC pulse costs one eigendecomposition; a longer period takes them
    from the complex Schur form of U_P = P_m.  A trailing partial step is
    stepped directly.  The final unitary, the snapshots and the
    trajectory all read from that rule, so the cost grows with the steps
    per period and the samples, not with duration/dt.  A state
    trajectory is evaluated at all its samples at once, as
    P_k Z (exp(i*n*theta) * Z^H psi0); snapshots go in batches.  Sample
    and snapshot times are s*dt (the pulse duration at the last
    boundary); snapshots of a static pulse snap to step boundaries like
    those of a modulated one.

    Quarter symmetry: with q = m/4 and midpoints (j + 1/2)*dt, the flux
    enters H only through sin(2*pi*f*t), so step j repeats step 2q-1-j
    (mirror about T/4) and step 2q+i repeats step 4q-1-i (mirror about
    3T/4), for any phi_dc.  About a sweet spot the band and EJ are even
    in the flux, so quarter 3 also repeats quarter 1.  Only the steps of
    quarter 1 (and of quarter 3 off a sweet spot) are diagonalized.  Each
    step S_j = exp(-2*pi*i*H_j*dt) is complex symmetric, since H_j is real
    symmetric, so with Q = P_q the half period is G = Q^T Q, the
    second-quarter prefixes are P_{q+k} = conj(P_{q-k}) G, and the second
    half applies its own quarter rule after G.  A pulse shorter than its
    period is stepped directly.
    """
    duration = q2_pulse.duration
    if duration <= 0:
        raise ValueError("pulse duration must be > 0")
    if dt is None:
        dt = default_dt(p)

    # Snap dt to m steps per modulation period; a trailing partial step
    # absorbs the incommensurate remainder.  An unmodulated pulse repeats
    # every step; a pulse shorter than its period never repeats.
    modulated = q2_pulse.mod_freq > 0 and q2_pulse.amplitude != 0.0
    period = 1.0 / q2_pulse.mod_freq if modulated else 0.0
    symmetric = 0.0 < period < duration
    if symmetric:
        m = 4 * math.ceil(period / (4.0 * dt))
        dt = period / m
        n_full = int(duration / dt + 1e-9)
        rem = duration - n_full * dt
        # Durations produced by the snapping itself sit within summation
        # noise of an exact multiple; only keep remainders that are real.
        rem = rem if rem > 1e-4 * dt else 0.0
    else:
        n_full = max(1, math.ceil(duration / dt))
        dt = duration / n_full
        m = n_full if modulated else 1
        rem = 0.0
    n_steps = n_full + (rem > 0.0)

    static_xx, static_diag = _static_terms(p)
    terms = (static_xx, XX_C2, XX_12, static_diag, NUM_2)

    psi = None
    if initial_state is not None:
        psi = np.zeros(DIM, dtype=complex)
        if np.isscalar(initial_state):
            psi[int(initial_state)] = 1.0
        else:
            psi[:] = initial_state

    sample_steps = np.array([], dtype=int)
    if n_samples > 0:
        if psi is None:
            raise ValueError("trajectory sampling requires an initial state")
        sample_steps = np.unique(np.linspace(1, n_steps, n_samples).round().astype(int))
    want_u = (np.array([], dtype=float) if unitary_times is None
              else np.atleast_1d(np.asarray(unitary_times, dtype=float)))
    # written so that NaN fails the range test
    if not np.all((want_u > 0.0) & (want_u <= duration + 1e-9)):
        raise ValueError("unitary sample times must lie in (0, duration]")
    snap = np.clip(np.floor(want_u / dt + 0.5), 1, n_full).astype(int)
    snap[want_u - n_full * dt > 0.5 * rem] = n_steps
    u_steps = np.unique(snap)

    n_diagonalized = 0

    def steps(k, u):
        """Yield the running propagator after each step of indices k, from u."""
        nonlocal n_diagonalized
        n_diagonalized += len(k)
        full = k < n_full
        t_mid = np.where(full, (k + 0.5) * dt, n_full * dt + 0.5 * rem)
        series = _parameter_series(p, q2_pulse, q2_spec, t_mid)
        return _step_products(terms, series, np.where(full, dt, rem), u)

    if m == 1:
        # The period is one step, so every in-period count k is 0 and the
        # step's own eigenpairs diagonalize U_P: theta = -2*pi*E*dt and Z
        # holds the (real) eigenvectors.
        n_diagonalized = 1
        series = _parameter_series(p, q2_pulse, q2_spec, np.array([0.5 * dt]))
        theta, z = np.zeros(DIM), np.zeros((DIM, DIM))
        for idx, evals, vecs in _step_eigenpairs(terms, series):
            theta[idx] = -2.0 * math.pi * dt * evals[0]
            z[np.ix_(idx, idx)] = vecs[0]

        def prefix(k, y):
            return y  # P_0 = I
    else:
        from scipy.linalg import schur

        # prefixes[h, k] = P_k for k <= q of the half h of the period; a
        # directly stepped period is one "half" with q = m, which the rule
        # in prefix() reads as prefixes[0, k] since no k exceeds q.
        eye = np.eye(DIM, dtype=complex)
        q, starts = m, (0,)
        if symmetric:
            q = m // 4
            starts = (0,) if _is_sweet_spot(q2_pulse.phi_dc) else (0, 2 * q)
        prefixes = np.empty((len(starts), q + 1, DIM, DIM), dtype=complex)
        prefixes[:, 0] = eye
        for h, a in enumerate(starts):
            for k, u_k in enumerate(steps(a + np.arange(q), eye), 1):
                prefixes[h, k] = u_k
        halves = prefixes[:, -1].swapaxes(1, 2) @ prefixes[:, -1]

        def prefix(k, y):
            """P_k y for in-period step counts k in [0, m], batched over k.

            y is overwritten and returned.
            """
            second = k >= 2 * q
            y[second] = halves[0] @ y[second]
            h = second * (len(starts) - 1)
            k = k - 2 * q * second
            mirrored = k > q
            # conj(P) G y = conj(P conj(G y)), which keeps prefixes unconjugated
            for i, g in enumerate(halves):
                at = mirrored & (h == i)
                y[at] = (g @ y[at]).conj()
            k = np.where(mirrored, 2 * q - k, k)
            at = np.flatnonzero(k > 0)  # P_0 = I
            for a in range(0, len(at), _EIGH_BATCH):
                i = at[a:a + _EIGH_BATCH]
                y[i] = prefixes[h[i], k[i]] @ y[i]
            y[mirrored] = y[mirrored].conj()
            return y

        # U_P is unitary, so its complex Schur form is diagonal and
        # U_P^n = Z diag(exp(i*n*theta)) Z^H.
        schur_t, z = schur(prefix(np.array([m]), eye[None].copy())[0],
                           output="complex")
        theta = np.angle(np.diag(schur_t))
    w = z.conj().T

    def periodic(s, x, out):
        """Write U(s) y into out for x = Z^H y and sorted step counts s.

        A state (1-D x) is evaluated at all counts at once, as
        P_k Z (exp(i*n*theta) * x); a matrix in batches of counts.  Counts
        past n_full (the trailing partial step) are left out.
        """
        stop = np.searchsorted(s, n_full, side="right")
        n, k = np.divmod(s[:stop], m)
        if x.ndim == 1:
            y = (np.exp(1j * np.multiply.outer(n, theta)) * x) @ z.T
            out[:stop] = prefix(k, y[:, :, None])[:, :, 0]
            return out
        for a in range(0, stop, _EIGH_BATCH):
            c = slice(a, min(a + _EIGH_BATCH, stop))
            y = z @ (np.exp(1j * np.multiply.outer(n[c], theta))[:, :, None] * x)
            out[c] = prefix(k[c], y)
        return out

    trajectory = np.zeros((len(sample_steps), DIM), dtype=complex)
    unitaries = np.zeros((len(u_steps), DIM, DIM), dtype=complex)
    if psi is not None:
        periodic(sample_steps, w @ psi, trajectory)
    periodic(u_steps, w, unitaries)
    u = periodic(np.array([n_full]), w, np.empty((1, DIM, DIM), dtype=complex))[0]
    if rem:
        u = next(steps(np.array([n_full]), u))
        unitaries[u_steps == n_steps] = u
        if psi is not None:
            trajectory[sample_steps == n_steps] = u @ psi

    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(DIM))))
    if defect > UNITARITY_TOL:
        raise ValueError(
            f"unitarity drift {defect:.2e} exceeds {UNITARITY_TOL}; reduce dt")

    def times(s):
        return np.where(s < n_steps, s * dt, duration)

    return Propagation(unitary=u, dt=dt, n_steps=n_steps,
                       n_diagonalized=n_diagonalized,
                       times=times(sample_steps), trajectory=trajectory,
                       unitary_times=times(u_steps), unitaries=unitaries,
                       unitarity_defect=defect)


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
    the grid values (one propagation per amplitude; the duration axis comes
    from trajectory samples), while the coupler stays at its bias in p.
    From |10> the map records the |01> population (energy exchange); from
    |11> it records the |11> return population.  Durations must be
    positive and finite.

    The prepared and recorded states are columns of ``basis``, a 27x4
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
    if amplitudes.size == 0 or durations.size == 0:
        raise ValueError("chevron grids must be nonempty")
    if not np.all(np.isfinite(durations) & (durations > 0.0)):
        raise ValueError("chevron durations must be positive and finite")
    if initial not in _CHEVRON_TARGETS:
        raise ValueError(f"initial state must be '10' or '11', got {initial!r}")
    target = _CHEVRON_TARGETS[initial]
    basis = np.asarray(np.eye(DIM)[:, COMPUTATIONAL_INDICES] if basis is None
                       else basis, dtype=complex)
    if basis.shape != (DIM, 4):
        raise ValueError(f"basis must be a 27x4 isometry, got {basis.shape}")
    state_init = basis[:, COMPUTATIONAL_LABELS.index(initial)]
    bra_target = basis[:, COMPUTATIONAL_LABELS.index(target)].conj()
    t_max = float(durations.max())
    n_dense = max(256, 4 * durations.size)
    pops = np.zeros((amplitudes.size, durations.size))
    for i, amp in enumerate(amplitudes):
        pulse = replace(q2_pulse, amplitude=float(amp), duration=t_max)
        prop = propagate(p, pulse, q2_spec, initial_state=state_init,
                         n_samples=n_dense)
        dense = np.abs(prop.trajectory @ bra_target) ** 2
        pops[i] = np.interp(durations, prop.times, dense)
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


#: coupling_vs_bias: swap periods per trace, samples per trace, and the q2
#: flux offsets (flux quanta) spanning the crossing at each coupler bias
_SWEEP_PERIODS = 3.0
_SWEEP_SAMPLES = 720
_SWEEP_OFFSETS = np.linspace(-0.5, 0.5, 9) * 8e-4


def _resonant_traces(device, phic):
    """Exchange traces about the dressed q1-q2 resonance at a coupler bias.

    q2 is flux-tuned so the dressed qubit frequencies coincide, then a
    bare q1 excitation is evolved at each of the _SWEEP_OFFSETS of the q2
    flux.  Returns (parameters at the resonance, their static couplings,
    [(times, |01> population) per offset]).
    """
    from scipy.optimize import brentq

    from .device import device_params
    from .effective import static_couplings

    def dressed_mismatch(phi2):
        st = static_couplings(device_params(device, phic=phic, phi2=phi2))
        return st.f01_2 - st.f01_1

    lo, hi = 0.0, 0.26
    if dressed_mismatch(lo) * dressed_mismatch(hi) > 0:
        raise ValueError(f"cannot tune q2 onto q1 at coupler bias {phic}")
    phi2_res = brentq(dressed_mismatch, lo, hi, xtol=1e-12)
    p_res = device_params(device, phic=phic, phi2=phi2_res)
    st = static_couplings(p_res)
    duration = _SWEEP_PERIODS / max(2.0 * abs(st.g01), 4e-5)
    traces = []
    for phi2 in phi2_res + _SWEEP_OFFSETS:
        p = device_params(device, phic=phic, phi2=phi2)
        pulse = FluxPulse(phi_dc=phi2, amplitude=0.0, duration=duration)
        prop = propagate(p, pulse, device.q2,
                         initial_state=basis_index(1, 0, 0),
                         n_samples=_SWEEP_SAMPLES)
        traces.append((prop.times,
                       np.abs(prop.trajectory[:, basis_index(0, 0, 1)]) ** 2))
    return p_res, st, traces


def coupling_vs_bias(device, phic_grid):
    """Dynamically extracted |g01| versus coupler flux bias.

    For each coupler bias, q2 is flux-tuned so the dressed qubit
    frequencies coincide, then a bare q1 excitation is evolved at a small
    grid of q2 flux offsets spanning the crossing and each transferred
    population trace is fitted with a decaying cosine.  The chevron
    vertex, the slowest oscillation over the grid, runs at the exact
    level splitting 2*g.  Pulse durations scale with the expected swap
    period, so weakly coupled points get the longer traces they need.
    q1 stays at its upper sweet spot and the propagation keeps the full
    27-level space.  phic_grid must be a finite 1-D array.

    Returns (measured |g01| array, static-model g01 array).  The static
    prediction is evaluated at the same resonant operating point.
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
        _, st, traces = _resonant_traces(device, phic)
        g_stat[i] = st.g01
        fits = []
        for times, pop01 in traces:
            try:
                fits.append(fit_exchange(times, pop01).g)
            except ValueError:
                continue
        if not fits:
            raise ValueError(
                f"no exchange oscillation resolved at coupler bias {phic}")
        g_dyn[i] = min(fits)
    return g_dyn, g_stat
