"""The three-body model: its Hilbert space, its Hamiltonian and its
effective couplings.

``STATES`` is the truncation: the kept product states |n1 nc n2>, in
basis order.  ``DIM``, ``basis_index``, the computational indices and
every operator are read off it, so a change of the kept space is a
change of that one table.  ``build_hamiltonian`` is the static
Hamiltonian as one DIMxDIM matrix.  H keeps the excitation parity,
so it is block diagonal in ``PARITY_BLOCKS``, the index lists of the
even and odd states; ``parity_blocks`` gives those blocks batched over
samples of q2's frequency and couplings, the step Hamiltonians that
``dynamics.propagate`` diagonalizes in the blocks its columns reach.
``dressed_computational_basis`` gives its eigenstates on the
computational subspace, the basis that a dispersive readout sees, each
exactly zero outside its own block: callers evolve its columns B with
``dynamics.propagate`` and project them, B^H (U B), before tomography.
``modulated_couplings`` gives the second-order qubit-qubit couplings of
each sideband n with the coupler eliminated (Didier et al., PRA 97,
022330 (2018)).  ``static_couplings`` is the n = 0 term of that
formula without modulation (weight 1, no shift).  ``min_gap`` finds
the exact |10>/|01> avoided crossing, the oracle of those couplings
(``exact_g01``) and the vertex where ``dynamics.coupling_vs_bias``
measures.
"""

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fluxcontrol import FluxPulse, is_sweet_spot
from .spectrum import DeviceParams, TransmonSpec, transition_frequency

LEVELS = 3

#: The kept product states (n1, nc, n2), in basis order: each mode's
#: lowest LEVELS levels, so index 9*n1 + 3*nc + n2.
STATES = tuple(itertools.product(range(LEVELS), repeat=3))
DIM = len(STATES)
_INDEX = {state: i for i, state in enumerate(STATES)}


def basis_index(n1: int, nc: int, n2: int) -> int:
    """Index of |n1 nc n2> in STATES; a state that is not kept raises."""
    try:
        return _INDEX[(n1, nc, n2)]
    except KeyError:
        raise ValueError(f"|{n1} {nc} {n2}> is not one of the {DIM} kept states") from None


# Two-qubit computational subspace |q1 q2> with the coupler in |0>: the
# labels and the bare indices of its states, in the column order of every
# DIMx4 isometry onto it.
COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
COMPUTATIONAL_INDICES = (basis_index(0, 0, 0), basis_index(0, 0, 1),
                         basis_index(1, 0, 0), basis_index(1, 0, 1))

# The occupations of every kept state, one row per state (q1, coupler, q2)
_N = np.array(STATES)

# Diagonal operators, stored as vectors: the number n of each mode and
# its anharmonic ladder n(n-1)/2, in integers first so that n = 0 gives +0.0
NUM_1, NUM_C, NUM_2 = np.ascontiguousarray(_N.T, dtype=float)
P2_1, P2_C, P2_2 = np.ascontiguousarray(_N.T * (_N.T - 1) // 2, dtype=float)


def _exchange(a: int, b: int) -> np.ndarray:
    """x_a x_b between kept states, with x the sum of one mode's lowering
    and raising operators: one quantum into or out of each of modes a and
    b, the third unchanged, with amplitude sqrt(max n_a) * sqrt(max n_b)."""
    moved = np.zeros(3, dtype=int)
    moved[[a, b]] = 1
    hop = np.all(np.abs(_N[:, None, :] - _N[None, :, :]) == moved, axis=2)
    top = np.sqrt(np.maximum(_N[:, None, :], _N[None, :, :]))
    return np.where(hop, top[..., a] * top[..., b], 0.0)


XX_1C, XX_C2, XX_12 = _exchange(0, 1), _exchange(1, 2), _exchange(0, 2)

#: Indices of the kept states of even and of odd total excitation.  The
#: couplings change the excitation number by 0 or 2, so H never mixes the two.
PARITY_BLOCKS = tuple(np.flatnonzero(_N.sum(axis=1) % 2 == r) for r in (0, 1))


def _static_terms(p: DeviceParams) -> tuple:
    """(g1c*XX_1C, diagonal without f2): the terms of H that q2's flux
    does not move."""
    diag = (p.f1 * NUM_1 - p.eta1 * P2_1 - p.etac * P2_C
            - p.eta2 * P2_2 + p.fc * NUM_C)
    return p.g1c * XX_1C, diag


def build_hamiltonian(p: DeviceParams) -> np.ndarray:
    """The static three-body Hamiltonian in GHz, a real symmetric DIMxDIM
    array in the basis STATES.

    The charge-charge couplings keep their counter-rotating parts, so the
    total excitation number is not conserved, only its parity.
    """
    xx_1c, diag = _static_terms(p)
    return np.diag(diag + p.f2 * NUM_2) + xx_1c + p.g2c * XX_C2 + p.g12 * XX_12


def parity_blocks(p: DeviceParams, f2, g2c, g12, blocks=PARITY_BLOCKS):
    """Yield (idx, h) for each excitation-parity block idx of blocks, a
    subsequence of PARITY_BLOCKS.

    h[s] is the block idx of build_hamiltonian with q2's frequency and
    couplings at the samples f2[s], g2c[s] and g12[s] (1-D arrays of one
    length) and every other parameter from p: the step Hamiltonians of
    dynamics.propagate, batched over its steps.
    """
    static_xx, static_diag = _static_terms(p)
    for idx in blocks:
        block = np.ix_(idx, idx)
        diag = np.arange(len(idx))
        h = (static_xx[block] + np.multiply.outer(g2c, XX_C2[block])
             + np.multiply.outer(g12, XX_12[block]))
        h[:, diag, diag] += static_diag[idx] + np.outer(f2, NUM_2[idx])
        yield idx, h


def dressed_computational_basis(p: DeviceParams) -> np.ndarray:
    """DIMx4 isometry onto the dressed computational states at bias ``p``.

    Columns are the eigenvectors of the static Hamiltonian with the
    largest overlap on bare |00>, |01>, |10>, |11> (coupler in its
    ground state), each phase-fixed so the dominant bare amplitude is
    real positive.  Each parity block of H is diagonalized on its own,
    so a column is exactly zero outside its block, and a propagation of
    a column evolves that block alone.  Projecting a propagator through
    this basis B, B^H (U B) with U B the cuts of
    ``dynamics.propagate(..., columns=B)``, removes the static coupler
    admixture that would otherwise masquerade as leakage.
    """
    h = build_hamiltonian(p)
    vecs = np.zeros((DIM, DIM))
    for idx in PARITY_BLOCKS:
        block = np.ix_(idx, idx)
        vecs[block] = np.linalg.eigh(h[block])[1]
    basis = np.zeros((DIM, 4), dtype=complex)
    used: set[int] = set()
    for col, idx in enumerate(COMPUTATIONAL_INDICES):
        order = np.argsort(-np.abs(vecs[idx, :]) ** 2)
        k = next(int(q) for q in order if int(q) not in used)
        used.add(k)
        v = vecs[:, k]
        basis[:, col] = v * (abs(v[idx]) / v[idx])
    return basis


@dataclass(frozen=True)
class StaticEffective:
    """Dressed frequencies and effective couplings after coupler elimination (GHz)."""

    f01_1: float
    f01_2: float
    g01: float
    g02: float
    g20: float
    delta1: float
    delta2: float


_RESONANCE_TOL = 1e-6  # GHz


def _second_order(p: DeviceParams, f2, shift) -> tuple:
    """(g01, g02, g20) with q2 at f2 and its denominators shifted by shift.

    Second order in the qubit-coupler exchange, with both the rotating
    (1/Delta) and the counter-rotating (1/Sigma) terms kept.  A sideband's
    coupling is its weight eps_n times these at shift n*spacing*mod_freq.
    """
    d1 = p.fc - p.f1
    s1 = p.fc + p.f1
    d2 = p.fc - f2
    s2 = p.fc + f2
    gg = p.g1c * p.g2c
    g01 = p.g12 - 0.5 * gg * (
        1.0 / d1 + 1.0 / (d2 - shift) + (1.0 / s1 + 1.0 / (s2 + shift)))
    g02 = np.sqrt(2.0) * p.g12 - gg / np.sqrt(2.0) * (
        1.0 / d1 + 1.0 / (d2 + p.eta2 - shift)
        + (1.0 / s1 + 1.0 / (s2 - p.eta2 + shift)))
    g20 = np.sqrt(2.0) * p.g12 - gg / np.sqrt(2.0) * (
        1.0 / (d1 + p.eta1) + 1.0 / (d2 - shift)
        + (1.0 / (s1 - p.eta1) + 1.0 / (s2 + shift)))
    return g01, g02, g20


def static_couplings(p: DeviceParams) -> StaticEffective:
    """Second-order effective couplings with the coupler adiabatically eliminated.

    The couplings are the sideband coupling of modulated_couplings
    without modulation: weight 1 and no shift.
    """
    d1 = p.fc - p.f1
    d2 = p.fc - p.f2
    s1 = p.fc + p.f1
    s2 = p.fc + p.f2
    denominators = [d1, d2, d1 + p.eta1, d2 + p.eta2,
                    s1, s2, s1 - p.eta1, s2 - p.eta2]
    if min(abs(x) for x in denominators) < _RESONANCE_TOL:
        raise ValueError("coupler resonance; dispersive elimination invalid")
    if max(abs(p.g1c / d1), abs(p.g2c / d2)) > 0.3:
        warnings.warn("qubit-coupler system is far from dispersive "
                      f"(g/Delta = {abs(p.g1c / d1):.2f}, {abs(p.g2c / d2):.2f})")
    g01, g02, g20 = _second_order(p, p.f2, 0.0)
    f01_1 = p.f1 + p.g1c**2 / d1 + p.g1c**2 / s1
    f01_2 = p.f2 + p.g2c**2 / d2 + p.g2c**2 / s2
    return StaticEffective(f01_1=f01_1, f01_2=f01_2, g01=g01, g02=g02, g20=g20,
                           delta1=d1, delta2=d2)


# |10> and |01> in the odd block of PARITY_BLOCKS, by their place in it
_ODD = np.ix_(PARITY_BLOCKS[1], PARITY_BLOCKS[1])
_ODD_PAIR = [int(np.searchsorted(PARITY_BLOCKS[1], basis_index(*n)))
             for n in ((1, 0, 0), (0, 0, 1))]


def _pair_gap(p: DeviceParams) -> float:
    """The gap (GHz) between the two dressed eigenstates of build_hamiltonian(p)
    with the most weight on bare |10> and |01>.

    Both states have odd excitation parity, so only that block of H is
    diagonalized.
    """
    vals, vecs = np.linalg.eigh(build_hamiltonian(p)[_ODD])
    weight = np.abs(vecs[_ODD_PAIR[0], :])**2 + np.abs(vecs[_ODD_PAIR[1], :])**2
    a, b = np.argsort(weight)[-2:]
    return abs(vals[a] - vals[b])


def min_gap(params_at, lo: float, hi: float, xatol: float) -> tuple:
    """(x, gap): where in [lo, hi] the |10>/|01> dressed gap is smallest.

    params_at maps x to DeviceParams; a bounded Brent search to xatol
    minimizes the gap of params_at(x).  Where the gap falls all the way
    to an edge, the search stops within 2*(xatol/3 + sqrt(eps)*|x|) of
    it, so a minimum within 2*(xatol + sqrt(eps)*|x|) of an edge is no
    avoided crossing in the window and raises ValueError.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda x: _pair_gap(params_at(x)), bounds=(lo, hi),
                          method="bounded", options={"xatol": xatol})
    edge = 2.0 * (xatol + np.sqrt(np.finfo(float).eps) * abs(res.x))
    if min(res.x - lo, hi - res.x) < edge:
        raise ValueError("no avoided crossing found in sweep window")
    return float(res.x), float(res.fun)


def exact_g01(p: DeviceParams, window: float = 0.05) -> float:
    """Half the minimum single-excitation avoided-crossing gap, by eigensolver.

    Sweeps the bare qubit-2 frequency through qubit 1 and tracks the gap
    between the two qubit-like dressed eigenstates (min_gap, bracketed by
    an 81-point grid).  Serves as the oracle for static_couplings g01.
    """
    grid = np.linspace(p.f1 - window, p.f1 + window, 81)
    gaps = np.array([_pair_gap(replace(p, f2=f)) for f in grid])
    k = int(np.argmin(gaps))
    if k in (0, len(grid) - 1):
        raise ValueError("no avoided crossing found in sweep window")
    return 0.5 * min_gap(lambda f: replace(p, f2=f), grid[k - 1], grid[k + 1], 1e-12)[1]


#: The sidebands n of modulated_couplings run over [-SIDEBAND_MAX, SIDEBAND_MAX].
SIDEBAND_MAX = 5


@dataclass(frozen=True)
class ModulatedCouplings:
    """Per-sideband weights and effective couplings under flux modulation.

    Index n runs over [-SIDEBAND_MAX, SIDEBAND_MAX]; at a flux sweet spot
    the qubit frequency oscillates at twice the modulation frequency, so
    sideband n sits at a shift of 2*n*mod_freq, otherwise n*mod_freq.  The
    weights eps are the numeric Fourier coefficients of the phase factor.
    Keeping only the 2*mod_freq component of the qubit frequency would
    give the Bessel weights J_n(f2_exc / 2 mod_freq); the 4*mod_freq
    harmonic interferes with J_2, so at a sweet spot |eps_n| = |eps_-n|
    holds only to first order and breaks from n = 2 on (eps_n then
    follows the two-harmonic generalized Bessel sum).
    """

    n: np.ndarray
    eps: np.ndarray          # complex
    g01: np.ndarray          # complex, GHz
    g02: np.ndarray
    g20: np.ndarray
    f2_avg: float            # GHz
    f2_exc: float            # GHz

    def sideband(self, n: int) -> dict:
        k = int(n) + (len(self.n) - 1) // 2
        if not 0 <= k < len(self.n):
            raise IndexError(f"sideband {n} outside computed range")
        return {"n": int(n), "eps": self.eps[k], "g01": self.g01[k],
                "g02": self.g02[k], "g20": self.g20[k]}


#: Samples of one modulation period.  q2's frequency is an analytic
#: periodic function of time, so its Fourier coefficients, and with them
#: the period average, the excursion and the integrated phase, converge
#: exponentially in the samples: 256 agree with a Richardson-extrapolated
#: trapezoid at 2^15 and 2^16 samples to 1e-13 for amplitudes up to
#: 0.45 Phi0 and modulation frequencies from 0.01 to 0.3 GHz.
_FOURIER_SAMPLES = 256


def _period_samples(q2_spec: TransmonSpec, pulse: FluxPulse) -> tuple:
    """(c, f2_avg, f2_exc): the Fourier coefficients c_k, k = 0..N/2, of
    q2's frequency over one modulation period, its average and excursion.

    q2's band is sampled at N = _FOURIER_SAMPLES points of one period in
    normalized time t = j/N, with no repeated endpoint, so the samples do
    not depend on the modulation frequency.  f2(t) = sum_k c_k
    exp(2*pi*i*k*t) over k in (-N/2, N/2) with c_-k = conj(c_k): the
    average frequency is c_0 and the component at twice the modulation
    frequency has amplitude 2|c_2|.
    """
    if pulse.mod_freq <= 0:
        raise ValueError("modulation frequency must be > 0")
    t = np.arange(_FOURIER_SAMPLES) / _FOURIER_SAMPLES
    flux = pulse.phi_dc + pulse.amplitude * np.sin(2.0 * np.pi * t)
    f2 = np.asarray(transition_frequency(q2_spec, 2.0 * np.pi * flux))
    c = np.fft.rfft(f2) / _FOURIER_SAMPLES
    return c, float(c[0].real), 2.0 * float(np.abs(c[2]))


def average_and_excursion(q2_spec: TransmonSpec, pulse: FluxPulse) -> tuple:
    """(f2_avg, f2_exc) in GHz over one modulation period.

    f2_avg is the time average of the instantaneous qubit frequency; f2_exc
    is the amplitude of its component at twice the modulation frequency,
    which dominates for sweet-spot modulation.
    """
    if pulse.mod_freq <= 0 or pulse.amplitude == 0.0:
        flux_dc = pulse.phi_dc if pulse.mod_freq > 0 else pulse.phi_dc + pulse.amplitude
        f_dc = float(transition_frequency(q2_spec, 2.0 * np.pi * flux_dc))
        return f_dc, 0.0
    return _period_samples(q2_spec, pulse)[1:]


def numeric_fourier_weights(q2_spec: TransmonSpec, pulse: FluxPulse) -> tuple:
    """Sideband weights eps_n from the Fourier expansion of the phase factor.

    Integrates the accumulated phase of the modulated qubit over one period
    and projects exp(-i theta(t)) onto harmonics spaced by spacing*mod_freq,
    with spacing 2 at a flux sweet spot and 1 elsewhere.
    Returns (n, eps, spacing) with eps complex.
    """
    return _sidebands(q2_spec, pulse)[2:]


def _sidebands(q2_spec: TransmonSpec, pulse: FluxPulse) -> tuple:
    """(f2_avg, f2_exc, n, eps, spacing) from one sampling of q2's band;
    see average_and_excursion and numeric_fourier_weights.

    The phase theta(t) = 2*pi*int_0^t (f2 - f2_avg) is integrated term by
    term in the Fourier series of _period_samples, in normalized time:
    theta(t) = sum over k != 0, N/2 of c_k (exp(2*pi*i*k*t) - 1)/(i*k*f_m),
    the N/2 term dropped as it has no unique sign of k.  The eps are the
    discrete Fourier coefficients of exp(-i theta) at the same samples.
    """
    n = np.arange(-SIDEBAND_MAX, SIDEBAND_MAX + 1)
    spacing = 2 if is_sweet_spot(pulse.phi_dc) else 1
    if pulse.amplitude == 0.0:
        return (*average_and_excursion(q2_spec, pulse), n,
                (n == 0).astype(complex), spacing)
    c, f_avg, f_exc = _period_samples(q2_spec, pulse)
    k = np.arange(1, _FOURIER_SAMPLES // 2)
    phase = np.zeros_like(c)
    phase[1:-1] = c[1:-1] / (1j * k * pulse.mod_freq)
    # N irfft(phase) is the sum at t; its value at t = 0 is the sum at 0
    theta = _FOURIER_SAMPLES * np.fft.irfft(phase, _FOURIER_SAMPLES)
    # harmonic m at exp(+i m wp t)
    harmonics = np.fft.ifft(np.exp(-1j * (theta - theta[0])))
    return f_avg, f_exc, n, harmonics[(n * spacing) % _FOURIER_SAMPLES], spacing


def modulated_couplings(p: DeviceParams, pulse: FluxPulse,
                        q2_spec: TransmonSpec) -> ModulatedCouplings:
    """Effective couplings g01_n, g02_n, g20_n for sidebands n in
    [-SIDEBAND_MAX, SIDEBAND_MAX].

    Detunings use the average modulated frequency, Delta2 = fc - f2_avg; each
    sideband shifts the qubit-2 denominators by n*spacing*mod_freq.  The
    weights are the numeric Fourier coefficients of the full qubit-2
    frequency, so at a sweet spot they carry the 4*mod_freq harmonic and
    |eps_n| = |eps_-n| only to first order (see ModulatedCouplings).  Raises
    if a retained sideband of g01 or g20, which share the denominator
    Delta2 - shift, comes within 1 MHz of the coupler resonance.  No gate
    drives g02, so its denominator Delta2 + eta2 - shift is not guarded and
    g02 keeps the value the formula gives near its collision.
    """
    f_avg, f_exc, n, eps, spacing = _sidebands(q2_spec, pulse)
    d2 = p.fc - f_avg
    shift = n * spacing * pulse.mod_freq

    guard = 1e-3  # GHz
    dens = d2 - shift
    bad = np.abs(dens) < guard
    if np.any(bad):
        worst = n[bad][np.argmin(np.abs(dens[bad]))]
        raise ValueError(
            f"sideband n={int(worst)} of g01 and g20 is resonant with the coupler "
            f"(|detuning| < {guard * 1e3:.0f} MHz)")

    g01, g02, g20 = (eps * g for g in _second_order(p, f_avg, shift))
    return ModulatedCouplings(n=n, eps=eps, g01=g01, g02=g02, g20=g20,
                              f2_avg=f_avg, f2_exc=f_exc)
