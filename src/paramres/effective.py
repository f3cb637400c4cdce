"""The three-body model: its Hamiltonian and its effective couplings.

The module owns four things.  ``build_hamiltonian`` is the one
Hamiltonian; ``dynamics.propagate`` takes its q2-independent part from
the same helper.  ``dressed_computational_basis`` gives its eigenstates
on the computational subspace, the basis that a dispersive readout
sees and that callers project a propagator onto before tomography.
``modulated_couplings`` gives the second-order qubit-qubit couplings of
each sideband n with the coupler eliminated (Didier et al., PRA 97,
022330 (2018)).  ``static_couplings`` is the n = 0 term of that
formula without modulation (weight 1, no shift).

Each mode keeps its lowest three levels, so the full Hilbert space is
27-dimensional with basis |n1 nc n2> and index 9*n1 + 3*nc + n2.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fluxcontrol import FluxPulse
from .spectrum import DeviceParams, TransmonSpec, transition_frequency

LEVELS = 3
DIM = LEVELS**3

# Index of |n1 nc n2| in the product basis.
def basis_index(n1: int, nc: int, n2: int) -> int:
    return 9 * n1 + 3 * nc + n2


# Two-qubit computational subspace |q1 q2> with the coupler in |0>: the
# labels and the bare indices of its states, in the column order of every
# 27x4 isometry onto it.
COMPUTATIONAL_LABELS = ("00", "01", "10", "11")
COMPUTATIONAL_INDICES = (basis_index(0, 0, 0), basis_index(0, 0, 1),
                         basis_index(1, 0, 0), basis_index(1, 0, 1))

_SIGMA = np.diag([1.0, np.sqrt(2.0)], k=1)      # lowering operator, 3 levels
_SIGMA_X = _SIGMA + _SIGMA.T
_NUM = np.diag([0.0, 1.0, 2.0])
_P2 = np.diag([0.0, 0.0, 1.0])
_EYE = np.eye(3)


def _kron3(a, b, c):
    return np.kron(a, np.kron(b, c))


def _kron3_pair(op_a, op_b, slot_a, slot_b):
    ops = [_EYE, _EYE, _EYE]
    ops[slot_a] = op_a
    ops[slot_b] = op_b
    return _kron3(*ops)


# Structure operators, built once.  Diagonal parts are stored as vectors.
NUM_1 = np.real(np.diag(_kron3(_NUM, _EYE, _EYE)))
NUM_C = np.real(np.diag(_kron3(_EYE, _NUM, _EYE)))
NUM_2 = np.real(np.diag(_kron3(_EYE, _EYE, _NUM)))
P2_1 = np.real(np.diag(_kron3(_P2, _EYE, _EYE)))
P2_C = np.real(np.diag(_kron3(_EYE, _P2, _EYE)))
P2_2 = np.real(np.diag(_kron3(_EYE, _EYE, _P2)))
XX_1C = _kron3_pair(_SIGMA_X, _SIGMA_X, 0, 1)
XX_C2 = _kron3_pair(_SIGMA_X, _SIGMA_X, 1, 2)
XX_12 = _kron3_pair(_SIGMA_X, _SIGMA_X, 0, 2)


def _static_terms(p: DeviceParams) -> tuple:
    """(g1c*XX_1C, diagonal without f2): the terms of H that q2's flux
    does not move."""
    diag = (p.f1 * NUM_1 - p.eta1 * P2_1 - p.etac * P2_C
            - p.eta2 * P2_2 + p.fc * NUM_C)
    return p.g1c * XX_1C, diag


def build_hamiltonian(p: DeviceParams) -> np.ndarray:
    """The static three-body Hamiltonian in GHz, a real symmetric 27x27
    array in the product basis |n1 nc n2>.

    The charge-charge couplings keep their counter-rotating parts, so the
    total excitation number is not conserved, only its parity.
    """
    xx_1c, diag = _static_terms(p)
    return np.diag(diag + p.f2 * NUM_2) + xx_1c + p.g2c * XX_C2 + p.g12 * XX_12


def dressed_computational_basis(p: DeviceParams) -> np.ndarray:
    """27x4 isometry onto the dressed computational states at bias ``p``.

    Columns are the eigenvectors of the static Hamiltonian with the
    largest overlap on bare |00>, |01>, |10>, |11> (coupler in its
    ground state), each phase-fixed so the dominant bare amplitude is
    real positive.  Projecting a propagator through this basis,
    ``basis.conj().T @ u @ basis``, removes the static coupler admixture
    that would otherwise masquerade as leakage.
    """
    _, vecs = np.linalg.eigh(build_hamiltonian(p))
    basis = np.zeros((vecs.shape[0], 4), dtype=complex)
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


def exact_g01(p: DeviceParams, window: float = 0.05) -> float:
    """Half the minimum single-excitation avoided-crossing gap, by eigensolver.

    Sweeps the bare qubit-2 frequency through qubit 1 and tracks the gap
    between the two qubit-like dressed eigenstates.  Serves as the oracle for
    static_couplings g01.
    """
    idx_10 = basis_index(1, 0, 0)
    idx_01 = basis_index(0, 0, 1)

    def gap(f2):
        h = build_hamiltonian(replace(p, f2=f2))
        vals, vecs = np.linalg.eigh(h)
        weight = np.abs(vecs[idx_10, :])**2 + np.abs(vecs[idx_01, :])**2
        a, b = np.argsort(weight)[-2:]
        return abs(vals[a] - vals[b])

    grid = np.linspace(p.f1 - window, p.f1 + window, 81)
    gaps = np.array([gap(f) for f in grid])
    k = int(np.argmin(gaps))
    if k in (0, len(grid) - 1):
        raise ValueError("no avoided crossing found in sweep window")
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(gap, bounds=(grid[k - 1], grid[k + 1]), method="bounded",
                          options={"xatol": 1e-12})
    return 0.5 * float(res.fun)


@dataclass(frozen=True)
class ModulatedCouplings:
    """Per-sideband weights and effective couplings under flux modulation.

    Index n runs over [-n_max, n_max]; at a flux sweet spot the qubit
    frequency oscillates at twice the modulation frequency, so sideband n
    sits at a shift of 2*n*mod_freq, otherwise n*mod_freq.  The weights
    eps are the numeric Fourier coefficients of the phase factor.
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


def _is_sweet_spot(phi_dc: float) -> bool:
    # Band extrema sit at integer and half-integer flux quanta.
    r = phi_dc % 0.5
    return min(r, 0.5 - r) < 1e-9


_FOURIER_SAMPLES = 4096


def _modulation_samples(q2_spec: TransmonSpec, pulse: FluxPulse):
    """(t, f2, f2_avg, f2_exc): the qubit-2 frequency, densely sampled
    over one modulation period, its time average and the amplitude of
    its component at twice the modulation frequency."""
    from scipy.integrate import trapezoid

    if pulse.mod_freq <= 0:
        raise ValueError("modulation frequency must be > 0")
    period = 1.0 / pulse.mod_freq
    t = np.linspace(0.0, period, _FOURIER_SAMPLES + 1)
    flux = pulse.phi_dc + pulse.amplitude * np.sin(2.0 * np.pi * pulse.mod_freq * t)
    f2 = np.asarray(transition_frequency(q2_spec, 2.0 * np.pi * flux))
    coeffs = np.fft.fft(f2[:-1]) / _FOURIER_SAMPLES
    return (t, f2, float(trapezoid(f2, t) / period),
            2.0 * float(np.abs(coeffs[2])))


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
    return _modulation_samples(q2_spec, pulse)[2:]


def numeric_fourier_weights(q2_spec: TransmonSpec, pulse: FluxPulse,
                            n_max: int = 5) -> tuple:
    """Sideband weights eps_n from the Fourier expansion of the phase factor.

    Integrates the accumulated phase of the modulated qubit over one period
    and projects exp(-i theta(t)) onto harmonics spaced by spacing*mod_freq,
    with spacing 2 at a flux sweet spot and 1 elsewhere.
    Returns (n, eps, spacing) with eps complex.
    """
    return _sidebands(q2_spec, pulse, n_max)[2:]


def _sidebands(q2_spec: TransmonSpec, pulse: FluxPulse, n_max: int) -> tuple:
    """(f2_avg, f2_exc, n, eps, spacing) from one sampling of q2's band;
    see average_and_excursion and numeric_fourier_weights."""
    from scipy.integrate import cumulative_trapezoid

    n = np.arange(-n_max, n_max + 1)
    spacing = 2 if _is_sweet_spot(pulse.phi_dc) else 1
    if pulse.amplitude == 0.0:
        return (*average_and_excursion(q2_spec, pulse), n,
                (n == 0).astype(complex), spacing)
    t, f2, f_avg, f_exc = _modulation_samples(q2_spec, pulse)
    theta = 2.0 * np.pi * cumulative_trapezoid(f2 - f_avg, t, initial=0.0)
    # harmonic m at exp(+i m wp t)
    harmonics = np.fft.ifft(np.exp(-1j * theta[:-1]))
    return f_avg, f_exc, n, harmonics[(n * spacing) % _FOURIER_SAMPLES], spacing


def modulated_couplings(p: DeviceParams, pulse: FluxPulse, q2_spec: TransmonSpec,
                        n_max: int = 5) -> ModulatedCouplings:
    """Effective couplings g01_n, g02_n, g20_n for sidebands n in [-n_max, n_max].

    Detunings use the average modulated frequency, Delta2 = fc - f2_avg; each
    sideband shifts the qubit-2 denominators by n*spacing*mod_freq.  The
    weights are the numeric Fourier coefficients of the full qubit-2
    frequency, so at a sweet spot they carry the 4*mod_freq harmonic and
    |eps_n| = |eps_-n| only to first order (see ModulatedCouplings).  Raises
    if a retained sideband comes too close to the coupler resonance.
    """
    f_avg, f_exc, n, eps, spacing = _sidebands(q2_spec, pulse, n_max)
    d2 = p.fc - f_avg
    shift = n * spacing * pulse.mod_freq

    guard = 1e-3  # GHz
    for name, dens in (("g01", d2 - shift), ("g02", d2 + p.eta2 - shift),
                       ("g20", d2 - shift)):
        bad = np.abs(dens) < guard
        if np.any(bad):
            worst = n[bad][np.argmin(np.abs(dens[bad]))]
            raise ValueError(
                f"sideband n={int(worst)} of {name} is resonant with the coupler "
                f"(|detuning| < {guard * 1e3:.0f} MHz)")

    g01, g02, g20 = (eps * g for g in _second_order(p, f_avg, shift))
    return ModulatedCouplings(n=n, eps=eps, g01=g01, g02=g02, g20=g20,
                              f2_avg=f_avg, f2_exc=f_exc)
