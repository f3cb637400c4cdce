"""Process tomography and fidelity metrics for two-qubit gates.

Everything here works on the 4x4 block of a gate on the computational
subspace (both qubits in {0, 1}, coupler in its ground state): it builds
the 16x16 Pauli transfer matrix (PTM) of that block and scores it
against ideal targets.  The propagator of the three-body model lives on
27 levels; callers project it onto the dressed computational states,
``basis.conj().T @ u @ basis`` with ``basis`` from
``effective.dressed_computational_basis``, as a dispersive readout sees
them.  Any other shape raises.

- ``qubit_subspace_ptm`` builds the PTM and reports leakage separately,
- ``extract_virtual_z`` / ``virtual_z_correct`` remove single-qubit
  frame phases the way the control electronics would,
- ``fit_fsim`` finds the closest member of the fSim(theta, phi) family,
- ``phase_error`` and the ``coherence_fidelity_*`` helpers evaluate the
  analytic error-budget formulas.

Pauli operators are ordered II, IX, IY, IZ, XI, XX, ... (index
4*i + j with I, X, Y, Z per qubit); computational states are ordered
|00>, |01>, |10>, |11> with the second label belonging to qubit 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

_LABELS1 = "IXYZ"

#: Two-qubit Pauli labels in PTM order: II, IX, IY, IZ, XI, ...
PAULI_LABELS = tuple(a + b for a in _LABELS1 for b in _LABELS1)

#: Stacked (16, 4, 4) array of two-qubit Pauli operators in PTM order.
TWO_QUBIT_PAULIS = np.stack(
    [np.kron(PAULIS[a], PAULIS[b]) for a in _LABELS1 for b in _LABELS1]
)

# The fSim gate is sum_k v_k E_k over these four terms, with
# v = (1, cos theta, sin theta, e^{-i phi}).
_FSIM_TERMS = np.zeros((4, 4, 4), dtype=complex)
_FSIM_TERMS[0, 0, 0] = 1.0
_FSIM_TERMS[1, 1, 1] = _FSIM_TERMS[1, 2, 2] = 1.0
_FSIM_TERMS[2, 1, 2] = _FSIM_TERMS[2, 2, 1] = -1.0j
_FSIM_TERMS[3, 3, 3] = 1.0

# F_pro(fSim) = sum_ij R[i, j] Tr(P_i F P_j F^dag) / 64 = v^T H v*, where
# H[k, l] = sum_ij R[i, j] Tr(P_i E_k P_j E_l^dag) / 64 is
# (R.ravel() @ _FSIM_FORM).reshape(4, 4).
_FSIM_FORM = np.einsum("iab,kbc,jcd,lad->ijkl", TWO_QUBIT_PAULIS, _FSIM_TERMS,
                       TWO_QUBIT_PAULIS, _FSIM_TERMS.conj(),
                       optimize=True).reshape(256, 16) / 64.0

# How far PTM entries may poke out of [-1, 1] before we call it a bug
# rather than roundoff.
_ENTRY_TOL = 1e-9


@dataclass(frozen=True)
class ProcessTensor:
    """Pauli transfer matrix of a (possibly leaky) two-qubit channel.

    ``ptm`` is the real 16x16 matrix R with R[i, j] = Tr(P_i E(P_j)) / 4;
    ``leakage`` is the population lost from the computational subspace,
    1 - Tr(M^dag M)/4 for a projected unitary block M.
    """

    ptm: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        ptm = np.asarray(self.ptm, dtype=float)
        if ptm.shape != (16, 16):
            raise ValueError(f"PTM must be 16x16, got {ptm.shape}")
        if np.max(np.abs(ptm)) > 1.0 + _ENTRY_TOL:
            raise ValueError("PTM entries must lie in [-1, 1]")
        if not -_ENTRY_TOL <= self.leakage <= 1.0 + _ENTRY_TOL:
            raise ValueError("leakage must lie in [0, 1]")
        object.__setattr__(self, "ptm", ptm)


@dataclass(frozen=True)
class FSimFit:
    """Best-fit fSim angles for a measured channel."""

    theta: float
    phi: float
    fidelity_to_fit: float

    def __post_init__(self):
        if not -np.pi < self.theta <= np.pi:
            raise ValueError("theta must lie in (-pi, pi]")
        if not -np.pi < self.phi <= np.pi:
            raise ValueError("phi must lie in (-pi, pi]")
        if not -1e-9 <= self.fidelity_to_fit <= 1.0 + 1e-9:
            raise ValueError("fidelity must lie in [0, 1]")


@dataclass(frozen=True)
class CoherenceTimes:
    """T1 and Ramsey T2* for both qubits, in microseconds.

    The qubit-2 values should be the under-modulation (flux-averaged)
    times when scoring a parametric gate.
    """

    t1_q1: float
    t1_q2: float
    t2s_q1: float
    t2s_q2: float

    def __post_init__(self):
        for name in ("t1_q1", "t1_q2", "t2s_q1", "t2s_q2"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if self.t2s_q1 > 2.0 * self.t1_q1 + 1e-12:
            raise ValueError("t2s_q1 exceeds the 2*T1 limit")
        if self.t2s_q2 > 2.0 * self.t1_q2 + 1e-12:
            raise ValueError("t2s_q2 exceeds the 2*T1 limit")


def fsim_unitary(theta: float, phi: float) -> np.ndarray:
    """4x4 fSim(theta, phi) unitary on (|00>, |01>, |10>, |11>).

    theta is the excitation-swap angle, phi the conditional phase on
    |11>.  fsim_unitary(-pi/2, 0) is the iSWAP (swap amplitudes +i),
    fsim_unitary(0, pi) the CZ.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -1.0j * s, 0.0],
            [0.0, -1.0j * s, c, 0.0],
            [0.0, 0.0, 0.0, np.exp(-1.0j * phi)],
        ],
        dtype=complex,
    )


ISWAP = fsim_unitary(-np.pi / 2.0, 0.0)
CZ = fsim_unitary(0.0, np.pi)


def _block(m) -> np.ndarray:
    """``m`` as a complex 4x4 computational block; any other shape raises."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 block, got shape {m.shape}")
    return m


def ptm_of_unitary(m: np.ndarray) -> np.ndarray:
    """16x16 PTM of the map rho -> M rho M^dag for a 4x4 block M."""
    m = _block(m)
    conjugated = m @ TWO_QUBIT_PAULIS @ m.conj().T
    return np.einsum("iab,jba->ij", TWO_QUBIT_PAULIS, conjugated).real / 4.0


def subspace_leakage(m: np.ndarray) -> float:
    """Population lost from the computational subspace, 1 - Tr(M^dag M)/4."""
    m = _block(m)
    return float(max(0.0, 1.0 - np.trace(m.conj().T @ m).real / 4.0))


def qubit_subspace_ptm(m: np.ndarray) -> ProcessTensor:
    """PTM of a gate's 4x4 block on the computational subspace.

    Leakage is reported on the ProcessTensor rather than folded into a
    trace-preserving completion, so a leaky gate shows up both as a
    non-unital first row and as a nonzero ``leakage`` number.
    """
    return ProcessTensor(ptm=ptm_of_unitary(m), leakage=subspace_leakage(m))


def _virtual_z_block(z1: float, z2: float) -> np.ndarray:
    """Rz(z1) x Rz(z2) on the computational subspace."""
    half1 = np.exp(-0.5j * z1)
    half2 = np.exp(-0.5j * z2)
    return np.diag(
        [
            half1 * half2,
            half1 / half2,
            half2 / half1,
            1.0 / (half1 * half2),
        ]
    ).astype(complex)


def extract_virtual_z(m: np.ndarray, target: np.ndarray):
    """Frame angles (z1, z2) aligning a gate's 4x4 block with its target.

    Finds the virtual-Z rotation Rz(z1) x Rz(z2) that, applied after
    the gate, maximizes the overlap |Tr(T^dag R M)| with the 4x4 target
    T.  Writing R = diag(e^{-is}, e^{-id}, e^{+id}, e^{+is}) with
    s = (z1 + z2)/2 and d = (z1 - z2)/2, the trace splits into two
    independent phasors p_s and p_d; each is aligned in closed form.
    That fixes the half angles only up to pi, and adding pi to s or to d
    flips the sign of its phasor.  Flipping both leaves the overlap
    unchanged, and flipping s alone equals flipping d alone modulo 2*pi
    in (z1, z2), so one choice remains: d + pi when |p_s - p_d| exceeds
    |p_s + p_d|.  Without it the two phasors can end up anti-aligned and
    the apparent fidelity collapses even for a near-perfect gate.
    """
    m = _block(m)
    t = np.asarray(target, dtype=complex)
    if t.shape != (4, 4):
        raise ValueError(f"target must be 4x4, got {t.shape}")
    # Row weights of Tr(T^dag R M): rows 0/3 carry e^{-is}/e^{+is},
    # rows 1/2 carry e^{-id}/e^{+id}.
    c = np.einsum("ij,ij->i", t.conj(), m)
    sum_s = abs(c[0]) + abs(c[3])
    sum_d = abs(c[1]) + abs(c[2])
    if sum_s < 1e-8 or sum_d < 1e-8:
        raise ValueError(
            "virtual-Z extraction is ill-conditioned: the gate has no weight "
            "on part of the target's support"
        )
    # The e^{-is}/e^{+is} pair aligns at s = (arg c0 - arg c3)/2, the
    # d pair likewise; np.angle(0) = 0 keeps vanishing members harmless.
    s = 0.5 * (np.angle(c[0]) - np.angle(c[3]))
    d = 0.5 * (np.angle(c[1]) - np.angle(c[2]))
    phasor_s = c[0] * np.exp(-1.0j * s) + c[3] * np.exp(1.0j * s)
    phasor_d = c[1] * np.exp(-1.0j * d) + c[2] * np.exp(1.0j * d)
    if abs(phasor_s - phasor_d) > abs(phasor_s + phasor_d):
        d += np.pi
    z1 = _wrap_angle(s + d)
    z2 = _wrap_angle(s - d)
    return z1, z2


def virtual_z_correct(obj, z1: float, z2: float):
    """Apply the frame rotation Rz(z1) x Rz(z2) after a gate.

    ``obj`` may be a 4x4 block (returns the corrected block) or a
    ProcessTensor (returns a ProcessTensor with the rotation composed
    onto the channel).
    """
    r = _virtual_z_block(z1, z2)
    if isinstance(obj, ProcessTensor):
        # rotating a shot-noise estimate can overshoot the entry bound
        composed = np.clip(ptm_of_unitary(r) @ obj.ptm, -1.0, 1.0)
        return ProcessTensor(ptm=composed, leakage=obj.leakage)
    return r @ _block(obj)


def _wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = float(np.mod(a + np.pi, 2.0 * np.pi) - np.pi)
    return np.pi if a == -np.pi else a


def _coerce_ptm(obj) -> np.ndarray:
    if isinstance(obj, ProcessTensor):
        return obj.ptm
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (16, 16):
        raise ValueError(f"expected a ProcessTensor or 16x16 matrix, got shape {arr.shape}")
    return arr


def process_fidelity(ptm, ideal) -> float:
    """Process fidelity Tr(R_ideal^T R)/16 against a unitary ideal."""
    r = _coerce_ptm(ptm)
    r_ideal = _coerce_ptm(ideal)
    return float(np.sum(r_ideal * r) / 16.0)


def average_fidelity(ptm, ideal) -> float:
    """Average gate fidelity (4 F_pro + 1)/5 against a unitary ideal."""
    return (4.0 * process_fidelity(ptm, ideal) + 1.0) / 5.0


def ptm_unitarity_defect(ptm) -> float:
    """Deviation of the unital 15x15 block from orthogonality.

    Zero for the PTM of a unitary channel; grows as the channel
    decoheres or leaks.
    """
    block = _coerce_ptm(ptm)[1:, 1:]
    return float(np.max(np.abs(block.T @ block - np.eye(15))))


def fit_fsim(ptm) -> FSimFit:
    """Closest fSim(theta, phi) to a measured channel.

    Maximizes the average fidelity between the channel and the fSim
    family.  The process fidelity is the quadratic form v^T H v* in
    v = (1, cos theta, sin theta, e^{-i phi}), with H linear in the PTM.
    For fixed theta the phi terms reduce to 2 Re(e^{i phi} z(theta)),
    z = sum_{k<3} v_k H[k, 3], so the best phi is -arg z and contributes
    2|z|.  What remains is a smooth function of theta alone: its maximum
    is bracketed on a dense grid over (-pi, pi] and polished by bounded
    Brent iteration, leaving the angles accurate to about 1e-8 rad.
    A channel whose unital block is far from orthogonal is fit anyway,
    with a warning, since the fSim family is unitary.
    """
    from scipy.optimize import minimize_scalar

    r = _coerce_ptm(ptm)
    if ptm_unitarity_defect(r) > 0.05:
        warnings.warn(
            "channel is far from unitary; the fSim fit may not be meaningful",
            stacklevel=2,
        )
    h = (r.ravel() @ _FSIM_FORM).reshape(4, 4)
    quad, z_coef = h[:3, :3].real, h[:3, 3]

    def best_over_phi(theta):
        """(max over phi of F_pro, z) at theta, a scalar or a 1-D array."""
        v = np.array([np.ones_like(theta), np.cos(theta), np.sin(theta)])
        z = z_coef @ v
        return (v * (quad @ v)).sum(axis=0) + h[3, 3].real + 2.0 * np.abs(z), z

    step = 2.0 * np.pi / 128
    grid = -np.pi + step * np.arange(1, 129)
    start = grid[np.argmax(best_over_phi(grid)[0])]
    theta = minimize_scalar(lambda t: -best_over_phi(t)[0], method="bounded",
                            bounds=(start - step, start + step),
                            options={"xatol": 1e-12}).x
    f_pro, z = best_over_phi(theta)
    return FSimFit(
        theta=_wrap_angle(theta),
        phi=_wrap_angle(-np.angle(z)),
        fidelity_to_fit=min(1.0, float((4.0 * f_pro + 1.0) / 5.0)),
    )


def phase_error(delta_phi: float) -> float:
    """Average-fidelity cost of a conditional-phase miss, 3(1 - cos)/10."""
    return 3.0 * (1.0 - np.cos(delta_phi)) / 10.0


def coherence_fidelity_iswap(ct: CoherenceTimes, tau_ns: float) -> float:
    """Coherence-limited average fidelity of an iSWAP of duration tau_ns.

    1 - (1/T1 + 1/T1~) tau/5 - 2 (1/T2* + 1/T2*~) tau/5, with the
    tilde times belonging to the modulated qubit.
    """
    if tau_ns <= 0.0:
        raise ValueError("gate duration must be positive")
    tau_us = tau_ns * 1e-3
    relax = (1.0 / ct.t1_q1 + 1.0 / ct.t1_q2) * tau_us / 5.0
    dephase = 2.0 * (1.0 / ct.t2s_q1 + 1.0 / ct.t2s_q2) * tau_us / 5.0
    return 1.0 - relax - dephase


def coherence_fidelity_cz(ct: CoherenceTimes, tau_ns: float) -> float:
    """Coherence-limited average fidelity of a CZ of duration tau_ns.

    1 - 19 (1/T1 + 1/T1~) tau/60 - (29/(60 T2*) + 61/(80 T2*~)) tau.
    The weights reflect the |2> population during the gate.  Note the
    coherence times entered here are usually measured at the iSWAP
    operating point; the CZ point can differ.
    """
    if tau_ns <= 0.0:
        raise ValueError("gate duration must be positive")
    tau_us = tau_ns * 1e-3
    relax = 19.0 * (1.0 / ct.t1_q1 + 1.0 / ct.t1_q2) * tau_us / 60.0
    dephase = (29.0 / (60.0 * ct.t2s_q1) + 61.0 / (80.0 * ct.t2s_q2)) * tau_us
    return 1.0 - relax - dephase


def confusion_matrix(fidelity0: float, fidelity1: float | None = None) -> np.ndarray:
    """2x2 readout confusion matrix, columns indexed by the true state.

    ``fidelity0`` is the probability of reading |0> as 0; ``fidelity1``
    defaults to the same value (symmetric readout).
    """
    if fidelity1 is None:
        fidelity1 = fidelity0
    for f in (fidelity0, fidelity1):
        if not 0.0 <= f <= 1.0:
            raise ValueError("readout fidelities must lie in [0, 1]")
    return np.array([[fidelity0, 1.0 - fidelity1], [1.0 - fidelity0, fidelity1]])


def readout_compensation(counts, confusions):
    """Invert per-qubit readout errors on outcome distributions.

    ``counts`` holds raw counts or probabilities in the order 00, 01, 10,
    11 along its last axis, of length 4; any leading axes are a batch
    that is compensated in one solve.  ``confusions`` is a pair of 2x2
    per-qubit confusion matrices (columns = true state).  Returns the
    corrected probabilities, of the shape of ``counts``, and the total
    weight clipped from negative entries of each distribution before
    renormalization (a float for a single distribution).
    """
    raw = np.asarray(counts, dtype=float)
    if raw.ndim == 0 or raw.shape[-1] != 4:
        raise ValueError(f"expected 4 outcome counts, got shape {raw.shape}")
    if not np.all((raw >= 0.0) & (raw < np.inf)):
        raise ValueError("counts must be nonnegative and finite")
    total = raw.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("counts must not all be zero")
    c1, c2 = (np.asarray(c, dtype=float) for c in confusions)
    full = np.kron(c1, c2)
    if abs(np.linalg.det(full)) < 1e-12:
        raise ValueError("confusion matrix is singular")
    freqs = (raw / total).reshape(-1, 4)
    p = np.linalg.solve(full, freqs.T).T.reshape(raw.shape)
    clipped = -np.minimum(p, 0.0).sum(axis=-1)
    p = np.clip(p, 0.0, None)
    p /= p.sum(axis=-1, keepdims=True)
    return p, float(clipped) if raw.ndim == 1 else clipped


# Tomographically complete single-qubit preparations |0>, |1>, |+>, |+i>,
# and the eigenbases of X, Y, Z with columns ordered +1, -1.
_PREP_1Q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0j]]) \
    / np.sqrt([[1.0], [1.0], [2.0], [2.0]])
_EIG_1Q = np.stack([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
                    np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0),
                    np.eye(2)])

#: (16, 4) two-qubit input states, the qubit-1 preparation major.
_PREP_PSI = np.einsum("pa,qb->pqab", _PREP_1Q, _PREP_1Q).reshape(16, 4)
_PREP_RHO = _PREP_PSI[:, :, None] * _PREP_PSI[:, None, :].conj()
#: Inverse of the matrix whose columns are the Pauli vectors of the inputs.
_PREP_INV = np.linalg.inv(np.einsum("iab,pba->ip", TWO_QUBIT_PAULIS, _PREP_RHO).real)
#: (9, 4, 4) two-qubit measurement bases, settings XX, XY, ..., ZZ.
_MEAS_BASES = np.einsum("sac,tbd->stabcd", _EIG_1Q, _EIG_1Q).reshape(9, 4, 4)


def _expectation_weights() -> np.ndarray:
    """(9, 4, 16) weights from setting outcome probabilities to Paulis.

    Setting ab measures the Paulis ab, aI and Ib; the one-qubit Paulis are
    seen by three settings each and averaged over them.
    """
    signs, ones = np.array([1.0, -1.0]), np.ones(2)
    weights = np.zeros((9, 4, 16))
    for s, (a, b) in enumerate((a, b) for a in "XYZ" for b in "XYZ"):
        for label, w in ((a + b, np.kron(signs, signs)),
                         (a + "I", np.kron(signs, ones)),
                         ("I" + b, np.kron(ones, signs))):
            weights[s, :, PAULI_LABELS.index(label)] = w
    return weights / np.maximum(np.count_nonzero(weights[:, 0], axis=0), 1)


_EXPECTATION_WEIGHTS = _expectation_weights()


def simulate_qpt(
    m: np.ndarray,
    shots: int = 0,
    confusions=None,
    seed: int | None = None,
) -> ProcessTensor:
    """Process tomography of a gate as the experiment would run it.

    Prepares the 16 products of {|0>, |1>, |+>, |+i>} per qubit, applies
    the gate's 4x4 block ``m``, and measures each output in the 9
    two-qubit Pauli bases.  With ``shots`` > 0 each setting is sampled from a
    multinomial, readout errors from the per-qubit ``confusions``
    matrices are applied and then compensated, and the PTM is rebuilt
    by linear inversion (entries clipped to [-1, 1]).  With shots = 0
    the exact probabilities are used and the PTM matches
    ``qubit_subspace_ptm`` up to the trace-normalization of leaked
    population.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    m = _block(m)
    leak = subspace_leakage(m)
    rho_out = m @ _PREP_RHO @ m.conj().T
    kept = np.trace(rho_out, axis1=1, axis2=2).real
    probs = np.einsum("sji,pjk,ski->psi", _MEAS_BASES.conj(), rho_out,
                      _MEAS_BASES).real
    # Leaked population ends up reading out as some state; model it as
    # uniform over the four outcomes.  kept can exceed 1 by rounding, so
    # the leaked weight is clamped at 0 to keep every probability >= 0.
    leaked = np.maximum(1.0 - kept, 0.0)
    probs = np.clip(probs, 0.0, None) + leaked[:, None, None] / 4.0
    probs /= probs.sum(axis=-1, keepdims=True)
    if shots > 0:
        if confusions is None:
            confusions = (np.eye(2), np.eye(2))
        c_full = np.kron(*(np.asarray(c, dtype=float) for c in confusions))
        raw = np.random.default_rng(seed).multinomial(shots, probs @ c_full.T)
        probs, _ = readout_compensation(raw, confusions)
    meas = np.einsum("psk,ski->ip", probs, _EXPECTATION_WEIGHTS)
    meas[0] = 1.0
    ptm = meas @ _PREP_INV
    return ProcessTensor(ptm=np.clip(ptm, -1.0, 1.0), leakage=leak)
