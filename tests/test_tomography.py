"""Process tomography, fSim extraction, and coherence-limited fidelities."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from paramres.effective import COMPUTATIONAL_INDICES
from paramres.tomography import (
    CZ,
    ISWAP,
    PAULIS,
    CoherenceTimes,
    ProcessTensor,
    average_fidelity,
    coherence_fidelity_cz,
    coherence_fidelity_iswap,
    confusion_matrix,
    extract_virtual_z,
    fit_fsim,
    fsim_unitary,
    phase_error,
    process_fidelity,
    ptm_of_unitary,
    ptm_unitarity_defect,
    qubit_subspace_ptm,
    readout_compensation,
    simulate_qpt,
    subspace_leakage,
    virtual_z_correct,
)

from conftest import haar_unitary


def test_fsim_reference_gates():
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
                     dtype=complex)
    np.testing.assert_allclose(ISWAP, iswap, atol=1e-15)
    np.testing.assert_allclose(CZ, np.diag([1, 1, 1, -1]).astype(complex),
                               atol=1e-15)
    np.testing.assert_allclose(fsim_unitary(-np.pi / 2, 0.0), ISWAP, atol=1e-15)
    np.testing.assert_allclose(fsim_unitary(0.0, np.pi), CZ, atol=1e-15)


def test_ptm_of_unitary_is_orthogonal(rng):
    for _ in range(20):
        r = ptm_of_unitary(haar_unitary(4, rng))
        assert np.max(np.abs(r.T @ r - np.eye(16))) < 1e-10
        assert np.max(np.abs(r)) <= 1.0 + 1e-12
        np.testing.assert_allclose(r[0], np.eye(16)[0], atol=1e-12)
        assert ptm_unitarity_defect(r) < 1e-10


def test_unitarity_defect_flags_depolarizing():
    depol = np.zeros((16, 16))
    depol[0, 0] = 1.0
    assert ptm_unitarity_defect(depol) == pytest.approx(1.0)


def test_embedded_gate_matches_direct_ptm():
    pt = qubit_subspace_ptm(ISWAP)
    np.testing.assert_allclose(pt.ptm, ptm_of_unitary(ISWAP), atol=1e-12)
    assert pt.leakage == 0.0
    assert np.max(np.abs(pt.ptm[0] - np.eye(16)[0])) < 1e-12


def test_only_a_4x4_block_is_accepted():
    # a 27-level propagator must be projected by the caller first
    u = np.eye(27, dtype=complex)
    for call in (qubit_subspace_ptm, simulate_qpt,
                 lambda x: extract_virtual_z(x, ISWAP)):
        with pytest.raises(ValueError, match="expected a 4x4 block"):
            call(u)


def test_subspace_leakage_of_partial_rotation():
    alpha = 0.3
    u = np.eye(27, dtype=complex)
    # rotate |01> partially onto the q2 second excited state
    u[1, 1] = u[2, 2] = np.cos(alpha)
    u[2, 1], u[1, 2] = np.sin(alpha), -np.sin(alpha)
    m = u[np.ix_(COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES)]
    assert subspace_leakage(m) == pytest.approx(np.sin(alpha) ** 2 / 4.0, abs=1e-12)
    assert qubit_subspace_ptm(m).leakage == pytest.approx(np.sin(alpha) ** 2 / 4.0,
                                                          abs=1e-12)


def test_process_tensor_validation():
    with pytest.raises(ValueError, match="16x16"):
        ProcessTensor(ptm=np.eye(8), leakage=0.0)
    with pytest.raises(ValueError, match="lie in \\[-1, 1\\]"):
        ProcessTensor(ptm=np.eye(16) * 1.2, leakage=0.0)
    with pytest.raises(ValueError, match="leakage must lie in \\[0, 1\\]"):
        ProcessTensor(ptm=np.eye(16), leakage=1.2)


def test_fidelity_oracles():
    ident = ptm_of_unitary(np.eye(4))
    depol = np.zeros((16, 16))
    depol[0, 0] = 1.0
    pt = ProcessTensor(ptm=depol, leakage=0.0)
    # fully depolarizing channel: F_pro = 1/16, F_avg = 1/4
    assert process_fidelity(pt, ident) == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert average_fidelity(pt, ident) == pytest.approx(0.25, abs=1e-12)
    r = ptm_of_unitary(ISWAP)
    assert process_fidelity(r, r) == pytest.approx(1.0, abs=1e-12)
    assert average_fidelity(r, r) == pytest.approx(1.0, abs=1e-12)


def test_fit_fsim_round_trip(rng):
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        fit = fit_fsim(qubit_subspace_ptm(fsim_unitary(theta, phi)))
        d_theta = abs(np.remainder(fit.theta - theta + np.pi, 2 * np.pi) - np.pi)
        d_phi = abs(np.remainder(fit.phi - phi + np.pi, 2 * np.pi) - np.pi)
        worst = max(worst, d_theta, d_phi)
        assert fit.fidelity_to_fit > 0.999
    assert worst <= 1e-6


def _shot_sampled_ptm(target):
    confusions = (confusion_matrix(0.97, 0.94), confusion_matrix(0.96, 0.95))
    return simulate_qpt(target, shots=500, confusions=confusions, seed=3).ptm


def _perturbed_fsim_ptm():
    u = haar_unitary(4, np.random.default_rng(11))
    kick = expm(0.05j * (u + u.conj().T) / 2.0)
    return ptm_of_unitary(kick @ fsim_unitary(0.7, -1.9))


@pytest.mark.parametrize("make_ptm", [
    lambda: _shot_sampled_ptm(ISWAP),
    lambda: _shot_sampled_ptm(CZ),
    _perturbed_fsim_ptm,
], ids=["iswap_shots", "cz_shots", "perturbed_fsim"])
def test_fit_fsim_is_the_global_optimum(make_ptm):
    r = make_ptm()
    with warnings.catch_warnings():
        # the shot-sampled channels are far from unitary on purpose
        warnings.filterwarnings("ignore", "channel is far from unitary")
        fit = fit_fsim(r)

    def fidelity(theta, phi):
        return average_fidelity(r, ptm_of_unitary(fsim_unitary(theta, phi)))

    assert fit.fidelity_to_fit == pytest.approx(fidelity(fit.theta, fit.phi), abs=1e-12)
    coarse = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    local = np.linspace(-2e-3, 2e-3, 21)
    best = max(max(fidelity(t, p) for t in coarse for p in coarse),
               max(fidelity(fit.theta + dt, fit.phi + dp)
                   for dt in local for dp in local))
    assert best <= fit.fidelity_to_fit + 1e-12


def test_fit_fsim_warns_for_nonunitary_channel():
    depol = np.zeros((16, 16))
    depol[0, 0] = 1.0
    mix = ProcessTensor(ptm=0.5 * ptm_of_unitary(ISWAP) + 0.5 * depol, leakage=0.0)
    with pytest.warns(UserWarning, match="far from unitary"):
        fit_fsim(mix)


def test_virtual_z_extraction_and_correction(rng):
    for target in (ISWAP, CZ):
        z1, z2 = rng.uniform(-2.0, 2.0, size=2)
        half1, half2 = np.exp(-0.5j * z1), np.exp(-0.5j * z2)
        zgate = np.diag([half1 * half2, half1 / half2, half2 / half1,
                         1.0 / (half1 * half2)])
        u = zgate @ target
        got1, got2 = extract_virtual_z(u, target)
        corrected = virtual_z_correct(qubit_subspace_ptm(u), got1, got2)
        assert average_fidelity(corrected, ptm_of_unitary(target)) == pytest.approx(
            1.0, abs=1e-10)


def test_virtual_z_correct_accepts_bare_unitary():
    z1, z2 = 0.37, -1.10
    out = virtual_z_correct(ISWAP, z1, z2)
    h1, h2 = np.exp(-0.5j * z1), np.exp(-0.5j * z2)
    rz = np.diag([h1 * h2, h1 / h2, h2 / h1, 1.0 / (h1 * h2)])
    np.testing.assert_allclose(out, rz @ ISWAP, atol=1e-12)
    np.testing.assert_allclose(virtual_z_correct(ISWAP, 0.0, 0.0), ISWAP,
                               atol=1e-15)


def test_phase_error_small_angle():
    assert phase_error(0.0) == 0.0
    x = 0.12
    assert phase_error(x) == pytest.approx(3.0 * (1.0 - np.cos(x)) / 10.0, abs=1e-15)
    # symmetric in the sign of the phase error
    assert phase_error(-x) == phase_error(x)


def test_coherence_formula_values():
    ct = CoherenceTimes(t1_q1=70.0, t1_q2=56.0, t2s_q1=14.0, t2s_q2=10.0)
    tau_us = 0.044
    expected = 1.0 - (1 / 70 + 1 / 56) * tau_us / 5.0 \
        - 2.0 * (1 / 14 + 1 / 10) * tau_us / 5.0
    assert coherence_fidelity_iswap(ct, 44.0) == pytest.approx(expected, abs=1e-12)
    tau_us = 0.124
    expected_cz = 1.0 - 19.0 * (1 / 70 + 1 / 56) * tau_us / 60.0 \
        - (29.0 / (60.0 * 14.0) + 61.0 / (80.0 * 10.0)) * tau_us
    assert coherence_fidelity_cz(ct, 124.0) == pytest.approx(expected_cz, abs=1e-12)
    with pytest.raises(ValueError):
        coherence_fidelity_iswap(ct, 0.0)


def test_coherence_times_validation():
    with pytest.raises(ValueError, match="exceeds the 2\\*T1 limit"):
        CoherenceTimes(t1_q1=10.0, t1_q2=50.0, t2s_q1=21.0, t2s_q2=10.0)
    with pytest.raises(ValueError):
        CoherenceTimes(t1_q1=-1.0, t1_q2=50.0, t2s_q1=1.0, t2s_q2=10.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t1_q1 must be positive and finite"):
            CoherenceTimes(t1_q1=bad, t1_q2=50.0, t2s_q1=1.0, t2s_q2=10.0)


def test_confusion_matrix_shape_and_validation():
    cm = confusion_matrix(0.97, 0.93)
    np.testing.assert_allclose(cm.sum(axis=0), 1.0, atol=1e-12)
    assert cm[0, 0] == 0.97 and cm[1, 1] == 0.93
    np.testing.assert_allclose(confusion_matrix(0.95),
                               confusion_matrix(0.95, 0.95), atol=1e-15)
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        confusion_matrix(1.2)


def test_readout_compensation_round_trip(rng):
    c1, c2 = confusion_matrix(0.96, 0.91), confusion_matrix(0.98, 0.94)
    probs = rng.dirichlet(np.ones(4))
    raw = np.kron(c1, c2) @ probs
    corrected, clipped = readout_compensation(raw, (c1, c2))
    np.testing.assert_allclose(corrected, probs, atol=1e-10)
    assert clipped == pytest.approx(0.0, abs=1e-12)
    # a batch of distributions, with counts in place of probabilities,
    # is compensated in one call and matches one call per distribution
    batch = rng.dirichlet(np.ones(4), size=(3, 5))
    raw = 1000.0 * batch @ np.kron(c1, c2).T
    corrected, clipped = readout_compensation(raw, (c1, c2))
    assert corrected.shape == (3, 5, 4) and clipped.shape == (3, 5)
    np.testing.assert_allclose(corrected, batch, atol=1e-10)
    for i, j in np.ndindex(3, 5):
        single, single_clipped = readout_compensation(raw[i, j], (c1, c2))
        np.testing.assert_allclose(corrected[i, j], single, atol=1e-15)
        assert clipped[i, j] == pytest.approx(single_clipped, abs=1e-15)


def test_readout_compensation_validation():
    c = confusion_matrix(0.95)
    with pytest.raises(ValueError, match="nonnegative"):
        readout_compensation(np.array([1.0, -0.1, 0.0, 0.1]), (c, c))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            readout_compensation(np.array([[0.25] * 4, [bad, 1.0, 1.0, 1.0]]), (c, c))
    with pytest.raises(ValueError, match="not all be zero"):
        readout_compensation(np.zeros(4), (c, c))
    with pytest.raises(ValueError, match="not all be zero"):
        readout_compensation(np.array([[0.25] * 4, [0.0] * 4]), (c, c))
    with pytest.raises(ValueError, match="expected 4 outcome counts"):
        readout_compensation(np.ones((4, 3)), (c, c))
    singular = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="singular"):
        readout_compensation(np.array([0.25, 0.25, 0.25, 0.25]),
                             (singular, singular))


def test_simulate_qpt_exact_limit_matches_projection():
    u = fsim_unitary(-np.pi / 2, 0.1)
    pt_direct = qubit_subspace_ptm(u)
    pt_qpt = simulate_qpt(u)
    np.testing.assert_allclose(pt_qpt.ptm, pt_direct.ptm, atol=1e-9)
    assert pt_qpt.leakage == pytest.approx(pt_direct.leakage, abs=1e-12)


def test_simulate_qpt_shot_noise_is_seeded():
    u = ISWAP
    a = simulate_qpt(u, shots=400, seed=11)
    b = simulate_qpt(u, shots=400, seed=11)
    c = simulate_qpt(u, shots=400, seed=12)
    np.testing.assert_array_equal(a.ptm, b.ptm)
    assert np.max(np.abs(a.ptm - c.ptm)) > 0.0


def loop_qpt(m, shots, confusions, seed):
    """Reference tomography: one setting at a time, one draw per setting."""
    rng = np.random.default_rng(seed)
    c_full = np.kron(*confusions)
    r2 = np.sqrt(2.0)
    preps = [np.array(v, dtype=complex) for v in
             ([1, 0], [0, 1], [1 / r2, 1 / r2], [1 / r2, 1j / r2])]
    eig = {"X": np.array([[1, 1], [1, -1]]) / r2,
           "Y": np.array([[1, 1], [1j, -1j]]) / r2, "Z": np.eye(2)}
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
    signs, ones = np.array([1.0, -1.0]), np.ones(2)
    prep_vectors, meas_vectors = np.zeros((16, 16)), np.zeros((16, 16))
    for col, (a1, a2) in enumerate(itertools.product(preps, repeat=2)):
        psi = np.kron(a1, a2)
        rho = np.outer(psi, psi.conj())
        prep_vectors[:, col] = [np.trace(np.kron(PAULIS[p[0]], PAULIS[p[1]]) @ rho).real
                                for p in labels]
        rho_out = m @ rho @ m.conj().T
        expect, hits = np.eye(16)[0], np.eye(16)[0]
        for a, b in itertools.product("XYZ", repeat=2):
            b2 = np.kron(eig[a], eig[b])
            probs = np.diag(b2.conj().T @ rho_out @ b2).real
            probs = np.clip(probs, 0.0, None) + (1.0 - np.trace(rho_out).real) / 4
            probs /= probs.sum()
            if shots:
                raw = rng.multinomial(shots, c_full @ probs).astype(float)
                probs, _ = readout_compensation(raw, confusions)
            for label, w in ((a + b, np.kron(signs, signs)),
                             (a + "I", np.kron(signs, ones)),
                             ("I" + b, np.kron(ones, signs))):
                expect[labels.index(label)] += probs @ w
                hits[labels.index(label)] += 1.0
        meas_vectors[:, col] = expect / hits
    return np.clip(meas_vectors @ np.linalg.inv(prep_vectors), -1.0, 1.0)


@pytest.mark.parametrize("shots", [0, 1000])
def test_simulate_qpt_matches_the_per_setting_loop(rng, shots):
    confusions = (confusion_matrix(0.97, 0.94), confusion_matrix(0.96, 0.95))
    for _ in range(3):
        # the computational block of a random 27-level unitary leaks
        u = haar_unitary(27, rng)
        m = u[np.ix_(COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES)]
        pt = simulate_qpt(m, shots=shots, confusions=confusions, seed=7)
        np.testing.assert_allclose(pt.ptm, loop_qpt(m, shots, confusions, 7),
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("excess", [1e-14, 3e-14])
def test_simulate_qpt_perfect_readout_when_kept_exceeds_one(monkeypatch, excess):
    # The dressed block of a calibrated gate keeps a norm above 1 by
    # rounding for some preparations; with perfect readout (no
    # confusions) the sampled probabilities must still be valid.
    real_rng = np.random.default_rng
    drawn = []

    class Recorder:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def multinomial(self, n, pvals):
            drawn.append(np.array(pvals))
            return self.rng.multinomial(n, pvals)

    monkeypatch.setattr(np.random, "default_rng", Recorder)
    pt = simulate_qpt(ISWAP * (1.0 + excess), shots=1000, seed=1)
    assert np.all(np.isfinite(pt.ptm))
    (pvals,) = drawn
    assert np.all((pvals >= 0.0) & (pvals <= 1.0))
    np.testing.assert_allclose(pvals.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)


def test_simulate_qpt_rejects_negative_shots():
    with pytest.raises(ValueError, match="shots must be >= 0"):
        simulate_qpt(ISWAP, shots=-5)


def test_simulate_qpt_with_readout_errors_recovers_gate():
    confusions = (confusion_matrix(0.97, 0.94), confusion_matrix(0.96, 0.95))
    pt = simulate_qpt(ISWAP, shots=20000, confusions=confusions, seed=3)
    ideal = ptm_of_unitary(ISWAP)
    assert np.max(np.abs(pt.ptm - ideal)) < 0.06
    assert average_fidelity(pt.ptm, ideal) > 0.98
