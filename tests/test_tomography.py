"""Process tomography, fSim extraction, and coherence-limited fidelities."""

import json
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from paramres.effective import COMPUTATIONAL_INDICES
from paramres.tomography import (
    CZ,
    ISWAP,
    CoherenceTimes,
    ProcessTensor,
    average_fidelity,
    coherence_fidelity_cz,
    coherence_fidelity_iswap,
    confusion_matrix,
    extract_virtual_z,
    fit_fsim,
    fsim_unitary,
    load_ptm,
    phase_error,
    process_fidelity,
    ptm_of_unitary,
    ptm_unitarity_defect,
    qubit_subspace_ptm,
    readout_compensation,
    save_ptm,
    simulate_qpt,
    subspace_leakage,
    virtual_z_correct,
)

from conftest import haar_unitary


def embed_in_27(block: np.ndarray) -> np.ndarray:
    """Place a 4x4 computational block inside an otherwise trivial 27x27 unitary."""
    u = np.eye(27, dtype=complex)
    idx = np.array(COMPUTATIONAL_INDICES)
    u[np.ix_(idx, idx)] = block
    return u


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
    pt = qubit_subspace_ptm(embed_in_27(ISWAP))
    np.testing.assert_allclose(pt.ptm, ptm_of_unitary(ISWAP), atol=1e-12)
    assert pt.leakage == 0.0
    assert pt.trace_preserving_defect < 1e-12


def test_subspace_leakage_of_partial_rotation():
    alpha = 0.3
    u = np.eye(27, dtype=complex)
    # rotate |01> partially onto the q2 second excited state
    u[1, 1] = u[2, 2] = np.cos(alpha)
    u[2, 1], u[1, 2] = np.sin(alpha), -np.sin(alpha)
    m = u[np.ix_(COMPUTATIONAL_INDICES, COMPUTATIONAL_INDICES)]
    assert subspace_leakage(m) == pytest.approx(np.sin(alpha) ** 2 / 4.0, abs=1e-12)
    assert qubit_subspace_ptm(u).leakage == pytest.approx(np.sin(alpha) ** 2 / 4.0,
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


def test_readout_compensation_validation():
    c = confusion_matrix(0.95)
    with pytest.raises(ValueError, match="nonnegative"):
        readout_compensation(np.array([1.0, -0.1, 0.0, 0.1]), (c, c))
    with pytest.raises(ValueError, match="not all be zero"):
        readout_compensation(np.zeros(4), (c, c))
    singular = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="singular"):
        readout_compensation(np.array([0.25, 0.25, 0.25, 0.25]),
                             (singular, singular))


def test_simulate_qpt_exact_limit_matches_projection():
    u = embed_in_27(fsim_unitary(-np.pi / 2, 0.1))
    pt_direct = qubit_subspace_ptm(u)
    pt_qpt = simulate_qpt(u)
    np.testing.assert_allclose(pt_qpt.ptm, pt_direct.ptm, atol=1e-9)
    assert pt_qpt.leakage == pytest.approx(pt_direct.leakage, abs=1e-12)


def test_simulate_qpt_shot_noise_is_seeded():
    u = embed_in_27(ISWAP)
    a = simulate_qpt(u, shots=400, seed=11)
    b = simulate_qpt(u, shots=400, seed=11)
    c = simulate_qpt(u, shots=400, seed=12)
    np.testing.assert_array_equal(a.ptm, b.ptm)
    assert np.max(np.abs(a.ptm - c.ptm)) > 0.0


def test_simulate_qpt_rejects_negative_shots():
    with pytest.raises(ValueError, match="shots must be >= 0"):
        simulate_qpt(embed_in_27(ISWAP), shots=-5)


def test_simulate_qpt_with_readout_errors_recovers_gate():
    u = embed_in_27(ISWAP)
    confusions = (confusion_matrix(0.97, 0.94), confusion_matrix(0.96, 0.95))
    pt = simulate_qpt(u, shots=20000, confusions=confusions, seed=3)
    ideal = ptm_of_unitary(ISWAP)
    assert np.max(np.abs(pt.ptm - ideal)) < 0.06
    assert average_fidelity(pt.ptm, ideal) > 0.98


def test_ptm_file_round_trip(tmp_path):
    pt = qubit_subspace_ptm(embed_in_27(fsim_unitary(0.3, -1.2)))
    stamp = "2026-01-01T00:00:00Z"
    path = tmp_path / "gate.ptm"
    save_ptm(path, pt, metadata={"note": "round trip", "generated": stamp})
    lines = path.read_text().splitlines()
    # the timestamp sits on its own strippable line, not in the JSON header
    assert "generated" not in lines[0]
    assert lines[1] == f"# generated: {stamp}"
    # files that keep the timestamp inside the JSON header still load
    old = tmp_path / "old.ptm"
    header = {**json.loads(lines[0][2:]), "generated": stamp}
    old.write_text("\n".join(["# " + json.dumps(header), *lines[2:]]) + "\n")
    for p in (path, old):
        loaded, header = load_ptm(p)
        np.testing.assert_allclose(loaded.ptm, pt.ptm, atol=1e-10)
        assert loaded.leakage == pytest.approx(pt.leakage, abs=1e-12)
        assert header["note"] == "round trip"
        assert header["generated"] == stamp


def test_load_ptm_requires_header(tmp_path):
    path = tmp_path / "bad.ptm"
    path.write_text("0.0 " * 16 + "\n")
    with pytest.raises(ValueError, match="missing JSON header"):
        load_ptm(path)
