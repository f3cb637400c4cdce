"""End-to-end acceptance checks for the calibration toolkit.

Each test covers one headline requirement and prints a single PASS line
with the realized numbers (shown with ``pytest -s``, and implicit in the
per-test PASSED/FAILED verdicts of ``pytest -v``).
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv

from paramres.calibration import (
    GATES,
    CalibrationError,
    calibrate_gate,
    sideband_collision_map,
)
from paramres.device import bundled_path, device_params
from paramres.dynamics import coupling_vs_bias, propagate
from paramres.effective import (
    average_and_excursion,
    exact_g01,
    numeric_fourier_weights,
    static_couplings,
)
from paramres.fluxcontrol import FluxPulse, compensate_crosstalk, load_crosstalk_csv
from paramres.spectrum import DeviceParams
from paramres.tomography import (
    CoherenceTimes,
    coherence_fidelity_iswap,
    fit_fsim,
    fsim_unitary,
    phase_error,
    ptm_of_unitary,
    qubit_subspace_ptm,
)

from conftest import haar_unitary


def wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def test_criterion_01_sideband_weights_match_bessel(device):
    t0 = time.perf_counter()
    mod_freq = 0.300

    def excursion(amp):
        pulse = FluxPulse(phi_dc=0.0, amplitude=amp, mod_freq=mod_freq,
                          duration=50.0)
        return average_and_excursion(device.q2, pulse)[1] - 0.0585

    amp = brentq(excursion, 0.05, 0.35, xtol=1e-10)
    pulse = FluxPulse(phi_dc=0.0, amplitude=amp, mod_freq=mod_freq,
                      duration=50.0)
    n, eps, spacing = numeric_fourier_weights(device.q2, pulse)
    elapsed = time.perf_counter() - t0

    mid = len(n) // 2
    eps0 = abs(eps[mid])
    eps1 = (abs(eps[mid + 1]), abs(eps[mid - 1]))
    eps2 = (abs(eps[mid + 2]), abs(eps[mid - 2]))
    bessel = jv(n, 0.0585 / (2.0 * mod_freq))
    worst = float(np.max(np.abs(eps - bessel)))

    assert eps0 == pytest.approx(0.998, abs=0.001)
    for e in eps1:
        assert e == pytest.approx(0.049, abs=0.002)
    for e in eps2:
        assert e <= 0.002
    assert worst <= 1e-3
    assert elapsed < 1.0
    print(f"criterion 1: PASS eps0={eps0:.4f} |eps1|={eps1[0]:.4f} "
          f"|eps2|={eps2[0]:.5f} bessel_dev={worst:.2e} t={elapsed:.2f}s")


def test_criterion_02_coherence_limited_iswap_fidelity():
    ct = CoherenceTimes(t1_q1=70.0, t1_q2=56.0, t2s_q1=14.0, t2s_q2=10.0)
    f = coherence_fidelity_iswap(ct, 44.0)
    assert f == pytest.approx(0.9967, abs=1e-4)
    print(f"criterion 2: PASS F_coh(44 ns)={f:.5f}")


def test_criterion_03_phase_error_values():
    small = phase_error(0.076)
    large = phase_error(math.pi - 2.8)
    assert small == pytest.approx(0.00087, abs=2e-5)
    assert large == pytest.approx(0.0173, abs=2e-4)
    print(f"criterion 3: PASS phase_error(0.076)={small:.5f} "
          f"phase_error(pi-2.8)={large:.4f}")


def test_criterion_04_dispersive_model_vs_exact_splitting():
    t0 = time.perf_counter()
    fcs = np.linspace(4.45, 6.0, 6)
    worst_by_scale = []
    for scale in (1.0, 0.5, 0.25):
        worst = 0.0
        for fc in fcs:
            p = DeviceParams(f1=3.80, f2=3.80, fc=fc, eta1=0.235, eta2=0.233,
                             etac=0.10, g1c=0.0923 * scale, g2c=0.0923 * scale,
                             g12=0.0)
            # dispersive: g/|Delta| <= 0.15 for both qubits
            assert max(abs(p.g1c / (p.fc - p.f1)),
                       abs(p.g2c / (p.fc - p.f2))) <= 0.15
            g_sw = abs(static_couplings(p).g01)
            g_ex = abs(exact_g01(p))
            worst = max(worst, abs(g_sw - g_ex) / g_ex)
        worst_by_scale.append(worst)
    elapsed = time.perf_counter() - t0

    assert worst_by_scale[0] <= 0.05
    assert worst_by_scale[1] < worst_by_scale[0]
    assert worst_by_scale[2] < worst_by_scale[1]
    assert elapsed < 10.0
    print("criterion 4: PASS worst rel err by coupling scale "
          f"{[f'{w:.4f}' for w in worst_by_scale]} t={elapsed:.1f}s")


def test_criterion_05_zero_coupling_point_and_dynamic_agreement(device):
    # static prediction: the net coupling changes sign along the coupler band
    phics = np.linspace(0.0, 0.32, 65)
    g_static = np.array([static_couplings(device_params(device, phic=f)).g01
                         for f in phics])
    flips = np.flatnonzero(np.sign(g_static[:-1]) != np.sign(g_static[1:]))
    assert flips.size == 1
    i = int(flips[0])
    crossing = float(phics[i] - g_static[i] * (phics[i + 1] - phics[i])
                     / (g_static[i + 1] - g_static[i]))
    assert 0.05 < crossing < 0.20

    # dynamic extraction across the dispersive range, away from the node
    # where the vanishing coupling makes relative error meaningless
    biases = [0.0, 0.04, 0.17, 0.20, 0.23, 0.26, 0.29]
    g_dyn, g_stat = coupling_vs_bias(device, biases)
    rel = np.abs(g_dyn - np.abs(g_stat)) / np.abs(g_stat)
    assert np.all(rel <= 0.05)
    print(f"criterion 5: PASS sign change at phic={crossing:.4f}, dynamic "
          f"vs static worst={rel.max() * 100:.1f}% over {len(biases)} biases")


def test_criterion_06_end_to_end_iswap(device):
    t0 = time.perf_counter()
    spec, report = calibrate_gate(device, "iswap")
    elapsed = time.perf_counter() - t0

    tomo = report["tomography"]
    assert tomo["f_avg"] >= 0.999
    assert abs(tomo["theta_rad"] + math.pi / 2) <= 0.01
    assert abs(tomo["phi_rad"]) <= 0.05
    assert tomo["leakage"] <= 1e-3
    product = report["consistency"]["duration_coupling_product"]
    assert product == pytest.approx(1.0, abs=0.02)  # tau * 4 g = 1
    # the closed-form seed lands the consistency fit in a few evaluations
    assert 0 < report["consistency"]["fit_evaluations"] <= 15
    assert report["consistency"]["fit_residual"] < 0.05
    assert elapsed < 60.0
    print(f"criterion 6: PASS F_avg={tomo['f_avg']:.6f} "
          f"theta={tomo['theta_rad']:.4f} phi={tomo['phi_rad']:.4f} "
          f"leak={tomo['leakage']:.1e} tau*4g={product:.4f} "
          f"tau={spec.duration:.1f}ns t={elapsed:.1f}s")


def test_criterion_07_end_to_end_cz20_and_unreachable_cz02(device):
    spec, report = calibrate_gate(device, "cz20")
    g_eff = abs(report["coupling"]["g_eff_ghz"])
    assert g_eff == pytest.approx(4.0e-3, abs=0.5e-3)
    assert 0.8 <= spec.duration / 124.0 <= 1.2
    product = report["consistency"]["duration_coupling_product"]
    assert product == pytest.approx(1.0, abs=0.05)  # tau * 2 g = 1
    tomo = report["tomography"]
    assert abs(tomo["theta_rad"]) <= 0.02
    assert abs(wrap(tomo["phi_rad"] - math.pi)) <= 0.1

    with pytest.raises(CalibrationError, match="resonance unreachable"):
        calibrate_gate(device, "cz02")
    print(f"criterion 7: PASS g20={g_eff * 1e3:.2f}MHz tau={spec.duration:.1f}ns "
          f"theta={tomo['theta_rad']:.4f} phi={tomo['phi_rad']:.4f} "
          f"tau*2g={product:.4f}; cz02 unreachable")


def test_criterion_08_crosstalk_inversion_and_compensation():
    ct = load_crosstalk_csv(bundled_path("crosstalk.csv"))
    inv = np.linalg.inv(ct.matrix)
    identity_dev = float(np.max(np.abs(ct.matrix @ inv - np.eye(3))))
    assert identity_dev <= 1e-12

    # simulated verification: command each flux line to a unit target
    # through the compensation and measure what all loops receive
    realized = np.empty((3, 3))
    for k in range(3):
        target = np.eye(3)[k]
        realized[:, k] = ct.matrix @ compensate_crosstalk(ct, target)
    post_dev = float(np.max(np.abs(realized - np.eye(3))))
    assert post_dev <= 0.01
    print(f"criterion 8: PASS inversion dev={identity_dev:.1e} "
          f"post-compensation dev={post_dev:.1e}")


def test_criterion_09_collision_map_recommendation(device):
    p = device_params(device, phic=GATES["iswap"].coupler_bias)
    cmap = sideband_collision_map(p, device.q2)
    rec_mhz = cmap.recommended_min * 1e3
    assert 260.0 <= rec_mhz <= 300.0
    print(f"criterion 9: PASS recommended minimum modulation "
          f"frequency {rec_mhz:.1f} MHz")


def test_criterion_10_property_suites(device, zero_bias_params, rng):
    # propagator unitarity on a strongly modulated pulse
    period = 1.0 / 0.28
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.155, mod_freq=0.28,
                      duration=20 * period)
    prop = propagate(zero_bias_params, pulse, device.q2)
    assert prop.unitarity_defect < 1e-8

    # step-halving convergence of the stepped propagator
    def unitary(m):
        short = FluxPulse(phi_dc=0.0, amplitude=0.155, mod_freq=0.28,
                          duration=8 * period)
        return propagate(zero_bias_params, short, device.q2,
                         dt=period / m).cuts[-1]

    ref = unitary(2048)
    errs = [np.max(np.abs(unitary(m) - ref)) for m in (64, 128, 256)]
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    assert 3.0 < ratios[0] < 5.0
    assert 3.0 < ratios[1] < 5.0

    # PTM of any unitary channel is orthogonal
    for _ in range(10):
        r = ptm_of_unitary(haar_unitary(4, rng))
        assert np.max(np.abs(r.T @ r - np.eye(16))) < 1e-10

    # fSim fit round trip on 100 random angle pairs
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        fit = fit_fsim(qubit_subspace_ptm(fsim_unitary(theta, phi)))
        worst = max(worst,
                    abs(wrap(fit.theta - theta)), abs(wrap(fit.phi - phi)))
    assert worst <= 0.01

    # zero-point identity for all bundled transmons
    from paramres.spectrum import zero_point

    for spec in (device.q1, device.q2, device.coupler):
        n_zpf, phi_zpf = zero_point(spec, 0.1)
        assert n_zpf * phi_zpf == pytest.approx(0.5, abs=1e-12)

    # crosstalk compensation round trip on random well-conditioned matrices
    from paramres.fluxcontrol import CrosstalkMatrix

    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = np.eye(n) + rng.uniform(-0.45, 0.45, size=(n, n))
        np.fill_diagonal(m, 1.0)
        ct = CrosstalkMatrix(matrix=m)
        target = rng.uniform(-0.4, 0.4, size=n)
        assert np.max(np.abs(m @ compensate_crosstalk(ct, target) - target)) < 1e-10

    print(f"criterion 10: PASS unitarity={prop.unitarity_defect:.1e} "
          f"halving ratios=({ratios[0]:.2f}, {ratios[1]:.2f}) "
          f"fsim worst={worst:.2e} rad")
