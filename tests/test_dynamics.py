"""Time-domain propagation against closed-form exchange dynamics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from paramres import dynamics
from paramres.calibration import find_resonance_amplitude
from paramres.device import device_params
from paramres.dynamics import (
    UNITARITY_TOL,
    _decaying_cosine,
    _parameter_series,
    _resonant_traces,
    chevron,
    coupling_vs_bias,
    default_dt,
    fit_exchange,
    propagate,
)
from paramres.effective import build_hamiltonian, exact_g01
from paramres.fluxcontrol import FluxPulse
from paramres.spectrum import DeviceParams

MOD_FREQ = 0.28
PERIOD = 1.0 / MOD_FREQ


def exchange_params(g: float, delta: float = 0.0) -> DeviceParams:
    """Two bare qubits coupled only directly; the coupler is disconnected."""
    return DeviceParams(f1=4.0, f2=4.0 + delta, fc=6.0, eta1=0.2, eta2=0.2,
                        etac=0.1, g1c=0.0, g2c=0.0, g12=g)


def flat_pulse(duration: float, amplitude: float = 0.0,
               mod_freq: float = 0.0) -> FluxPulse:
    return FluxPulse(phi_dc=0.0, amplitude=amplitude, mod_freq=mod_freq,
                     duration=duration)


def exchange_populations(device, g: float, delta: float):
    """Full-model populations of |n1 nc n2>, starting in |100>, with the
    coupler disconnected, over 1.5 exchange periods."""
    prop = propagate(exchange_params(g, delta), flat_pulse(1.5 / (2 * g)),
                     device.q2, initial_state=9, n_samples=300)
    return prop.times, np.abs(prop.trajectory) ** 2


def test_resonant_exchange_matches_analytic(device):
    # the only correction to the rotating-frame result is the tiny
    # Bloch-Siegert shift of the direct coupling
    g = 0.004
    times, pops = exchange_populations(device, g, 0.0)
    analytic = np.sin(2 * np.pi * g * times) ** 2
    assert np.max(np.abs(pops[:, 1] - analytic)) < 1e-4


def test_detuned_exchange_matches_generalized_rabi(device):
    g, delta = 0.004, 0.003
    omega = np.hypot(g, delta / 2.0)
    times, pops = exchange_populations(device, g, delta)
    analytic = (g / omega) ** 2 * np.sin(2 * np.pi * omega * times) ** 2
    assert np.max(np.abs(pops[:, 1] - analytic)) < 1e-4


def test_full_model_reduces_to_exchange_when_couplings_vanish(device):
    # the counter-rotating part of the direct coupling moves population out
    # of the single-excitation pair |001>, |100> only at order (g/2f)^2;
    # a rotating-frame model would leave none
    g = 0.004
    for delta in (0.0, 0.003):
        _, pops = exchange_populations(device, g, delta)
        leak = np.max(np.abs(pops[:, 1] + pops[:, 9] - 1.0))
        assert 1e-7 < leak < 1e-5


def test_static_branch_agrees_with_stepped_propagation(device, zero_bias_params):
    dur = 20 * PERIOD
    static = propagate(zero_bias_params, flat_pulse(dur), device.q2)
    stepped = propagate(zero_bias_params,
                        flat_pulse(dur, amplitude=1e-12, mod_freq=MOD_FREQ),
                        device.q2)
    assert np.max(np.abs(static.unitary - stepped.unitary)) < 1e-8


def test_step_halving_error_ratio_is_second_order(device, zero_bias_params):
    dur = 8 * PERIOD

    def unitary(m):
        prop = propagate(zero_bias_params,
                         flat_pulse(dur, amplitude=0.1546, mod_freq=MOD_FREQ),
                         device.q2, dt=PERIOD / m)
        assert prop.unitarity_defect < UNITARITY_TOL
        return prop.unitary

    ref = unitary(2048)
    errs = [np.max(np.abs(unitary(m) - ref)) for m in (64, 128, 256)]
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_unitary_snapshots_match_truncated_pulses(device):
    p = device_params(device, phic=0.29472)
    dt = PERIOD / 128
    times = [128 * dt, 256 * dt, 512 * dt]
    for amplitude, mod_freq in ((0.154, MOD_FREQ), (0.0, 0.0)):  # modulated, static
        pulse = flat_pulse(512 * dt, amplitude=amplitude, mod_freq=mod_freq)
        prop = propagate(p, pulse, device.q2, dt=dt, unitary_times=times)
        np.testing.assert_allclose(prop.unitary_times, times, atol=1e-12)
        for t, u in zip(prop.unitary_times, prop.unitaries):
            solo = propagate(
                p, flat_pulse(float(t), amplitude=amplitude, mod_freq=mod_freq),
                device.q2, dt=dt)
            assert np.max(np.abs(u - solo.unitary)) < 1e-10


def stepped_propagators(p, q2_pulse, q2_spec, prop):
    """Propagator after each step of prop's midpoint grid, stepped one by one.

    The grid has steps of prop.dt, the last one ending at the pulse
    duration; each step multiplies exp(-2*pi*i*H(t_mid)*dt_k) with H from
    build_hamiltonian at that step's midpoint parameters.
    """
    edges = np.arange(prop.n_steps + 1) * prop.dt
    edges[-1] = q2_pulse.duration
    t_mid = 0.5 * (edges[:-1] + edges[1:])
    series = _parameter_series(p, q2_pulse, q2_spec, t_mid)
    u = np.eye(27, dtype=complex)
    out = np.zeros((prop.n_steps, 27, 27), dtype=complex)
    for k in range(prop.n_steps):
        pk = replace(p, **{key: float(series[key][k]) for key in series})
        u = expm(-2j * np.pi * build_hamiltonian(pk)
                 * (edges[k + 1] - edges[k])) @ u
        out[k] = u
    return edges, out


TIMES = [1.0, 3.1, 10.0, 20.0, 24.0, 25.4]


@pytest.mark.parametrize("q2_pulse, dt, times", [
    # modulated: 7 whole periods plus 5 steps, then a partial step
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=25.4),
     PERIOD / 48, TIMES),
    # DC pulse: dt divides the duration and every step repeats the first
    (FluxPulse(phi_dc=0.0, amplitude=0.05, duration=25.4), PERIOD / 48, TIMES),
    # modulation about a biased q2: f2 and EJ^(1/4) deviate from the DC
    # point with both signs of the flux excursion
    (FluxPulse(phi_dc=0.08, amplitude=0.02, mod_freq=MOD_FREQ, duration=25.4),
     PERIOD / 48, TIMES),
    # 50 steps per period are rounded up to 52, a multiple of 4
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=25.4),
     PERIOD / 50, TIMES),
    # shorter than one period: its steps are prefixes of the period
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=3.3),
     PERIOD / 48, [0.4, 1.0, 2.5, 3.3]),
    # shorter than one step, even than 1e-4 of one: a single partial step
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=0.3 * PERIOD / 48),
     PERIOD / 48, [0.3 * PERIOD / 48]),
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=1e-6),
     PERIOD / 48, [1e-6]),
], ids=["modulated", "dc", "off_sweet_spot", "snapped", "sub_period", "sub_step",
        "tiny"])
def test_period_reuse_matches_direct_stepping(device, q2_pulse, dt, times):
    p = device_params(device, phic=0.29472, phi2=q2_pulse.phi_dc)
    psi = np.zeros(27, dtype=complex)
    psi[9] = 1.0
    prop = propagate(p, q2_pulse, device.q2, dt=dt,
                     initial_state=psi, n_samples=40, unitary_times=times)
    if q2_pulse.mod_freq > 0.0:
        assert round(1.0 / (q2_pulse.mod_freq * prop.dt)) % 4 == 0
    edges, ref = stepped_propagators(p, q2_pulse, device.q2, prop)
    assert np.max(np.abs(prop.unitary - ref[-1])) < 1e-9
    for t, u in zip(prop.unitary_times, prop.unitaries):
        s = int(np.argmin(np.abs(edges - t)))
        assert edges[s] == pytest.approx(t, abs=1e-12)
        assert np.max(np.abs(u - ref[s - 1])) < 1e-9
    steps = [int(np.argmin(np.abs(edges - t))) for t in prop.times]
    assert np.max(np.abs(prop.trajectory - ref[np.array(steps) - 1] @ psi)) < 1e-9


@pytest.mark.parametrize("q2_pulse, quarters", [
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=25.4), 1),
    (FluxPulse(phi_dc=0.08, amplitude=0.02, mod_freq=MOD_FREQ, duration=25.4), 2),
    (FluxPulse(phi_dc=0.0, amplitude=0.05, duration=25.4), None),
], ids=["sweet_spot", "off_sweet_spot", "dc"])
def test_diagonalizations_per_pulse(device, q2_pulse, quarters):
    # one quarter period at a sweet spot, two off it, plus the trailing
    # partial step that 25.4 ns leaves; a DC pulse repeats its one step
    p = device_params(device, phic=0.29472, phi2=q2_pulse.phi_dc)
    prop = propagate(p, q2_pulse, device.q2, dt=PERIOD / 48)
    if quarters is None:
        assert prop.n_diagonalized == 1
    else:
        m = round(1.0 / (q2_pulse.mod_freq * prop.dt))
        assert prop.n_steps * prop.dt > q2_pulse.duration + 1e-9
        assert prop.n_diagonalized == quarters * m // 4 + 1


def test_long_static_pulse_needs_no_per_step_arrays(device, zero_bias_params):
    # 2 us at the default step is ~473k steps; period reuse makes the cost
    # independent of that count
    tracemalloc.start()
    try:
        prop = propagate(zero_bias_params, flat_pulse(2000.0), device.q2,
                         initial_state=9, n_samples=720)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prop.n_steps > 400_000
    assert peak < 5e6
    evals, vecs = np.linalg.eigh(build_hamiltonian(zero_bias_params))
    exact = (vecs * np.exp(-2j * np.pi * evals * 2000.0)) @ vecs.conj().T
    assert np.max(np.abs(prop.unitary - exact)) < 1e-8
    assert prop.times[-1] == 2000.0


def test_dc_pulse_evolves_in_closed_form_from_one_eigendecomposition(
        device, monkeypatch):
    # a DC pulse repeats one step, whose eigenpairs are those of H: the
    # whole trajectory is V exp(-2*pi*i*E*t) V^T psi0, with no Schur form
    import scipy.linalg

    def no_schur(*args, **kwargs):
        raise AssertionError("a DC pulse needs no Schur decomposition")

    monkeypatch.setattr(scipy.linalg, "schur", no_schur)
    p = device_params(device, phic=0.29472)
    psi = np.zeros(27)
    psi[9] = 1.0
    prop = propagate(p, flat_pulse(300.0), device.q2, initial_state=psi,
                     n_samples=720)
    assert prop.n_diagonalized == 1
    assert prop.n_steps > 50_000
    evals, vecs = np.linalg.eigh(build_hamiltonian(p))
    exact = (np.exp(-2j * np.pi * np.multiply.outer(prop.times, evals))
             * (vecs.T @ psi)) @ vecs.T
    assert np.max(np.abs(prop.trajectory - exact)) < 1e-10
    exact_u = (vecs * np.exp(-2j * np.pi * evals * 300.0)) @ vecs.T
    assert np.max(np.abs(prop.unitary - exact_u)) < 1e-10


def test_propagate_validation(device, zero_bias_params):
    with pytest.raises(ValueError, match="duration must be > 0"):
        propagate(zero_bias_params, flat_pulse(0.0), device.q2)
    with pytest.raises(ValueError, match="requires an initial state"):
        propagate(zero_bias_params, flat_pulse(20.0), device.q2, n_samples=50)
    for bad in ([25.0], [np.nan]):
        with pytest.raises(ValueError, match="lie in \\(0, duration\\]"):
            propagate(zero_bias_params, flat_pulse(20.0), device.q2,
                      unitary_times=bad)


def test_default_dt_resolves_fastest_mode(zero_bias_params):
    dt = default_dt(zero_bias_params)
    assert dt == pytest.approx(1.0 / (40.0 * zero_bias_params.fc))


def test_fit_exchange_round_trip():
    t = np.linspace(0.0, 180.0, 420)
    pop = 0.5 - 0.48 * np.exp(-0.004 * t) * np.cos(2 * np.pi * 0.012 * t)
    fit = fit_exchange(t, pop)
    assert fit.g == pytest.approx(0.006, abs=1e-6)
    assert fit.decay == pytest.approx(0.004, rel=1e-3)
    assert fit.residual < 1e-8
    assert fit.n_evaluations <= 15


def test_fit_exchange_evaluates_each_point_once(monkeypatch):
    # the residual and the Jacobian share one model evaluation per point
    points = []

    def counted(x, t):
        points.append(tuple(x))
        return _decaying_cosine(x, t)

    monkeypatch.setattr(dynamics, "_decaying_cosine", counted)
    t = np.linspace(0.0, 180.0, 420)
    for decay in (0.0, 0.004, 0.02):
        fit_exchange(t, 0.5 - 0.48 * np.exp(-decay * t)
                     * np.cos(2 * np.pi * 0.012 * t + 0.3))
    assert len(points) == len(set(points))


def test_fit_exchange_error_paths():
    with pytest.raises(ValueError, match="at least 8 samples"):
        fit_exchange(np.arange(5.0), np.ones(5))
    with pytest.raises(ValueError, match="no oscillation contrast"):
        fit_exchange(np.linspace(0, 100, 50), np.full(50, 0.5))


T_BAD = np.linspace(0.0, 100.0, 50)
POP_BAD = 0.5 - 0.5 * np.cos(2 * np.pi * 0.02 * T_BAD)


@pytest.mark.parametrize("times, pops, match", [
    (T_BAD, np.where(np.arange(50) == 7, np.nan, POP_BAD), "finite"),
    (np.where(np.arange(50) == 7, np.inf, T_BAD), POP_BAD, "finite"),
    (T_BAD[::-1], POP_BAD, "strictly increasing"),
    (np.where(np.arange(50) == 7, T_BAD[6], T_BAD), POP_BAD, "strictly increasing"),
    (T_BAD, POP_BAD[None, :], "1-D times and populations of equal length"),
    (T_BAD[:, None], POP_BAD, "1-D times and populations of equal length"),
    (T_BAD, POP_BAD[:-1], "1-D times and populations of equal length"),
], ids=["nan_population", "inf_time", "reversed_times", "repeated_time",
        "2d_population", "2d_times", "length_mismatch"])
def test_fit_exchange_rejects_bad_input(times, pops, match):
    with pytest.raises(ValueError, match=match):
        fit_exchange(times, pops)


def test_decaying_cosine_jacobian_matches_central_differences():
    t = np.linspace(0.0, 300.0, 200)
    x = np.array([0.45, 0.003, 0.011, 0.7, 0.52])
    _, jac = _decaying_cosine(x, t)
    for j in range(5):
        h = 1e-6 * max(abs(x[j]), 1e-3)
        dx = np.zeros(5)
        dx[j] = h
        numeric = (_decaying_cosine(x + dx, t)[0]
                   - _decaying_cosine(x - dx, t)[0]) / (2 * h)
        np.testing.assert_allclose(jac[:, j], numeric, rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(numeric)))


@pytest.mark.parametrize("phic", [0.0, 0.04])
def test_exchange_fits_converge_on_sweep_traces(device, phic):
    # the slowest oscillation over the nine detunings is the chevron vertex,
    # which runs at the exact single-excitation splitting 2*g
    p_res, _, traces = _resonant_traces(device, phic)
    fits = [fit_exchange(times, pops) for times, pops in traces]
    assert len(fits) == 9
    assert max(f.n_evaluations for f in fits) <= 15
    g_exact = abs(exact_g01(p_res))
    assert abs(min(f.g for f in fits) - g_exact) / g_exact < 0.01


def test_chevron_peaks_at_the_resonant_amplitude(device):
    p = device_params(device, phic=0.29472)
    a_res = find_resonance_amplitude("iswap", device.q2, p, MOD_FREQ)
    amps = a_res + np.linspace(-0.002, 0.002, 5)
    durs = np.arange(20.0, 75.0, 10.0)
    q2_pulse = flat_pulse(durs[-1], amplitude=a_res, mod_freq=MOD_FREQ)
    cm = chevron(p, q2_pulse, device.q2, amps, durs)
    assert cm.populations.shape == (5, 6)
    assert cm.initial == "10" and cm.target == "01"
    assert cm.populations.max() > 0.9
    best_amp, _ = np.unravel_index(cm.populations.argmax(), cm.populations.shape)
    assert best_amp == 2  # interior point, at the analytic resonance


def test_chevron_validation(device, zero_bias_params):
    pulse = flat_pulse(30.0, amplitude=0.1, mod_freq=MOD_FREQ)
    with pytest.raises(ValueError, match="grids must be nonempty"):
        chevron(zero_bias_params, pulse, device.q2, [], [10.0])
    with pytest.raises(ValueError, match="initial state must be"):
        chevron(zero_bias_params, pulse, device.q2, [0.1], [10.0],
                initial="20")
    with pytest.raises(ValueError, match="27x4 isometry"):
        chevron(zero_bias_params, pulse, device.q2, [0.1], [10.0],
                basis=np.eye(4))
    for bad in ([-20.0, 10.0], [-3.3], [0.0], [np.nan, 10.0], [np.inf]):
        with pytest.raises(ValueError, match="durations must be positive and finite"):
            chevron(zero_bias_params, pulse, device.q2, [0.1], bad)


def test_dynamic_coupling_matches_static_prediction_at_one_bias(device):
    g_dyn, g_stat = coupling_vs_bias(device, [0.26])
    assert abs(g_dyn[0] - abs(g_stat[0])) / abs(g_stat[0]) < 0.05


@pytest.mark.parametrize("grid", [[np.nan], [0.1, np.inf], [[0.0, 0.1]]],
                         ids=["nan", "inf", "2d"])
def test_coupling_vs_bias_rejects_bad_grid(device, grid):
    with pytest.raises(ValueError, match="coupler bias"):
        coupling_vs_bias(device, grid)
