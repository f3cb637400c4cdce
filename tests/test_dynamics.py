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
    _half_period,
    _parameter_series,
    _vertex_trace,
    chevron,
    coupling_vs_bias,
    fit_exchange,
    propagate,
    step_error,
)
from paramres.effective import (COMPUTATIONAL_INDICES, DIM, basis_index, build_hamiltonian,
                                dressed_computational_basis)
from paramres.fluxcontrol import FluxPulse
from paramres.spectrum import DeviceParams

MOD_FREQ = 0.28
PERIOD = 1.0 / MOD_FREQ
#: |100>, q1 excited, as the one column propagate evolves
Q1_EXCITED = np.eye(DIM)[:, [basis_index(1, 0, 0)]]


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
    times = np.linspace(0.0, 1.5 / (2 * g), 301)[1:]
    prop = propagate(exchange_params(g, delta), flat_pulse(times[-1]),
                     device.q2, columns=Q1_EXCITED, times=times)
    return times, np.abs(prop.cuts[:, :, 0]) ** 2


Q2_POP = basis_index(0, 0, 1)  # the column of |001> in exchange_populations
Q1_POP = basis_index(1, 0, 0)


def test_resonant_exchange_matches_analytic(device):
    # the only correction to the rotating-frame result is the tiny
    # Bloch-Siegert shift of the direct coupling
    g = 0.004
    times, pops = exchange_populations(device, g, 0.0)
    analytic = np.sin(2 * np.pi * g * times) ** 2
    assert np.max(np.abs(pops[:, Q2_POP] - analytic)) < 1e-4


def test_detuned_exchange_matches_generalized_rabi(device):
    g, delta = 0.004, 0.003
    omega = np.hypot(g, delta / 2.0)
    times, pops = exchange_populations(device, g, delta)
    analytic = (g / omega) ** 2 * np.sin(2 * np.pi * omega * times) ** 2
    assert np.max(np.abs(pops[:, Q2_POP] - analytic)) < 1e-4


def test_full_model_reduces_to_exchange_when_couplings_vanish(device):
    # the counter-rotating part of the direct coupling moves population out
    # of the single-excitation pair |001>, |100> only at order (g/2f)^2;
    # a rotating-frame model would leave none
    g = 0.004
    for delta in (0.0, 0.003):
        _, pops = exchange_populations(device, g, delta)
        leak = np.max(np.abs(pops[:, Q2_POP] + pops[:, Q1_POP] - 1.0))
        assert 1e-7 < leak < 1e-5


def test_static_branch_agrees_with_stepped_propagation(device, zero_bias_params):
    dur = 20 * PERIOD
    static = propagate(zero_bias_params, flat_pulse(dur), device.q2)
    stepped = propagate(zero_bias_params,
                        flat_pulse(dur, amplitude=1e-12, mod_freq=MOD_FREQ),
                        device.q2)
    assert np.max(np.abs(static.cuts[-1] - stepped.cuts[-1])) < 1e-8


def test_step_halving_error_ratio_is_second_order(device, zero_bias_params):
    dur = 8 * PERIOD

    def unitary(m):
        prop = propagate(zero_bias_params,
                         flat_pulse(dur, amplitude=0.1546, mod_freq=MOD_FREQ),
                         device.q2, dt=PERIOD / m)
        assert prop.unitarity_defect < UNITARITY_TOL
        return prop.cuts[-1]

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
        prop = propagate(p, pulse, device.q2, dt=dt, times=times)
        assert prop.cuts.shape == (len(times), DIM, DIM)
        for t, u in zip(times, prop.cuts):
            solo = propagate(
                p, flat_pulse(float(t), amplitude=amplitude, mod_freq=mod_freq),
                device.q2, dt=dt)
            assert np.max(np.abs(u - solo.cuts[-1])) < 1e-10


def stepped_propagators(p, q2_pulse, q2_spec, dt, times):
    """Propagators of q2_pulse cut at each of times, stepped one by one.

    The cut at t takes the floor(t/dt) whole steps of dt and then one
    partial step that ends at t exactly; each step multiplies
    exp(-2*pi*i*H(t_mid)*dt_k) with H from build_hamiltonian at that
    step's midpoint parameters.
    """
    times = np.asarray(times, dtype=float)
    whole = np.floor(times / dt + 1e-9).astype(int)

    def step(t0, t1):
        series = _parameter_series(p, q2_pulse, q2_spec, np.array([0.5 * (t0 + t1)]))
        pk = replace(p, **{key: float(series[key][0]) for key in series})
        return expm(-2j * np.pi * build_hamiltonian(pk) * (t1 - t0))

    u = [np.eye(DIM, dtype=complex)]
    for k in range(whole.max()):
        u.append(step(k * dt, (k + 1) * dt) @ u[-1])
    return np.array([u[s] if t - s * dt < 1e-12 else step(s * dt, t) @ u[s]
                     for s, t in zip(whole, times)])


def test_stepped_propagators_cut_exactly_at_each_time(device):
    # the reference of a cut off the step grid ends at the cut, not at a
    # step boundary: it is the closed form of a static pulse
    p = device_params(device, phic=0.29472)
    pulse = flat_pulse(1.0)
    times = [0.013, 0.37, 1.0]
    evals, vecs = np.linalg.eigh(build_hamiltonian(p))
    for t, u in zip(times, stepped_propagators(p, pulse, device.q2, 0.1, times)):
        exact = (vecs * np.exp(-2j * np.pi * evals * t)) @ vecs.T
        assert np.max(np.abs(u - exact)) < 1e-10


TIMES = [1.0, 3.1, 10.0, 20.0, 24.0, 25.4]


@pytest.mark.parametrize("q", [1, 2, 20])
def test_half_period_prefixes_match_plain_products(rng, q):
    # steps V exp(-i*phi) V^T with V real orthogonal: the mirrored
    # quarter read off the first agrees with multiplying step by step
    d = 14
    steps = []
    for _ in range(q):
        v = np.linalg.qr(rng.normal(size=(d, d)))[0]
        steps.append((v * np.exp(-1j * rng.uniform(0, 2 * np.pi, d))) @ v.T)
    plain = [np.eye(d)]
    for step in steps + steps[::-1]:
        plain.append(step @ plain[-1])
    h = _half_period(np.array(steps), np.empty((2 * q + 1, d, d), dtype=complex))
    assert np.max(np.abs(h - np.array(plain))) <= 1e-13


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
    # shorter than a quarter period (T/4 = 0.89 ns) but longer than one
    # step, at the error-budget step
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=0.5),
     None, [0.1, 0.37, 0.5]),
    # off a sweet spot, ending inside the third quarter, whose prefixes
    # are diagonalized in full
    (FluxPulse(phi_dc=0.08, amplitude=0.02, mod_freq=MOD_FREQ, duration=2.3),
     PERIOD / 48, [0.4, 1.9, 2.3]),
    # shorter than one step, even than 1e-4 of one: a single partial step
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=0.3 * PERIOD / 48),
     PERIOD / 48, [0.3 * PERIOD / 48]),
    (FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=1e-6),
     PERIOD / 48, [1e-6]),
], ids=["modulated", "dc", "off_sweet_spot", "snapped", "sub_period",
        "sub_quarter", "off_sweet_spot_third_quarter", "sub_step", "tiny"])
def test_period_reuse_matches_direct_stepping(device, q2_pulse, dt, times):
    # cuts in reverse, every 7th step boundary, and a repeat; all DIM
    # columns by default, one column with psi
    p = device_params(device, phic=0.29472, phi2=q2_pulse.phi_dc)
    psi = Q1_EXCITED[:, 0].astype(complex)
    step = propagate(p, q2_pulse, device.q2, dt=dt).dt
    cuts = [*times[::-1], *step * np.arange(1, int(q2_pulse.duration / step) + 1, 7),
            times[0]]
    prop = propagate(p, q2_pulse, device.q2, dt=dt, times=cuts)
    kept = propagate(p, q2_pulse, device.q2, dt=dt, columns=psi[:, None], times=cuts)
    if q2_pulse.mod_freq > 0.0:
        assert round(1.0 / (q2_pulse.mod_freq * prop.dt)) % 4 == 0
    assert prop.cuts.shape == (len(cuts), DIM, DIM)
    assert kept.cuts.shape == (len(cuts), DIM, 1)
    ref = stepped_propagators(p, q2_pulse, device.q2, prop.dt, cuts)
    assert np.max(np.abs(prop.cuts - ref)) < 1e-9
    assert np.max(np.abs(kept.cuts[:, :, 0] - ref @ psi)) < 1e-9


@pytest.mark.parametrize("q2_pulse", [
    FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=25.4),
    FluxPulse(phi_dc=0.08, amplitude=0.02, mod_freq=MOD_FREQ, duration=25.4),
    FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=0.5),
    FluxPulse(phi_dc=0.0, amplitude=0.05, duration=25.4),
], ids=["modulated", "off_sweet_spot", "sub_quarter", "static"])
def test_snapshots_off_the_step_grid_are_truncated_pulses(device, q2_pulse):
    # unsorted and repeated requests come back one per request, in order,
    # as U(t) X for X all DIM columns, one column and the 4-column dressed
    # basis
    p = device_params(device, phic=0.29472, phi2=q2_pulse.phi_dc)
    times = np.array([0.77, 0.131, 0.77, 0.4999]) * q2_pulse.duration
    inputs = (np.eye(DIM), np.full((DIM, 1), 1.0 / np.sqrt(DIM)),
              dressed_computational_basis(p))
    props = [propagate(p, q2_pulse, device.q2, columns=x, times=times) for x in inputs]
    off_grid = np.abs(times / props[0].dt - np.round(times / props[0].dt))
    assert np.all(off_grid > 0.01)
    for i, t in enumerate(times):
        solo = propagate(p, replace(q2_pulse, duration=float(t)), device.q2)
        for x, prop in zip(inputs, props):
            assert prop.cuts.shape == (len(times), DIM, x.shape[1])
            assert np.max(np.abs(prop.cuts[i] - solo.cuts[-1] @ x)) <= 1e-10


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


def test_a_cut_at_an_off_grid_duration_diagonalizes_its_partial_step_once(device):
    # 25.4 ns is 7 periods and 7.17 steps of 64 per period: the 16 distinct
    # steps of a quarter period and one partial step, which the cut at
    # the duration takes once
    p = device_params(device, phic=0.29472)
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=25.4)
    prop = propagate(p, pulse, device.q2, dt=PERIOD / 64, times=[25.4])
    assert prop.n_diagonalized == 64 // 4 + 1


@pytest.mark.parametrize("dressed", [False, True], ids=["one_column", "dressed_basis"])
def test_cuts_across_batches_equal_cuts_requested_in_small_chunks(device, dressed):
    # 152 unsorted requests, half of them off the step grid and at least
    # 12 of them repeats, span three batches of cuts; requested 40 at a
    # time, each call takes one batch
    p = device_params(device, phic=0.29472)
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=40.0)
    dt = PERIOD / 64
    rng = np.random.default_rng(11)
    on_grid = dt * rng.integers(1, int(40.0 / dt) + 1, 70)
    off_grid = dt * (rng.integers(0, int(40.0 / dt), 70) + rng.uniform(0.05, 0.95, 70))
    times = np.concatenate([on_grid, off_grid, on_grid[:6], off_grid[:6]])
    rng.shuffle(times)
    columns = dressed_computational_basis(p) if dressed else Q1_EXCITED
    whole = propagate(p, pulse, device.q2, dt=dt, columns=columns, times=times)
    chunks = [propagate(p, pulse, device.q2, dt=dt, columns=columns, times=times[a:a + 40])
              for a in range(0, len(times), 40)]
    assert np.max(np.abs(whole.cuts - np.concatenate([c.cuts for c in chunks]))) < 1e-12
    # the 16 distinct steps of a quarter period, and one partial step per
    # off-grid request, repeats included
    assert whole.n_diagonalized == 64 // 4 + 76


@pytest.mark.parametrize("q2_pulse", [
    FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=MOD_FREQ, duration=25.4),
    FluxPulse(phi_dc=0.08, amplitude=0.02, mod_freq=MOD_FREQ, duration=25.4),
], ids=["sweet_spot", "off_sweet_spot"])
def test_unitarity_drift_of_the_steps_is_caught(device, q2_pulse, monkeypatch):
    # every step scaled by 1 + 1e-6, in quarter 1 and, off a sweet spot,
    # in quarter 3: the period propagator drifts by about 2e-6 per step
    def drifting(*args):
        return [(1.0 + 1e-6) * steps for steps in step_matrices(*args)]

    step_matrices = dynamics._step_matrices
    monkeypatch.setattr(dynamics, "_step_matrices", drifting)
    p = device_params(device, phic=0.29472, phi2=q2_pulse.phi_dc)
    with pytest.raises(ValueError, match="unitarity drift"):
        propagate(p, q2_pulse, device.q2, dt=PERIOD / 48)


def test_long_static_pulse_needs_no_per_step_arrays(device, zero_bias_params):
    # 2 us of a static pulse is one exact step, whatever its duration
    tracemalloc.start()
    try:
        prop = propagate(zero_bias_params, flat_pulse(2000.0), device.q2,
                         columns=Q1_EXCITED, times=np.linspace(0.0, 2000.0, 721)[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prop.n_steps == 1
    assert peak < 5e6
    evals, vecs = np.linalg.eigh(build_hamiltonian(zero_bias_params))
    exact = (vecs * np.exp(-2j * np.pi * evals * 2000.0)) @ vecs.conj().T
    assert np.max(np.abs(prop.cuts[-1] - exact @ Q1_EXCITED)) < 1e-8


def test_modulated_pulse_cost_does_not_grow_with_duration(device):
    # a CZ20-strength pulse at 130 ns and at 20 us (896,000 steps): period
    # reuse diagonalizes and stores one period's steps either way
    p = device_params(device, phic=0.30534)
    runs = []
    for duration in (130.0, 20000.0):
        pulse = FluxPulse(phi_dc=0.0, amplitude=0.3726, mod_freq=MOD_FREQ,
                          duration=duration)
        tracemalloc.start()
        try:
            prop = propagate(p, pulse, device.q2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        runs.append(prop)
    assert runs[1].n_steps == 896_000
    assert runs[0].n_diagonalized == runs[1].n_diagonalized


def test_static_pulse_samples_the_parameter_series_once(device, zero_bias_params,
                                                        monkeypatch):
    # no cut of a static pulse needs a partial step, so only its one
    # eigendecomposition samples the q2 parameters
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return series(*args)

    series = dynamics._parameter_series
    monkeypatch.setattr(dynamics, "_parameter_series", counted)
    propagate(zero_bias_params, flat_pulse(300.0), device.q2, columns=Q1_EXCITED,
              times=np.linspace(0.0, 300.0, 721)[1:])
    assert [len(t) for t in calls] == [1]


def test_dc_pulse_evolves_in_closed_form_from_one_eigendecomposition(
        device, monkeypatch):
    # a DC pulse is one step, whose eigenpairs are those of H: the state
    # at any time is V exp(-2*pi*i*E*t) V^T psi0, with no Schur form
    import scipy.linalg

    def no_schur(*args, **kwargs):
        raise AssertionError("a DC pulse needs no Schur decomposition")

    monkeypatch.setattr(scipy.linalg, "schur", no_schur)
    p = device_params(device, phic=0.29472)
    psi = Q1_EXCITED[:, 0]
    times = 300.0 * np.linspace(0.0, 1.0, 721)[1:] ** 1.5  # irregular
    prop = propagate(p, flat_pulse(300.0), device.q2, columns=psi[:, None],
                     times=times)
    assert prop.n_diagonalized == 1
    assert prop.n_steps == 1
    evals, vecs = np.linalg.eigh(build_hamiltonian(p))
    exact = (np.exp(-2j * np.pi * np.multiply.outer(times, evals))
             * (vecs.T @ psi)) @ vecs.T
    assert np.max(np.abs(prop.cuts[:, :, 0] - exact)) < 1e-10
    exact_u = (vecs * np.exp(-2j * np.pi * evals * 300.0)) @ vecs.T
    assert np.max(np.abs(prop.cuts[-1][:, 0] - exact_u @ psi)) < 1e-10


@pytest.mark.parametrize("columns", [
    (np.eye(DIM)[:, [basis_index(0, 0, 0)]] + Q1_EXCITED) / np.sqrt(2.0),
    np.eye(DIM)[:, [basis_index(0, 0, 0), basis_index(1, 0, 0)]],
], ids=["superposition", "one_column_per_parity"])
def test_static_cuts_of_mixed_parity_columns(device, columns):
    # (|000> + |100>)/sqrt(2) reaches the Floquet modes of both parity
    # blocks; of the columns |000> and |100>, each reaches its own block's
    p = device_params(device, phic=0.29472, phi2=0.1)
    times = 300.0 * np.linspace(0.0, 1.0, 97)[1:] ** 1.5
    prop = propagate(p, flat_pulse(300.0), device.q2, columns=columns, times=times)
    evals, vecs = np.linalg.eigh(build_hamiltonian(p))
    exact = np.array([(vecs * np.exp(-2j * np.pi * evals * t)) @ (vecs.T @ columns)
                      for t in times])
    assert prop.cuts.shape == exact.shape
    assert np.max(np.abs(prop.cuts - exact)) < 1e-10


def test_diagonalizations_count_the_partial_steps_of_cuts(device, monkeypatch):
    # a CZ20-strength pulse whose duration is on its step grid, cut at 10
    # times off it: the 40 distinct steps of a quarter period and one
    # partial step per cut, each sampled once by the parameter series
    sampled = []

    def counted(*args):
        sampled.append(len(args[-1]))
        return series(*args)

    series = dynamics._parameter_series
    monkeypatch.setattr(dynamics, "_parameter_series", counted)
    p = device_params(device, phic=0.30534)
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.3726, mod_freq=MOD_FREQ, duration=130.0)
    dt = dynamics.modulation_step(pulse, device.q2)
    pulse = replace(pulse, duration=dt * round(pulse.duration / dt))
    prop = propagate(p, pulse, device.q2, columns=Q1_EXCITED,
                     times=dt * (500.0 * np.arange(1, 11) + 0.37))
    assert sum(sampled) == 40 + 10
    assert prop.n_diagonalized == sum(sampled)


def test_propagate_validation(device, zero_bias_params):
    with pytest.raises(ValueError, match="duration must be > 0"):
        propagate(zero_bias_params, flat_pulse(0.0), device.q2)
    for bad in ([25.0], [np.nan]):
        with pytest.raises(ValueError, match="lie in \\(0, duration\\]"):
            propagate(zero_bias_params, flat_pulse(20.0), device.q2, times=bad)


@pytest.mark.parametrize("times", [[], [[1.0, 2.0]]], ids=["empty", "2d"])
def test_propagate_rejects_times_that_are_not_a_nonempty_vector(
        device, zero_bias_params, times):
    with pytest.raises(ValueError, match="times must be a nonempty 1-D array"):
        propagate(zero_bias_params, flat_pulse(20.0), device.q2, times=times)


@pytest.mark.parametrize("dt", [0.0, np.nan, np.inf, -0.1])
@pytest.mark.parametrize("mod_freq", [0.0, MOD_FREQ], ids=["static", "modulated"])
def test_propagate_rejects_a_bad_step(device, zero_bias_params, dt, mod_freq):
    pulse = flat_pulse(20.0, amplitude=0.1, mod_freq=mod_freq)
    with pytest.raises(ValueError, match="dt must be finite and > 0"):
        propagate(zero_bias_params, pulse, device.q2, dt=dt)


@pytest.mark.parametrize("columns", [
    np.ones((DIM - 1, 1)) / np.sqrt(DIM - 1),
    np.zeros((DIM, 1)),
    np.full((DIM, 1), np.nan),
    np.full((DIM, 1), np.inf),
    Q1_EXCITED[:, 0],
    np.zeros((DIM, 0)),
    np.eye(DIM)[:, [basis_index(1, 0, 0), basis_index(1, 0, 1)]]
    @ np.array([[1.0, 0.6], [0.0, 0.8]]),  # unit columns
], ids=["short", "zero", "nan", "inf", "vector", "no_column", "non_orthogonal"])
def test_propagate_rejects_bad_columns(device, zero_bias_params, columns):
    with pytest.raises(ValueError, match=f"columns must be a finite {DIM}xk isometry"):
        propagate(zero_bias_params, flat_pulse(20.0), device.q2, columns=columns)


@pytest.mark.parametrize("amplitude, m", [(0.1566, 80), (0.3729, 160)],
                         ids=["iswap", "cz20"])
def test_modulated_step_follows_the_error_budget(device, amplitude, m):
    # the refined gate amplitudes at 0.28 GHz take 80 and 160 steps per
    # period (1/(40*fc) gave 636-648); m is a multiple of 8, so the
    # half-resolution propagation of step_error snaps to exactly m/2
    p = device_params(device, phic=0.29472)
    pulse = FluxPulse(phi_dc=0.0, amplitude=amplitude, mod_freq=MOD_FREQ,
                      duration=30.0)
    prop = propagate(p, pulse, device.q2)
    assert round(PERIOD / prop.dt) == m
    assert dynamics.modulation_step(pulse, device.q2) == prop.dt
    half = propagate(p, pulse, device.q2, dt=2.0 * prop.dt)
    assert round(PERIOD / half.dt) == m // 2


@pytest.mark.parametrize("mod_freq, m", [(0.26, 184), (0.31, 120)])
def test_explicit_dt_of_whole_steps_per_period_snaps_to_them(
        device, zero_bias_params, mod_freq, m):
    # here period / (4 * (period / m)) rounds to an ulp above m/4
    period = 1.0 / mod_freq
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.1, mod_freq=mod_freq, duration=5.0)
    prop = propagate(zero_bias_params, pulse, device.q2, dt=period / m)
    assert round(period / prop.dt) == m


def test_step_error_of_a_static_pulse_vanishes(device, zero_bias_params):
    # a static pulse is exact at any step
    basis = np.eye(DIM)[:, COMPUTATIONAL_INDICES]
    assert step_error(zero_bias_params, flat_pulse(20.0), device.q2, basis) < 1e-12


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


#: the coupler biases of criterion 5 (tests/test_acceptance.py)
SWEEP_BIASES = [0.0, 0.04, 0.17, 0.20, 0.23, 0.26, 0.29]


def exact_vertex_gap(device, phic):
    """The smallest exact |10>/|01> dressed gap over the q2 flux, from a
    bounded search of the static Hamiltonian's eigenvalues in
    [0.105, 0.112] Phi0."""
    from scipy.optimize import minimize_scalar

    def gap(phi2):
        h = build_hamiltonian(device_params(device, phic=phic, phi2=phi2))
        vals, vecs = np.linalg.eigh(h)
        weight = (np.abs(vecs[basis_index(1, 0, 0)]) ** 2
                  + np.abs(vecs[basis_index(0, 0, 1)]) ** 2)
        a, b = np.argsort(weight)[-2:]
        return abs(vals[a] - vals[b])

    res = minimize_scalar(gap, bounds=(0.105, 0.112), method="bounded",
                          options={"xatol": 1e-10})
    assert 0.1085 < res.x < 0.1092  # the vertex, well inside the bounds
    return res.fun


@pytest.mark.parametrize("phic", SWEEP_BIASES)
def test_exchange_fits_converge_on_sweep_traces(device, phic):
    # one trace at the chevron vertex, which runs at the exact
    # single-excitation splitting 2*g
    _, g_vertex, times, pops = _vertex_trace(device, phic)
    fit = fit_exchange(times, pops)
    assert fit.n_evaluations <= 15
    assert abs(fit.g - g_vertex) / g_vertex < 1e-4


def test_coupling_vs_bias_reads_half_the_exact_vertex_gap(device):
    g_dyn, _ = coupling_vs_bias(device, SWEEP_BIASES)
    g_exact = np.array([exact_vertex_gap(device, b) for b in SWEEP_BIASES]) / 2.0
    np.testing.assert_allclose(g_dyn, g_exact, rtol=1e-4, atol=0.0)


def test_coupling_vs_bias_names_a_bias_where_q2_cannot_reach_q1(device):
    # both q2 junctions at 0.8: q2 tops out at 3.43 GHz, below f1 = 3.80 GHz
    squid = device.q2.squid
    weak = replace(device, q2=replace(device.q2, squid=replace(
        squid, ejs=0.8 * squid.ejs, ejl=0.8 * squid.ejl)))
    assert device_params(weak).f2 < device_params(weak).f1 - 0.3
    with pytest.raises(ValueError, match="cannot tune q2 onto q1 at coupler bias 0.29"):
        coupling_vs_bias(weak, [0.29])


def test_coupling_vs_bias_names_the_bias_of_a_failed_fit(device, monkeypatch):
    def no_fit(times, populations):
        raise ValueError("exchange fit did not converge")

    monkeypatch.setattr(dynamics, "fit_exchange", no_fit)
    with pytest.raises(ValueError,
                       match="no exchange oscillation resolved at coupler bias 0.26"):
        coupling_vs_bias(device, [0.26])


def test_vertex_trace_reads_no_second_order_model(device, monkeypatch):
    # The window is centred on the bare crossing: the only device_params
    # calls are the vertex search's and the one at the vertex.
    from paramres import device as device_module

    counts = {"device_params": 0, "static_couplings": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(device_module, "device_params",
                        counted("device_params", device_module.device_params))
    monkeypatch.setattr(dynamics, "static_couplings",
                        counted("static_couplings", dynamics.static_couplings))
    for phic in SWEEP_BIASES:
        counts.update(device_params=0, static_couplings=0)
        _vertex_trace(device, phic)
        assert counts["device_params"] <= 11, phic
        assert counts["static_couplings"] == 0, phic


def test_coupling_vs_bias_names_a_bias_whose_vertex_is_outside_the_window(
        device, monkeypatch):
    # the vertex at bias 0 lies 0.07-0.22 mPhi0 from the bare crossing
    monkeypatch.setattr(dynamics, "_VERTEX_WINDOW", 2e-5)
    with pytest.raises(ValueError, match="no avoided crossing found in sweep "
                                         "window at coupler bias 0.0"):
        coupling_vs_bias(device, [0.0])


def test_chevron_peaks_at_the_resonant_amplitude(device):
    p = device_params(device, phic=0.29472)
    a_res = find_resonance_amplitude("iswap", device.q2, p)
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
    with pytest.raises(ValueError, match=f"{DIM}x4 isometry"):
        chevron(zero_bias_params, pulse, device.q2, [0.1], [10.0],
                basis=np.eye(4))
    for bad in ([-20.0, 10.0], [-3.3], [0.0], [np.nan, 10.0], [np.inf]):
        with pytest.raises(ValueError, match="durations must be positive and finite"):
            chevron(zero_bias_params, pulse, device.q2, [0.1], bad)


@pytest.mark.parametrize("amplitudes, durations", [
    ([0.1], [[5.0, 6.0]]), ([[0.1, 0.2]], [5.0])], ids=["durations", "amplitudes"])
def test_chevron_rejects_a_2d_grid(device, zero_bias_params, amplitudes, durations):
    pulse = flat_pulse(30.0, amplitude=0.1, mod_freq=MOD_FREQ)
    with pytest.raises(ValueError, match="chevron grids must be nonempty 1-D arrays"):
        chevron(zero_bias_params, pulse, device.q2, amplitudes, durations)


def test_dynamic_coupling_matches_static_prediction_at_one_bias(device):
    g_dyn, g_stat = coupling_vs_bias(device, [0.26])
    assert abs(g_dyn[0] - abs(g_stat[0])) / abs(g_stat[0]) < 0.05


@pytest.mark.parametrize("grid", [[np.nan], [0.1, np.inf], [[0.0, 0.1]]],
                         ids=["nan", "inf", "2d"])
def test_coupling_vs_bias_rejects_bad_grid(device, grid):
    with pytest.raises(ValueError, match="coupler bias"):
        coupling_vs_bias(device, grid)
