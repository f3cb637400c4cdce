"""The kept states, the Hamiltonian, and static and flux-modulated
effective couplings."""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jv

from paramres import effective
from paramres.effective import (
    COMPUTATIONAL_INDICES,
    DIM,
    LEVELS,
    NUM_1,
    NUM_2,
    NUM_C,
    PARITY_BLOCKS,
    SIDEBAND_MAX,
    STATES,
    _pair_gap,
    average_and_excursion,
    basis_index,
    build_hamiltonian,
    dressed_computational_basis,
    exact_g01,
    min_gap,
    modulated_couplings,
    numeric_fourier_weights,
    parity_blocks,
    static_couplings,
)
from paramres.fluxcontrol import FluxPulse
from paramres.spectrum import DeviceParams, transition_frequency


def family_params(fc: float, g: float = 0.0923) -> DeviceParams:
    """Resonant qubit pair with a tunable-height coupler and no direct g12."""
    return DeviceParams(f1=3.80, f2=3.80, fc=fc, eta1=0.235, eta2=0.233,
                        etac=0.10, g1c=g, g2c=g, g12=0.0)


def test_basis_index_layout():
    assert DIM == 27
    assert basis_index(0, 0, 0) == 0
    assert basis_index(0, 0, 1) == 1
    assert basis_index(1, 0, 0) == 9
    assert basis_index(2, 2, 2) == 26
    assert COMPUTATIONAL_INDICES == (0, 1, 9, 10)


def test_basis_index_rejects_states_that_are_not_kept():
    # a state outside STATES neither aliases a kept state nor indexes past
    # the end: basis_index(0, 1, 3) once read |020> and (3, 0, 0) read 27
    assert [basis_index(*state) for state in STATES] == list(range(DIM))
    for state in itertools.product(range(-1, LEVELS + 2), repeat=3):
        if state not in STATES:
            with pytest.raises(ValueError, match=re.escape("|%d %d %d> is not one" % state)):
                basis_index(*state)


def test_hamiltonian_diagonal_energies(dispersive_params):
    p = dispersive_params
    h = build_hamiltonian(p)
    assert h[9, 9] == pytest.approx(p.f1)
    assert h[1, 1] == pytest.approx(p.f2)
    assert h[3, 3] == pytest.approx(p.fc)
    assert h[2, 2] == pytest.approx(2 * p.f2 - p.eta2)
    assert h[18, 18] == pytest.approx(2 * p.f1 - p.eta1)
    idx_111 = basis_index(1, 1, 1)
    assert h[idx_111, idx_111] == pytest.approx(p.f1 + p.fc + p.f2)


def test_hamiltonian_is_real_symmetric(dispersive_params):
    h = build_hamiltonian(dispersive_params)
    assert h.shape == (DIM, DIM)
    assert h.dtype == np.float64
    assert np.array_equal(h, h.T)


TOTAL_EXCITATION = NUM_1 + NUM_C + NUM_2

# The product of each mode's lowest _D levels holds every kept state;
# operators built on it by Kronecker products and restricted to STATES
# are the references of the operators that effective reads off STATES.
_D = max(map(max, STATES)) + 1
_KEPT = [int(np.ravel_multi_index(state, (_D,) * 3)) for state in STATES]
_LOWER = np.diag(np.sqrt(np.arange(1.0, _D)), k=1)  # one mode's lowering operator


def kron_op(ops: dict) -> np.ndarray:
    """np.kron of ops[slot] for each mode slot (the identity elsewhere),
    restricted to the kept states."""
    full = [ops.get(slot, np.eye(_D)) for slot in range(3)]
    return np.kron(full[0], np.kron(full[1], full[2]))[np.ix_(_KEPT, _KEPT)]


def exchange_op(slot_a: int, slot_b: int) -> np.ndarray:
    """Rotating-wave exchange a_a^dag a_b + h.c. between two of the modes."""
    term = kron_op({slot_a: _LOWER.T, slot_b: _LOWER})
    return term + term.T


def test_operators_equal_their_kronecker_reference():
    # byte for byte, so a -0.0 where the reference holds +0.0 fails
    num = np.diag(np.arange(float(_D)))
    ladder = np.diag([n * (n - 1) / 2 for n in range(_D)])  # n(n-1)/2, +0.0 at n = 0
    x = _LOWER + _LOWER.T
    for slot, mode in enumerate("1C2"):
        for name, op in ((f"NUM_{mode}", num), (f"P2_{mode}", ladder)):
            ours, reference = getattr(effective, name), np.diag(kron_op({slot: op}))
            assert ours.shape == (DIM,) and ours.tobytes() == reference.tobytes(), name
    for name, slots in (("XX_1C", (0, 1)), ("XX_C2", (1, 2)), ("XX_12", (0, 2))):
        ours, reference = getattr(effective, name), kron_op(dict.fromkeys(slots, x))
        assert ours.shape == (DIM, DIM) and ours.tobytes() == reference.tobytes(), name


def test_parity_blocks_are_the_blocks_of_the_hamiltonian(zero_bias_params):
    # each block, batched over q2 samples, equals that block of
    # build_hamiltonian byte for byte, and H is exactly 0 between parities
    p = zero_bias_params
    f2 = p.f2 + np.linspace(-0.4, 0.05, 7)
    g2c, g12 = (g * np.linspace(0.9, 1.02, 7) for g in (p.g2c, p.g12))
    blocks = list(parity_blocks(p, f2, g2c, g12))
    assert [h.shape for _, h in blocks] == [(7, len(idx), len(idx)) for idx, _ in blocks]
    for parity, (idx, _) in enumerate(blocks):
        assert np.all(TOTAL_EXCITATION[idx] % 2 == parity)
    (even, _), (odd, _) = blocks
    np.testing.assert_array_equal(np.sort(np.concatenate([even, odd])), np.arange(DIM))
    for s in range(len(f2)):
        h = build_hamiltonian(replace(p, f2=f2[s], g2c=g2c[s], g12=g12[s]))
        for idx, block in blocks:
            assert block[s].tobytes() == h[np.ix_(idx, idx)].tobytes()
        assert np.all(h[np.ix_(even, odd)] == 0.0)


@pytest.mark.parametrize("phic", [0.29472, 0.30534], ids=["iswap", "cz20"])
def test_dressed_basis_lies_in_the_parity_block_of_its_state(device, phic):
    # each column is exactly 0 outside the block of its bare state, so a
    # propagation of it evolves one block, and it is the eigenvector of
    # the full H up to phase
    from paramres.device import device_params

    p = device_params(device, phic=phic)
    basis = dressed_computational_basis(p)
    _, vecs = np.linalg.eigh(build_hamiltonian(p))
    for col, index in enumerate(COMPUTATIONAL_INDICES):
        other = PARITY_BLOCKS[1 - int(TOTAL_EXCITATION[index]) % 2]
        assert np.all(basis[other, col] == 0.0)
        v = vecs[:, np.argmax(np.abs(vecs.T @ basis[:, col]))]
        overlap = v @ basis[:, col]
        assert np.max(np.abs(basis[:, col] - overlap / abs(overlap) * v)) < 1e-12


def rotating_wave_part(h: np.ndarray) -> np.ndarray:
    """The entries of H that keep the total excitation number."""
    n = TOTAL_EXCITATION
    return np.where(n[:, None] == n[None, :], h, 0.0)


def test_rwa_conserves_total_excitation(dispersive_params):
    # dropping the counter-rotating terms of the full H leaves exactly the
    # rotating-wave exchange model, which keeps N; the full H does not
    p = dispersive_params
    h_full = build_hamiltonian(p)
    h_rwa = (np.diag(np.diag(h_full)) + p.g1c * exchange_op(0, 1)
             + p.g2c * exchange_op(1, 2) + p.g12 * exchange_op(0, 2))
    np.testing.assert_allclose(rotating_wave_part(h_full), h_rwa, atol=1e-15)
    n_op = np.diag(TOTAL_EXCITATION)
    assert np.max(np.abs(h_rwa @ n_op - n_op @ h_rwa)) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(h_full @ n_op - n_op @ h_full)) > 0.1


def test_counter_rotating_block_only_in_full_model(dispersive_params):
    # the counter-rotating parts of the XX couplings change N by two, so H
    # keeps the parity (-1)^N, which parity_blocks relies on
    h_full = build_hamiltonian(dispersive_params)
    counter = h_full - rotating_wave_part(h_full)
    n = TOTAL_EXCITATION
    assert set(np.abs(n[:, None] - n[None, :])[counter != 0]) == {2.0}
    parity = np.diag((-1.0) ** n)
    assert np.array_equal(h_full @ parity, parity @ h_full)
    pair_up = basis_index(1, 1, 0)  # qubit 1 and coupler excited together
    assert h_full[pair_up, 0] == dispersive_params.g1c
    assert rotating_wave_part(h_full)[pair_up, 0] == 0.0


def test_static_coupling_matches_exact_half_splitting():
    p = family_params(5.90)
    g_sw = static_couplings(p).g01
    g_exact = exact_g01(p)
    assert abs(abs(g_sw) - abs(g_exact)) / abs(g_exact) < 0.01


def test_static_coupling_linear_in_direct_term():
    base = family_params(5.90)
    shifted = DeviceParams(**{**base.__dict__, "g12": 0.0052})
    delta = static_couplings(shifted).g01 - static_couplings(base).g01
    assert delta == pytest.approx(0.0052, rel=1e-12)


def test_exact_g01_requires_a_crossing_in_window():
    # asymmetric dressing shifts the crossing outside a too-narrow sweep
    p = DeviceParams(f1=3.80, f2=3.80, fc=5.90, eta1=0.235, eta2=0.233,
                     etac=0.10, g1c=0.0923, g2c=0.01, g12=0.0)
    with pytest.raises(ValueError, match="no avoided crossing"):
        exact_g01(p, window=0.001)


@pytest.mark.parametrize("window", [(0.105, 0.108), (0.1095, 0.112)],
                         ids=["below", "above"])
def test_min_gap_requires_a_crossing_in_window(device, window):
    # at coupler bias 0.29 the vertex sits at 0.10901 Phi0, outside both
    # windows, so the gap falls all the way to one edge
    from paramres.device import device_params

    with pytest.raises(ValueError, match="no avoided crossing"):
        min_gap(lambda x: device_params(device, phic=0.29, phi2=x), *window, 1e-9)


@pytest.mark.parametrize("phic", [0.0, 0.04, 0.17, 0.20, 0.23, 0.26, 0.29])
def test_pair_gap_equals_the_full_eigensolve_at_the_sweep_vertices(device, phic):
    # the odd parity block holds |10> and |01>; the full DIMxDIM H,
    # diagonalized here, gives the same gap at each criterion-5 vertex.
    # Each eigensolve rounds its eigenvalues by about eps*||H||, which
    # near bias 0 (a gap of 0.6 MHz under levels of 3.8 GHz) exceeds
    # 1e-12 of the gap, so that floor bounds the difference there.
    from paramres.dynamics import _vertex_trace

    p = _vertex_trace(device, phic)[0]
    h = build_hamiltonian(p)
    vals, vecs = np.linalg.eigh(h)
    weight = (np.abs(vecs[basis_index(1, 0, 0)]) ** 2
              + np.abs(vecs[basis_index(0, 0, 1)]) ** 2)
    a, b = np.argsort(weight)[-2:]
    full = abs(vals[a] - vals[b])
    floor = np.finfo(float).eps * np.linalg.norm(h, 2)
    assert _pair_gap(p) == pytest.approx(full, rel=1e-12, abs=floor)


def test_static_couplings_rejects_coupler_resonance():
    p = DeviceParams(f1=3.80, f2=3.86, fc=3.80, eta1=0.235, eta2=0.233,
                     etac=0.10, g1c=0.05, g2c=0.05, g12=0.0)
    with pytest.raises(ValueError, match="coupler resonance"):
        static_couplings(p)


def test_static_couplings_warns_when_barely_dispersive():
    p = DeviceParams(f1=3.80, f2=3.86, fc=4.00, eta1=0.235, eta2=0.233,
                     etac=0.10, g1c=0.08, g2c=0.08, g12=0.0)
    with pytest.warns(UserWarning, match="far from dispersive"):
        static_couplings(p)


def test_fourier_weights_match_bessel_at_small_amplitude(device):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.05, mod_freq=0.25, duration=100.0)
    n, eps, spacing = numeric_fourier_weights(device.q2, pulse)
    assert spacing == 2
    _, f_exc = average_and_excursion(device.q2, pulse)
    bessel = jv(n, f_exc / (2.0 * pulse.mod_freq))
    assert np.max(np.abs(eps - bessel)) < 1e-4
    # stronger drive, slightly looser closed form
    pulse_big = FluxPulse(phi_dc=0.0, amplitude=0.12, mod_freq=0.30,
                          duration=100.0)
    n, eps, _ = numeric_fourier_weights(device.q2, pulse_big)
    _, f_exc = average_and_excursion(device.q2, pulse_big)
    assert np.max(np.abs(eps - jv(n, f_exc / 0.6))) < 1e-3


def test_fourier_weights_are_normalized(device):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.15, mod_freq=0.28, duration=100.0)
    _, eps, _ = numeric_fourier_weights(device.q2, pulse)
    total = np.sum(np.abs(eps) ** 2)
    assert 0.995 < total <= 1.0 + 1e-9


def test_fourier_weights_zero_amplitude_is_delta(device):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.0, mod_freq=0.3, duration=100.0)
    n, eps, _ = numeric_fourier_weights(device.q2, pulse)
    expected = np.zeros_like(eps)
    expected[len(n) // 2] = 1.0
    np.testing.assert_array_equal(eps, expected)


def test_sideband_spacing_convention(device):
    on = FluxPulse(phi_dc=0.0, amplitude=0.02, mod_freq=0.3, duration=50.0)
    half = FluxPulse(phi_dc=0.5, amplitude=0.02, mod_freq=0.3, duration=50.0)
    off = FluxPulse(phi_dc=0.08, amplitude=0.02, mod_freq=0.3, duration=50.0)
    assert numeric_fourier_weights(device.q2, on)[2] == 2
    assert numeric_fourier_weights(device.q2, half)[2] == 2
    assert numeric_fourier_weights(device.q2, off)[2] == 1


def test_modulated_zero_amplitude_reduces_to_static(device, zero_bias_params):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.0, mod_freq=0.3, duration=100.0)
    mc = modulated_couplings(zero_bias_params, pulse, device.q2)
    st = static_couplings(zero_bias_params)
    sb = mc.sideband(0)
    # one formula: the unmodulated n = 0 term is the static coupling
    assert (sb["g01"], sb["g02"], sb["g20"]) == (st.g01, st.g02, st.g20)
    assert mc.f2_exc == 0.0
    assert mc.f2_avg == pytest.approx(zero_bias_params.f2, abs=1e-12)


def test_modulated_sideband_symmetry_at_sweet_spot(device, zero_bias_params):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.10, mod_freq=0.29, duration=100.0)
    mc = modulated_couplings(zero_bias_params, pulse, device.q2)
    # To first order only the 2*f_m harmonic of f2 matters: |eps_-1| = |eps_1|.
    assert abs(mc.sideband(-1)["eps"]) == pytest.approx(
        abs(mc.sideband(1)["eps"]), abs=1e-5)

    # The 4*f_m harmonic c4 interferes with J_2 and breaks the symmetry from
    # n = 2 on.  With f2 - f_avg = c2 cos(4 pi f_m t) + c4 cos(8 pi f_m t),
    # the weights are the two-harmonic (generalized) Bessel sum
    # eps_n = sum_k J_{n-2k}(a) J_k(b), a = c2 / (2 f_m), b = c4 / (4 f_m).
    samples = 4096
    t = np.arange(samples) / (samples * pulse.mod_freq)
    flux = pulse.amplitude * np.sin(2.0 * np.pi * pulse.mod_freq * t)
    harmonics = 2.0 * np.fft.fft(transition_frequency(device.q2, 2.0 * np.pi * flux))
    c2, c4 = harmonics[2] / samples, harmonics[4] / samples
    assert abs(c2.imag) < 1e-12 and abs(c4.imag) < 1e-12
    assert c2.real > 0 and c4.real > 0
    a = c2.real / (2.0 * pulse.mod_freq)
    b = c4.real / (4.0 * pulse.mod_freq)
    k = np.arange(-4, 5)
    for n in (-2, -1, 1, 2):
        oracle = float(np.sum(jv(n - 2 * k, a) * jv(k, b)))
        assert mc.sideband(n)["eps"] == pytest.approx(oracle, abs=1e-7)


def _trapezoid_sidebands(q2_spec, pulse, samples, n_max=5):
    """(f2_avg, f2_exc, eps) from a cumulative trapezoid over one period of
    ``samples`` intervals; eps carries an O(1/samples^2) error."""
    t = np.linspace(0.0, 1.0 / pulse.mod_freq, samples + 1)
    flux = pulse.phi_dc + pulse.amplitude * np.sin(2.0 * np.pi * pulse.mod_freq * t)
    f2 = transition_frequency(q2_spec, 2.0 * np.pi * flux)
    h = t[1] - t[0]
    f_avg = h * (f2.sum() - 0.5 * (f2[0] + f2[-1])) * pulse.mod_freq
    df = f2 - f_avg
    theta = 2.0 * np.pi * np.concatenate(([0.0], np.cumsum(0.5 * h * (df[1:] + df[:-1]))))
    harmonics = np.fft.ifft(np.exp(-1j * theta[:-1]))
    spacing = 2 if pulse.phi_dc == 0.0 else 1
    coeffs = np.fft.fft(f2[:-1]) / samples
    n = np.arange(-n_max, n_max + 1)
    return f_avg, 2.0 * abs(coeffs[2]), harmonics[(n * spacing) % samples]


@pytest.mark.parametrize("amplitude, mod_freq, phi_dc", [
    (0.1545, 0.30, 0.0), (0.3728, 0.28, 0.0), (0.45, 0.05, 0.0),
    (0.2, 0.28, 0.1), (0.45, 0.01, 0.0)])
def test_sideband_weights_match_an_extrapolated_trapezoid(device, amplitude,
                                                          mod_freq, phi_dc):
    # the trapezoid's phase error is O(h^2), so (4 E(h/2) - E(h))/3 at
    # 2^15 and 2^16 samples leaves O(h^4), far below the tolerance
    pulse = FluxPulse(phi_dc=phi_dc, amplitude=amplitude, mod_freq=mod_freq,
                      duration=100.0)
    coarse = _trapezoid_sidebands(device.q2, pulse, 2 ** 15)
    fine = _trapezoid_sidebands(device.q2, pulse, 2 ** 16)
    eps_oracle = (4.0 * fine[2] - coarse[2]) / 3.0
    n, eps, _ = numeric_fourier_weights(device.q2, pulse)
    assert np.max(np.abs(eps - eps_oracle)) <= 1e-11
    f_avg, f_exc = average_and_excursion(device.q2, pulse)
    assert abs(f_avg - fine[0]) <= 1e-11
    assert abs(f_exc - fine[1]) <= 1e-11


def test_modulated_couplings_samples_the_band_once(device, zero_bias_params,
                                                  monkeypatch):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.10, mod_freq=0.29, duration=100.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return transition_frequency(*args)

    monkeypatch.setattr("paramres.effective.transition_frequency", counted)
    mc = modulated_couplings(zero_bias_params, pulse, device.q2)
    assert len(calls) == 1
    # the one sampling gives what the two public calculations give
    assert (mc.f2_avg, mc.f2_exc) == average_and_excursion(device.q2, pulse)
    np.testing.assert_array_equal(mc.eps, numeric_fourier_weights(device.q2, pulse)[1])


def test_sideband_out_of_range(device, zero_bias_params):
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.05, mod_freq=0.3, duration=100.0)
    mc = modulated_couplings(zero_bias_params, pulse, device.q2)
    np.testing.assert_array_equal(mc.n, np.arange(-SIDEBAND_MAX, SIDEBAND_MAX + 1))
    assert mc.sideband(SIDEBAND_MAX)["n"] == SIDEBAND_MAX
    for n in (-SIDEBAND_MAX - 1, SIDEBAND_MAX + 1):
        with pytest.raises(IndexError, match="outside computed range"):
            mc.sideband(n)


def test_modulated_couplings_guards_coupler_collision(device, zero_bias_params):
    probe = FluxPulse(phi_dc=0.0, amplitude=0.04, mod_freq=0.3, duration=100.0)
    f_avg, _ = average_and_excursion(device.q2, probe)
    fp = (zero_bias_params.fc - f_avg) / 2.0  # parks sideband n=1 on the coupler
    collide = FluxPulse(phi_dc=0.0, amplitude=0.04, mod_freq=fp,
                        duration=100.0)
    with pytest.raises(ValueError, match="resonant with the coupler"):
        modulated_couplings(zero_bias_params, collide, device.q2)


def test_average_and_excursion_dc_limits(device):
    flat = FluxPulse(phi_dc=0.06, amplitude=0.0, mod_freq=0.3,
                     duration=50.0)
    f_avg, f_exc = average_and_excursion(device.q2, flat)
    assert f_exc == 0.0
    assert f_avg == pytest.approx(
        float(transition_frequency(device.q2, 2 * np.pi * 0.06)), abs=1e-12)
    # with no modulation frequency the amplitude acts as a dc offset
    step = FluxPulse(phi_dc=0.04, amplitude=0.02, mod_freq=0.0,
                     duration=50.0)
    f_avg, f_exc = average_and_excursion(device.q2, step)
    assert f_exc == 0.0
    assert f_avg == pytest.approx(
        float(transition_frequency(device.q2, 2 * np.pi * 0.06)), abs=1e-12)


def test_excursion_scales_quadratically_at_sweet_spot(device):
    def exc(amp):
        pulse = FluxPulse(phi_dc=0.0, amplitude=amp, mod_freq=0.3,
                          duration=50.0)
        return average_and_excursion(device.q2, pulse)[1]

    ratio = exc(0.06) / exc(0.03)
    assert ratio == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("amplitude", [0.10, 0.157, 0.373])
def test_average_frequency_does_not_depend_on_the_modulation_frequency(device,
                                                                       amplitude):
    # fbar is a period average of the flux waveform, so calibration reads
    # it from a probe pulse at one fixed frequency (1 GHz)
    from paramres.calibration import sweet_spot_pulse

    fbar = [average_and_excursion(device.q2, sweet_spot_pulse(amplitude, f))[0]
            for f in (0.1, 0.28, 0.3, 0.5, 1.0)]
    assert max(fbar) - min(fbar) <= 1e-14
