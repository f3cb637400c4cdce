"""Gate specs, resonance placement, collision maps, and the refine search."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from paramres import calibration
from paramres.calibration import (
    AMPLITUDE_WINDOW,
    DEFAULT_MOD_FREQ,
    GATES,
    GUARD_BAND,
    CalibrationError,
    GateSpec,
    calibrate_gate,
    find_resonance_amplitude,
    gate_block,
    gate_pulse,
    load_gatespec,
    operating_point,
    set_duration,
    sideband_collision_map,
)
from paramres.device import device_params
from paramres.dynamics import (STEP_ERROR_BUDGET, ChevronMap, chevron, propagate,
                               step_error)
from paramres.effective import (COMPUTATIONAL_INDICES, COMPUTATIONAL_LABELS, DIM,
                                PARITY_BLOCKS, average_and_excursion,
                                dressed_computational_basis)
from paramres.fluxcontrol import instantaneous_flux
from paramres.tomography import (average_fidelity, extract_virtual_z, fit_fsim,
                                 fsim_unitary, qubit_subspace_ptm, virtual_z_correct)

MOD_FREQ = 0.28


def iswap_spec(**overrides) -> GateSpec:
    base = dict(kind="iswap", amplitude=0.155, mod_freq=MOD_FREQ,
                duration=55.0, coupler_bias=GATES["iswap"].coupler_bias)
    base.update(overrides)
    return GateSpec(**base)


def test_gate_spec_validation():
    assert tuple(GATES) == ("iswap", "cz20")
    with pytest.raises(ValueError, match=r"^kind must be one of \('iswap', 'cz20'\), "
                                         r"got 'bell'$"):
        iswap_spec(kind="bell")
    with pytest.raises(ValueError, match="duration"):
        iswap_spec(duration=0.0)
    with pytest.raises(ValueError, match="amplitude"):
        iswap_spec(amplitude=-0.1)
    with pytest.raises(ValueError, match="mod_freq must be positive"):
        iswap_spec(mod_freq=0.0)
    with pytest.raises(ValueError, match="exceeds the 1 kHz tolerance"):
        iswap_spec(resonance_residual=5e-6)


def test_gate_spec_dict_round_trip():
    spec = iswap_spec(virtual_z=(0.3, -0.2), resonance_residual=2e-7)
    again = GateSpec.from_dict(spec.to_dict())
    assert again == spec
    d = spec.to_dict()
    d.pop("kind")
    with pytest.raises(ValueError, match="missing field"):
        GateSpec.from_dict(d)


@pytest.mark.parametrize("key,value,message", [
    ("virtual_z_rad", "12", "'virtual_z_rad': not a list: '12'"),
    ("virtual_z_rad", [0.1, "0.2"], "'virtual_z_rad': not a number: '0.2'"),
    ("virtual_z_rad", [0.1, True], "'virtual_z_rad': not a number: True"),
    ("virtual_z_rad", [0.1], "virtual_z needs exactly two angles"),
    ("amplitude_phi0", True, "'amplitude_phi0': not a number: True"),
    ("duration_ns", "55.0", "'duration_ns': not a number: '55.0'"),
    ("mod_freq_ghz", None, "'mod_freq_ghz': not a number: None"),
    ("coupler_bias_phi0", [0.3], "'coupler_bias_phi0': not a number: [0.3]"),
    ("resonance_residual_ghz", "0", "'resonance_residual_ghz': not a number: '0'"),
    ("duration_ns", 10**400, "'duration_ns': out of range"),
], ids=["string_virtual_z", "string_angle", "bool_angle", "one_angle",
        "bool_amplitude", "string_duration", "null_mod_freq", "list_bias",
        "string_residual", "huge_duration"])
def test_gate_spec_from_dict_requires_json_numbers(key, value, message):
    d = iswap_spec().to_dict()
    d[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        GateSpec.from_dict(d)


def test_gate_spec_from_dict_reports_the_first_faulty_field():
    # fields are read in field order: kind, the four required numbers,
    # virtual_z, then the optional resonance residual
    d = {**iswap_spec().to_dict(), "amplitude_phi0": "a", "virtual_z_rad": [0, "z"],
         "resonance_residual_ghz": "r"}
    for key in ("amplitude_phi0", "virtual_z_rad", "resonance_residual_ghz"):
        with pytest.raises(ValueError, match=f"^gate spec field '{key}': not a number"):
            GateSpec.from_dict(d)
        d[key] = [0.0, 0.0] if key == "virtual_z_rad" else 0.0
    d.pop("kind")
    with pytest.raises(ValueError, match="^gate spec is missing field 'kind'$"):
        GateSpec.from_dict({**d, "duration_ns": "d"})


def test_gate_spec_from_dict_accepts_integers():
    d = {**iswap_spec().to_dict(), "duration_ns": 55, "virtual_z_rad": [0, 1]}
    spec = GateSpec.from_dict(d)
    assert spec.duration == 55.0 and spec.virtual_z == (0.0, 1.0)


def test_gatespec_file_round_trip(tmp_path):
    # the CLI writes the spec's fields beside its run metadata
    spec = iswap_spec(virtual_z=(0.11, 2.4))
    path = tmp_path / "iswap.json"
    path.write_text(json.dumps({**spec.to_dict(), "meta": {"cooldown": 7}}))
    assert load_gatespec(path) == spec


def test_gate_pulse_has_no_dc_offset_or_ramp():
    pulse = gate_pulse(iswap_spec())
    assert pulse.phi_dc == 0.0
    assert instantaneous_flux(pulse, 0.0) == 0.0  # continuous turn-on
    assert pulse.amplitude == 0.155
    assert pulse.mod_freq == MOD_FREQ
    assert pulse.duration == 55.0


def test_set_duration_quarter_and_half_periods():
    assert set_duration("iswap", 4.5e-3) == pytest.approx(1.0 / (4.0 * 4.5e-3))
    assert set_duration("cz20", 4.0e-3) == pytest.approx(1.0 / (2.0 * 4.0e-3))
    with pytest.raises(ValueError, match="must be positive"):
        set_duration("iswap", 0.0)
    with pytest.raises(ValueError, match="unknown gate kind"):
        set_duration("swap", 4e-3)


def test_resonance_amplitude_places_average_frequency(device):
    p = device_params(device, phic=GATES["iswap"].coupler_bias)
    amp = find_resonance_amplitude("iswap", device.q2, p)
    assert 0.0 < amp < 0.45
    from paramres.fluxcontrol import FluxPulse

    probe = FluxPulse(phi_dc=0.0, amplitude=amp, mod_freq=MOD_FREQ,
                      duration=50.0)
    f_avg, _ = average_and_excursion(device.q2, probe)
    assert f_avg == pytest.approx(p.f1, abs=1e-9)


def test_resonance_amplitude_unreachable_target(device):
    p = device_params(device, phic=GATES["cz20"].coupler_bias)
    with pytest.raises(ValueError, match="resonance unreachable"):
        find_resonance_amplitude("cz02", device.q2, p)


@pytest.mark.parametrize("kind,g_target", [("iswap", 4.5e-3), ("cz20", 4.03e-3)],
                         ids=["iswap", "cz20"])
def test_default_coupler_biases_give_documented_couplings(device, kind, g_target):
    # the targets stated with DEFAULT_COUPLER_BIAS, to 5 kHz
    key = {"iswap": "g01", "cz20": "g20"}[kind]
    _, _, mc, tau = operating_point(device, kind, GATES[kind].coupler_bias,
                                    DEFAULT_MOD_FREQ[kind])
    g = abs(mc.sideband(0)[key])
    assert g == pytest.approx(g_target, abs=5e-6)
    assert tau == set_duration(kind, g)


def test_collision_map_recommendation(device):
    p = device_params(device, phic=GATES["iswap"].coupler_bias)
    cmap = sideband_collision_map(p, device.q2)
    assert cmap.guard_band == GUARD_BAND == 0.020
    assert sorted(cmap.worst) == ["cz02", "cz20", "iswap"]
    worst = max(cmap.worst.values())
    assert cmap.recommended_min == pytest.approx(worst + 0.020, abs=1e-12)
    # margin is positive above the recommendation and negative below it
    assert cmap.margin(cmap.recommended_min + 0.01) > 0
    assert cmap.margin(cmap.recommended_min - 0.01) < 0


def dense_collision_max(p, q2_spec) -> float:
    """The largest n = -2 collision over a 48-amplitude grid from 0 to the
    amplitude where fbar meets the floor 30 MHz below f1 - eta1, or to
    the top of the amplitude range when modulation cannot reach it."""
    from scipy.optimize import brentq

    def fbar(a):
        return average_and_excursion(q2_spec, calibration.sweet_spot_pulse(a, 1.0))[0]

    a_max = calibration._AMPLITUDE_MAX
    floor = p.f1 - p.eta1 - 0.030
    edge = a_max
    if fbar(a_max) <= floor <= fbar(0.0):
        edge = brentq(lambda a: fbar(a) - floor, 0.0, a_max, xtol=1e-12)
    f = np.array([fbar(a) for a in np.linspace(0.0, edge, 48)])
    return max(np.abs(f - target).max() / 2.0
               for target in (p.f1, p.f1 - p.eta1, p.f1 + p.eta2))


def scaled_q2(device, ejs: float, ejl: float):
    """q2 with its junction energies scaled by (ejs, ejl)."""
    squid = device.q2.squid
    return replace(device.q2, squid=replace(squid, ejs=ejs * squid.ejs,
                                            ejl=ejl * squid.ejl))


@pytest.mark.parametrize("guard_band", [0.0, 0.02])
@pytest.mark.parametrize("q2", ["bundled", "below_floor", "above_floor"])
def test_collision_limit_equals_the_dense_map(device, q2, guard_band):
    # The limit read from the two ends of the amplitude range equals the
    # largest collision of a dense amplitude grid at several coupler biases:
    # for the bundled q2, for a q2 whose band tops out below the floor
    # (junctions at 0.8) and for one whose modulation cannot pull fbar
    # down to the floor (a strongly asymmetric SQUID).
    q2_spec = {"bundled": device.q2,
               "below_floor": scaled_q2(device, 0.8, 0.8),
               "above_floor": scaled_q2(device, 0.1, 1.3)}[q2]
    for phic in (0.0, 0.17, GATES["iswap"].coupler_bias, GATES["cz20"].coupler_bias):
        p = device_params(device, phic=phic)
        cmap = sideband_collision_map(p, q2_spec, guard_band=guard_band)
        assert cmap.recommended_min == pytest.approx(
            dense_collision_max(p, q2_spec) + guard_band, abs=1e-12)


def test_collision_limit_reads_two_band_averages(device, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return band(*args)

    band = calibration.average_and_excursion
    monkeypatch.setattr(calibration, "average_and_excursion", counted)
    p = device_params(device, phic=GATES["cz20"].coupler_bias)
    sideband_collision_map(p, device.q2)
    assert len(calls) <= 2


def test_collision_map_rejects_negative_guard_band(device, zero_bias_params):
    for guard_band in (-0.001, float("nan")):
        with pytest.raises(ValueError, match=f"guard band must be >= 0, got {guard_band}"):
            sideband_collision_map(zero_bias_params, device.q2, guard_band=guard_band)


def test_collision_map_rejects_an_infinite_guard_band(device, zero_bias_params):
    # an infinite limit would reach the report as a non-JSON Infinity
    with pytest.raises(ValueError, match="guard band must be finite, got inf"):
        sideband_collision_map(zero_bias_params, device.q2, guard_band=math.inf)
    with pytest.raises(CalibrationError, match="collision: guard band must be finite"):
        calibrate_gate(device, "iswap", guard_band=math.inf, refine=False)


XATOL = calibration._AMPLITUDE_XATOL


def transfer_row(peak_amp, durs=np.arange(20.0, 60.01, 0.25)):
    """One-amplitude transfer chevrons with a Lorentzian peak at peak_amp,
    full at 40 ns."""
    def row(a):
        lorentz = 1.0 / (1.0 + ((a - peak_amp) / 0.002) ** 2)
        pops = lorentz * np.sin(np.pi * durs / 80.0) ** 2
        return ChevronMap(amplitudes=np.array([a]), durations=durs,
                          populations=pops[None, :], initial="10", target="01")
    return row


def test_search_finds_an_off_grid_transfer_peak():
    peak = 0.155 + 0.0023456
    amplitude, duration, rows = calibration._search_chevron(transfer_row(peak), 0.155)
    assert abs(amplitude - peak) <= 2 * XATOL
    assert duration == 40.0
    assert rows <= 12


def test_search_on_a_return_row_takes_the_revival_after_the_dip():
    # |11> return population of a detuned exchange: full on center_line,
    # where it dips to zero at 60 ns and revives at 120 ns
    center_line = 0.372 - 0.0031
    durs = np.arange(20.0, 181.0, 10.0)

    def row(a):
        rate = np.sqrt(1.0 + ((a - center_line) / 0.01) ** 2)
        pops = 1.0 - np.sin(np.pi * rate * durs / 120.0) ** 2 / rate ** 2
        return ChevronMap(amplitudes=np.array([a]), durations=durs,
                          populations=pops[None, :], initial="11", target="11")

    amplitude, duration, _ = calibration._search_chevron(row, 0.372)
    assert abs(amplitude - center_line) <= 2 * XATOL
    assert duration == 120.0


def test_search_raises_at_a_window_edge(device, monkeypatch):
    with pytest.raises(ValueError, match="on the edge of the search window"):
        calibration._search_chevron(transfer_row(0.155 + 1.5 * AMPLITUDE_WINDOW), 0.155)
    # an on-resonance peak whose transfer still grows at the last duration
    short = transfer_row(0.155, durs=np.arange(20.0, 35.01, 0.25))
    with pytest.raises(ValueError, match="on the edge of the search window"):
        calibration._search_chevron(short, 0.155)
    # inside calibrate_gate the edge is a chevron-stage failure
    monkeypatch.setattr(calibration, "chevron", lambda p, pulse, q2, amps, durs, **kw:
                        transfer_row(10.0, durs)(amps[0]))
    with pytest.raises(CalibrationError, match="edge of the search window") as err:
        calibrate_gate(device, "iswap")
    assert err.value.stage == "chevron"


@pytest.fixture(scope="module")
def default_calibrations(device):
    """{kind: (spec, report, chevron rows, trim propagations)} of the
    default calibrations."""
    out = {}
    for kind in GATES:
        rows, trims = [], []

        def snapshots(*args, **kw):
            prop = propagate(*args, **kw)
            if np.shape(kw.get("columns")) == (DIM, 4):  # the dressed basis
                trims.append(prop)
            return prop

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(calibration, "chevron",
                       lambda *args, **kw: rows.append(chevron(*args, **kw)) or rows[-1])
            mp.setattr(calibration, "propagate", snapshots)
            spec, report = calibrate_gate(device, kind)
        out[kind] = (spec, report, rows, trims)
    return out


@pytest.mark.parametrize("kind", ["iswap", "cz20"])
def test_refine_counts_its_chevron_rows(default_calibrations, kind):
    _, report, rows, _ = default_calibrations[kind]
    assert report["refine"]["chevron_rows"] == len(rows)
    assert len(rows) <= 12


def test_dressed_cz20_row_reads_exact_cuts(device, default_calibrations):
    # the row at the refined amplitude is the |11> return population of
    # the truncated gate pulse at each of its durations, with no resampling
    spec, _, rows, _ = default_calibrations["cz20"]
    (row,) = [r for r in rows if r.amplitudes[0] == spec.amplitude]
    p = device_params(device, phic=spec.coupler_bias)
    psi = dressed_computational_basis(p)[:, COMPUTATIONAL_LABELS.index("11")]
    for t, pop in zip(row.durations, row.populations[0]):
        u = propagate(p, replace(gate_pulse(spec), duration=float(t)), device.q2).cuts[-1]
        assert abs(pop - abs(psi.conj() @ u @ psi) ** 2) <= 1e-10


@pytest.mark.parametrize("kind, parity", [("iswap", 1), ("cz20", 0)])
def test_a_dressed_chevron_row_evolves_one_parity_block(device, default_calibrations,
                                                        monkeypatch, kind, parity):
    # the prepared dressed |10> (odd) or |11> (even) reaches one parity
    # block, so its row diagonalizes that block's steps alone; the dressed
    # 4-column trim reaches both.  The row reads what an evolution of all
    # DIM columns, projected the same way, reads.
    spec, _, rows, _ = default_calibrations[kind]
    gate = GATES[kind]
    (row,) = [r for r in rows if r.amplitudes[0] == spec.amplitude]
    p = device_params(device, phic=spec.coupler_bias)
    basis = dressed_computational_basis(p)
    init, target = (basis[:, COMPUTATIONAL_LABELS.index(label)]
                    for label in (gate.prepared, gate.recorded))
    prepared = COMPUTATIONAL_INDICES[COMPUTATIONAL_LABELS.index(gate.prepared)]
    assert prepared in PARITY_BLOCKS[parity]
    sizes = set()
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.add(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    chev = chevron(p, gate_pulse(spec), device.q2, row.amplitudes, row.durations,
                   initial=gate.prepared, basis=basis)
    assert sizes == {len(PARITY_BLOCKS[parity])}
    sizes.clear()
    propagate(p, gate_pulse(spec), device.q2, columns=basis, times=[spec.duration])
    assert sizes == {len(idx) for idx in PARITY_BLOCKS}
    monkeypatch.undo()
    pulse = replace(gate_pulse(spec), duration=float(row.durations.max()))
    full = propagate(p, pulse, device.q2, columns=np.eye(DIM), times=row.durations)
    assert np.max(np.abs(np.abs(target.conj() @ full.cuts @ init) ** 2
                         - chev.populations[0])) <= 1e-12


@pytest.mark.parametrize("kind", ["iswap", "cz20"])
def test_refined_amplitude_is_a_local_optimum_of_the_chevron(
        device, default_calibrations, kind):
    # the largest transfer (iSWAP) or the deepest |11> dip (CZ20) over the
    # refinement durations is no better 0.1 mPhi0 to either side
    spec, report, _, _ = default_calibrations[kind]
    gate = GATES[kind]
    p, _, _, tau = operating_point(device, kind, gate.coupler_bias, gate.mod_freq)
    start, stop, step = gate.duration_window
    chev = chevron(p, gate_pulse(spec), device.q2, spec.amplitude + np.array(
                       [-1e-4, 0.0, 1e-4]), np.arange(start * tau, stop * tau, step),
                   initial=gate.prepared, basis=dressed_computational_basis(p))
    cost = (-chev.populations.max(axis=1) if gate.prepared != gate.recorded
            else chev.populations.min(axis=1))
    assert cost[1] <= min(cost[0], cost[2])
    if kind == "cz20":  # the dressed-energy root (ROADMAP.md, item 2)
        assert report["refine"]["amplitude_shift_phi0"] == pytest.approx(
            -4.25e-3, abs=1e-4)


@pytest.mark.parametrize("kind", ["iswap", "cz20"])
def test_report_scores_the_gate_unitary(device, default_calibrations, kind):
    # the trim cuts the calibrated gate's own block, at its step, bit for bit
    spec, report, _, (trim,) = default_calibrations[kind]
    assert trim.cuts.shape == ({"iswap": 179, "cz20": 359}[kind], DIM, 4)
    m = gate_block(device, spec)
    target = fsim_unitary(*GATES[kind].fsim)
    z1, z2 = extract_virtual_z(m, target)
    corrected = qubit_subspace_ptm(virtual_z_correct(m, z1, z2))
    fit = fit_fsim(corrected)
    tomo = report["tomography"]
    scores = {"f_avg": average_fidelity(corrected, qubit_subspace_ptm(target)),
              "theta_rad": fit.theta, "phi_rad": fit.phi, "leakage": corrected.leakage}
    for key, value in scores.items():
        assert tomo[key] == value, key
    assert tomo["virtual_z_rad"] == [z1, z2]
    assert spec.virtual_z == (z1, z2)
    p = device_params(device, phic=spec.coupler_bias)
    assert tomo["dt_ns"] == propagate(p, gate_pulse(spec), device.q2).dt


def gate_step_error(device, spec) -> float:
    """max|U B - U_ref B| of the gate at its default step, against 2048
    steps per period, on the dressed computational columns B."""
    p = device_params(device, phic=spec.coupler_bias)
    basis = dressed_computational_basis(p)
    pulse = gate_pulse(spec)
    ref = propagate(p, pulse, device.q2, dt=1.0 / (2048 * spec.mod_freq)).cuts[-1]
    return float(np.max(np.abs((propagate(p, pulse, device.q2).cuts[-1] - ref) @ basis)))


@pytest.mark.parametrize("kind, mod_freq", [
    ("iswap", 0.28), ("iswap", 0.30), ("cz20", 0.27), ("cz20", 0.2725), ("cz20", 0.28),
    ("cz20", 0.29)])
def test_calibrated_gate_steps_within_the_error_budget(device, default_calibrations,
                                                        kind, mod_freq):
    if mod_freq == GATES[kind].mod_freq:
        spec = default_calibrations[kind][0]
    else:
        spec, _ = calibrate_gate(device, kind, mod_freq=mod_freq)
    assert gate_step_error(device, spec) <= STEP_ERROR_BUDGET


@pytest.mark.parametrize("kind", ["iswap", "cz20"])
def test_step_error_estimates_the_reference_error(device, default_calibrations, kind):
    spec = default_calibrations[kind][0]
    p = device_params(device, phic=spec.coupler_bias)
    estimate = step_error(p, gate_pulse(spec), device.q2, dressed_computational_basis(p))
    error = gate_step_error(device, spec)
    assert 0.5 * error <= estimate <= 2.0 * error


def test_coupling_stage_ignores_sidebands_of_other_couplings(device):
    # at 0.2725 GHz the n = 2 sideband of g02 sits within 1 MHz of the
    # coupler; CZ20 drives g20, so only g20's sidebands may stop it
    spec, report = calibrate_gate(device, "cz20", mod_freq=0.2725)
    assert report["coupling"]["g_eff_ghz"] == pytest.approx(4.0e-3, abs=0.5e-3)
    assert spec.mod_freq == 0.2725
    assert report["tomography"]["warnings"] == []


def test_coupling_stage_refuses_a_resonant_sideband_of_the_gate_coupling(device):
    gate = GATES["cz20"]
    p, _, mc, _ = operating_point(device, "cz20", gate.coupler_bias, gate.mod_freq)
    # sideband n = 2 sits 2 * 2 * f_m below fbar at a sweet spot
    collide = (p.fc - mc.f2_avg) / 4.0
    with pytest.raises(CalibrationError, match="sideband n=2 of g01 and g20 is resonant") as err:
        operating_point(device, "cz20", gate.coupler_bias, collide)
    assert err.value.stage == "coupling"


@pytest.mark.parametrize("offset_mhz", [-5, -3, 3, 5])
def test_cz20_meets_criterion_7_off_the_default_frequency(device, offset_mhz):
    spec, report = calibrate_gate(device, "cz20", mod_freq=0.28 + offset_mhz * 1e-3)
    assert report["coupling"]["g_eff_ghz"] == pytest.approx(4.0e-3, abs=0.5e-3)
    assert 0.8 <= spec.duration / 124.0 <= 1.2
    assert report["consistency"]["duration_coupling_product"] == pytest.approx(
        1.0, abs=0.05)
    tomo = report["tomography"]
    assert abs(tomo["theta_rad"]) <= 0.02
    assert abs(math.remainder(tomo["phi_rad"] - math.pi, math.tau)) <= 0.1


@pytest.mark.parametrize("offset_mhz", [-5, -3, 1, 3, 5, 10])
def test_iswap_meets_criterion_6_off_the_default_frequency(device, offset_mhz):
    _, report = calibrate_gate(device, "iswap", mod_freq=0.28 + offset_mhz * 1e-3)
    tomo = report["tomography"]
    assert tomo["f_avg"] >= 0.999
    assert abs(tomo["theta_rad"] + math.pi / 2) <= 0.01
    assert abs(tomo["phi_rad"]) <= 0.05
    assert tomo["leakage"] <= 1e-3
    assert report["consistency"]["duration_coupling_product"] == pytest.approx(
        1.0, abs=0.02)


@pytest.mark.parametrize("kind, distinct", [("iswap", 20), ("cz20", 40)])
def test_the_trim_and_the_gate_block_take_no_partial_step(device, default_calibrations,
                                                          monkeypatch, kind, distinct):
    # every trim candidate, and so the picked duration, lies on the step
    # grid: the propagation diagonalizes only the distinct steps of one
    # period (a quarter of them at the sweet spot), in each parity block.
    # Steps are diagonalized in stacks; the dressed basis is one matrix
    # per block.
    spec, _, _, (trim,) = default_calibrations[kind]
    assert trim.n_diagonalized == distinct
    eigh, steps = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: np.ndim(h) == 3 and steps.append(len(h)) or eigh(h))
    gate_block(device, spec)
    assert sum(steps) == len(PARITY_BLOCKS) * distinct


def test_gate_block_is_the_dressed_block_of_the_gate(device, default_calibrations):
    m = gate_block(device, default_calibrations["iswap"][0])
    assert m.shape == (4, 4)
    leakage = 1.0 - np.trace(m.conj().T @ m).real / 4.0
    assert 0.0 <= leakage <= 1e-3


@pytest.mark.parametrize("mod_freq,message", [
    (0.0, "mod_freq must be positive"),
    (float("-inf"), "mod_freq must be positive"),
    (float("nan"), "mod_freq must be finite, got nan"),
    (float("inf"), "mod_freq must be finite, got inf"),
])
def test_calibrate_rejects_a_bad_mod_freq_at_the_resonance_stage(device, mod_freq,
                                                                 message):
    with pytest.raises(CalibrationError, match=message) as err:
        calibrate_gate(device, "iswap", mod_freq=mod_freq)
    assert err.value.stage == "resonance"


def test_calibrate_rejects_unknown_kind(device):
    with pytest.raises(CalibrationError, match="unknown gate kind") as err:
        calibrate_gate(device, "bell")
    assert err.value.stage == "setup"


def test_calibrate_and_resonance_reject_a_non_string_kind(device, zero_bias_params):
    with pytest.raises(CalibrationError, match="unknown gate kind") as err:
        calibrate_gate(device, ["iswap"])
    assert err.value.stage == "setup"
    with pytest.raises(ValueError, match="unknown gate kind"):
        find_resonance_amplitude(["cz20"], device.q2, zero_bias_params)


@pytest.mark.parametrize("bias,message", [
    (0.5, "vanishing Josephson energy"),
    (float("nan"), "phic must be finite, got nan"),
    (float("inf"), "phic must be finite, got inf"),
], ids=["half", "nan", "inf"])
def test_bad_coupler_bias_fails_at_setup(device, bias, message):
    with pytest.raises(CalibrationError, match=message) as err:
        calibrate_gate(device, "iswap", coupler_bias=bias)
    assert err.value.stage == "setup"


def test_cz02_resonance_is_unreachable(device):
    with pytest.raises(CalibrationError, match="resonance unreachable") as err:
        calibrate_gate(device, "cz02")
    assert err.value.stage == "resonance"


def test_trim_records_the_warnings_of_the_candidates_it_fits(device, monkeypatch):
    # Without refinement the CZ20 trim window holds leaky candidates, whose
    # fSim fits warn.  The trim fits candidates in falling fidelity until
    # one is on target, and the report keeps the warnings of those fits.
    from paramres import calibration

    calls = []
    monkeypatch.setattr(calibration, "fit_fsim",
                        lambda ptm: calls.append(ptm) or fit_fsim(ptm))
    spec, report = calibrate_gate(device, "cz20", mod_freq=0.2805, refine=False)
    tomo = report["tomography"]
    assert 1 <= len(calls) <= 10  # of 359 candidates
    assert tomo["warnings"] == [
        "channel is far from unitary; the fSim fit may not be meaningful"] * len(calls)
    assert abs(tomo["theta_rad"]) <= 0.015
