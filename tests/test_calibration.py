"""Gate specs, resonance placement, collision maps, and the refine step."""

import json
import re

import numpy as np
import pytest

from paramres.calibration import (
    DEFAULT_COUPLER_BIAS,
    DEFAULT_MOD_FREQ,
    GATE_KINDS,
    CalibrationError,
    GateSpec,
    calibrate_gate,
    default_collision_grid,
    find_resonance_amplitude,
    gate_pulse,
    gate_unitary,
    load_gatespec,
    operating_point,
    refine_on_chevron,
    set_duration,
    sideband_collision_map,
)
from paramres.device import device_params
from paramres.dynamics import ChevronMap
from paramres.fluxcontrol import instantaneous_flux
from paramres.tomography import fit_fsim

MOD_FREQ = 0.28


def iswap_spec(**overrides) -> GateSpec:
    base = dict(kind="iswap", amplitude=0.155, mod_freq=MOD_FREQ,
                duration=55.0, coupler_bias=DEFAULT_COUPLER_BIAS["iswap"])
    base.update(overrides)
    return GateSpec(**base)


def test_gate_spec_validation():
    assert GATE_KINDS == ("iswap", "cz20")
    with pytest.raises(ValueError, match="kind must be one of"):
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
    p = device_params(device, phic=DEFAULT_COUPLER_BIAS["iswap"])
    amp = find_resonance_amplitude("iswap", device.q2, p, MOD_FREQ)
    assert 0.0 < amp < 0.45
    from paramres.effective import average_and_excursion
    from paramres.fluxcontrol import FluxPulse

    probe = FluxPulse(phi_dc=0.0, amplitude=amp, mod_freq=MOD_FREQ,
                      duration=50.0)
    f_avg, _ = average_and_excursion(device.q2, probe)
    assert f_avg == pytest.approx(p.f1, abs=1e-9)


def test_resonance_amplitude_unreachable_target(device):
    p = device_params(device, phic=DEFAULT_COUPLER_BIAS["cz20"])
    with pytest.raises(ValueError, match="resonance unreachable"):
        find_resonance_amplitude("cz02", device.q2, p, MOD_FREQ)


@pytest.mark.parametrize("kind,g_target", [("iswap", 4.5e-3), ("cz20", 4.03e-3)],
                         ids=["iswap", "cz20"])
def test_default_coupler_biases_give_documented_couplings(device, kind, g_target):
    # the targets stated with DEFAULT_COUPLER_BIAS, to 5 kHz
    key = {"iswap": "g01", "cz20": "g20"}[kind]
    _, _, mc, tau = operating_point(device, kind, DEFAULT_COUPLER_BIAS[kind],
                                    DEFAULT_MOD_FREQ[kind])
    g = abs(mc.sideband(0)[key])
    assert g == pytest.approx(g_target, abs=5e-6)
    assert tau == set_duration(kind, g)


def test_collision_map_recommendation(device):
    p = device_params(device, phic=DEFAULT_COUPLER_BIAS["iswap"])
    grid = default_collision_grid(p, device.q2)
    assert grid[0] == 0.0 and grid[-1] <= 0.45
    cmap = sideband_collision_map(p, device.q2, grid, guard_band=0.020)
    assert sorted(cmap.curves) == ["cz02", "cz20", "iswap"]
    worst = max(curve.max() for curve in cmap.curves.values())
    assert cmap.recommended_min == pytest.approx(worst + 0.020, abs=1e-12)
    # margin is positive above the recommendation and negative below it
    assert cmap.margin(cmap.recommended_min + 0.01) > 0
    assert cmap.margin(cmap.recommended_min - 0.01) < 0


def test_collision_map_rejects_empty_grid(device, zero_bias_params):
    with pytest.raises(ValueError, match="nonempty"):
        sideband_collision_map(zero_bias_params, device.q2, np.array([]))


def test_collision_map_rejects_negative_guard_band(device, zero_bias_params):
    for guard_band in (-0.001, float("nan")):
        with pytest.raises(ValueError, match=f"guard band must be >= 0, got {guard_band}"):
            sideband_collision_map(zero_bias_params, device.q2, np.array([0.1]),
                                   guard_band=guard_band)


def synthetic_chevron(amps, durs, peak_amp):
    pops = (np.exp(-((amps[:, None] - peak_amp) / 0.006) ** 2)
            * np.sin(np.pi * durs[None, :] / 80.0) ** 2)
    return ChevronMap(amplitudes=amps, durations=durs, populations=pops,
                      initial="10", target="01")


def test_refine_moves_to_the_chevron_peak():
    amps = np.linspace(0.14, 0.17, 7)
    durs = np.linspace(20.0, 80.0, 5)
    refined = refine_on_chevron(iswap_spec(), synthetic_chevron(amps, durs, amps[4]))
    assert refined.amplitude == pytest.approx(amps[4], abs=1e-9)
    assert refined.duration == pytest.approx(35.0, abs=1e-9)
    assert refined.kind == "iswap"


def test_refine_on_a_return_chevron_takes_the_revival_after_the_deepest_dip():
    # |11> return population of a detuned exchange: full on amps[3], where
    # it dips to zero at 60 ns and revives at 120 ns
    amps = np.linspace(0.36, 0.38, 7)
    durs = np.arange(20.0, 181.0, 10.0)
    rate = np.sqrt(1.0 + ((amps[:, None] - amps[3]) / 0.01) ** 2)
    pops = 1.0 - np.sin(np.pi * rate * durs[None, :] / 120.0) ** 2 / rate ** 2
    spec = iswap_spec(kind="cz20", amplitude=0.372, duration=100.0)
    refined = refine_on_chevron(spec, ChevronMap(
        amplitudes=amps, durations=durs, populations=pops,
        initial="11", target="11"))
    assert refined.amplitude == amps[3]
    assert refined.duration == 120.0
    with pytest.raises(ValueError, match="needs a chevron from \\|11>"):
        refine_on_chevron(spec, synthetic_chevron(amps, durs, amps[3]))


def test_refine_error_paths():
    amps = np.linspace(0.14, 0.17, 7)
    durs = np.linspace(20.0, 80.0, 5)
    chev = synthetic_chevron(amps, durs, amps[4])
    with pytest.raises(ValueError, match="does not bracket"):
        refine_on_chevron(iswap_spec(amplitude=0.30), chev)
    with pytest.raises(ValueError, match="needs a chevron from \\|10>"):
        refine_on_chevron(iswap_spec(), ChevronMap(
            amplitudes=amps, durations=durs,
            populations=chev.populations, initial="11", target="11"))
    with pytest.raises(ValueError, match="too small to refine"):
        refine_on_chevron(iswap_spec(amplitude=0.155), ChevronMap(
            amplitudes=np.array([0.15, 0.16]), durations=durs[:2],
            populations=chev.populations[:2, :2], initial="10", target="01"))
    edge = ChevronMap(
        amplitudes=amps, durations=durs,
        populations=np.exp(-((amps[:, None] - amps[0]) / 0.004) ** 2)
        * np.sin(np.pi * durs[None, :] / 80.0) ** 2,
        initial="10", target="01")
    with pytest.raises(ValueError, match="no local maximum inside"):
        refine_on_chevron(iswap_spec(amplitude=amps[1]), edge)


def test_gate_unitary_is_unitary(device):
    spec = iswap_spec(amplitude=0.1546, duration=30.0)
    p, u = gate_unitary(device, spec)
    assert u.shape == (27, 27)
    assert np.max(np.abs(u @ u.conj().T - np.eye(27))) < 1e-8
    assert p.fc < 5.915  # parameters taken at the gate's coupler bias


def test_calibrate_rejects_unknown_kind(device):
    with pytest.raises(CalibrationError, match="unknown gate kind") as err:
        calibrate_gate(device, "bell")
    assert err.value.stage == "setup"


def test_calibrate_and_resonance_reject_a_non_string_kind(device, zero_bias_params):
    with pytest.raises(CalibrationError, match="unknown gate kind") as err:
        calibrate_gate(device, ["iswap"])
    assert err.value.stage == "setup"
    with pytest.raises(ValueError, match="unknown gate kind"):
        find_resonance_amplitude(["cz20"], device.q2, zero_bias_params, MOD_FREQ)


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
    assert 1 <= len(calls) <= 10  # of 129 candidates
    assert tomo["warnings"] == [
        "channel is far from unitary; the fSim fit may not be meaningful"] * len(calls)
    assert abs(tomo["theta_rad"]) <= 0.015
