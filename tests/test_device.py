"""Device assembly, INI persistence, and parameter extraction at bias."""

import io
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import paramres
from paramres.circuit import CapacitanceNetwork
from paramres.device import (
    bundled_path,
    device_params,
    load_device,
    save_device,
)
from paramres.effective import static_couplings
from paramres.spectrum import anharmonicity, transition_frequency


def test_bundled_device_hits_measured_targets(device):
    assert float(transition_frequency(device.q1, 0.0)) == pytest.approx(3.803, abs=1e-9)
    assert float(transition_frequency(device.q1, np.pi)) == pytest.approx(3.173, abs=1e-9)
    assert float(transition_frequency(device.q2, 0.0)) == pytest.approx(3.862, abs=1e-9)
    assert float(transition_frequency(device.q2, np.pi)) == pytest.approx(3.207, abs=1e-9)
    assert float(transition_frequency(device.coupler, 0.0)) == pytest.approx(5.915, abs=1e-9)
    assert float(anharmonicity(device.q1, 0.0)) == pytest.approx(0.235, abs=1e-9)
    assert float(anharmonicity(device.q2, 0.0)) == pytest.approx(0.233, abs=1e-9)


def test_bundled_device_coupling_targets(device, zero_bias_params):
    # the fit targets recorded in the data/device.ini header
    p = zero_bias_params
    assert np.sqrt(p.g1c * p.g2c) == pytest.approx(0.0923, abs=1e-9)
    assert p.g1c == pytest.approx(p.g2c, abs=1e-9)
    for value, target in ((p.f1, 3.803), (p.f2, 3.862), (p.fc, 5.915),
                          (p.eta1, 0.235), (p.eta2, 0.233),
                          (p.g1c, 0.0923), (p.g2c, 0.0923)):
        assert value == pytest.approx(target, abs=1e-6)
    half = device_params(device, phi1=0.5, phi2=0.5)
    assert half.f1 == pytest.approx(3.173, abs=1e-6)
    assert half.f2 == pytest.approx(3.207, abs=1e-6)
    assert device.coupler.squid.ejs == device.coupler.squid.ejl
    net = device.network
    assert (net.c01, net.c02, net.c04, net.c05, net.c03) == (35, 35, 35, 35, 80)
    # net static qubit-qubit coupling at zero bias: +0.25 MHz
    assert static_couplings(p).g01 * 1e3 == pytest.approx(0.25, abs=0.001)


def test_device_ini_round_trip(tmp_path, device):
    path = tmp_path / "dev.ini"
    with open(path, "w") as fh:
        save_device(fh, device)
    again = load_device(path)
    for attr in ("q1", "q2", "coupler"):
        a, b = getattr(device, attr), getattr(again, attr)
        assert a.ec == b.ec
        assert a.squid.ejs == b.squid.ejs
        assert a.squid.ejl == b.squid.ejl
    assert device.network == again.network


def test_save_device_accepts_stream(device):
    buf = io.StringIO()
    save_device(buf, device)
    text = buf.getvalue()
    assert text.startswith("[qubit1]")
    assert "[network]" in text and "[coupler]" in text


def test_save_device_writes_the_network_in_field_order(device):
    buf = io.StringIO()
    save_device(buf, device)
    network = buf.getvalue().split("[network]\n")[1]
    keys = [line.split(" = ")[0] for line in network.splitlines() if " = " in line]
    assert keys == ["c01_ff", "c02_ff", "c03_ff", "c04_ff", "c05_ff", "c12_ff",
                    "c13_ff", "c23_ff", "c24_ff", "c34_ff", "c35_ff", "c45_ff"]
    assert keys == [field.name + "_ff" for field in fields(CapacitanceNetwork)]


@pytest.mark.parametrize("key, message", [
    ("ejs_ghz", r"\[qubit1\].*junction energy ejs must be > 0 and finite, got nan"),
    ("c01_ff", r"capacitance c01 must be >= 0 and finite, got nan"),
], ids=("ejs_ghz", "c01_ff"))
def test_load_device_rejects_nan_by_name(tmp_path, key, message):
    # NaN passes a bare "<= 0" or "< 0" check, so without a finiteness
    # test the device would load and fail later with an unrelated error
    lines = bundled_path("device.ini").read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith(key))
    lines[first] = f"{key} = nan"
    path = tmp_path / "nan.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_device(path)


@pytest.mark.parametrize("drop, message", [
    ("[qubit2]", r"^device file missing \[qubit2\] section$"),
    ("[network]", r"^device file missing \[network\] section$"),
    ("c12_ff", r"^bad or missing capacitance in \[network\]: No option 'c12_ff'"),
], ids=("qubit2", "network", "c12_ff"))
def test_load_device_names_what_is_missing(tmp_path, drop, message):
    # drop one section (its header and keys) or one key of the bundled file
    kept, skipping = [], False
    for line in bundled_path("device.ini").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            skipping = line == drop
        if not (skipping or line.startswith(drop)):
            kept.append(line)
    path = tmp_path / "partial.ini"
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_device(path)


def test_load_device_missing_file():
    with pytest.raises(ValueError, match="device file not found"):
        load_device("/nonexistent/device.ini")


def test_bundled_path_points_at_package_data():
    assert bundled_path("device.ini").exists()
    assert bundled_path("crosstalk.csv").exists()
    assert bundled_path("transfer.csv").exists()


def test_device_params_flux_dependence(device):
    p0 = device_params(device)
    # biasing any loop away from its sweet spot lowers that frequency
    assert device_params(device, phi2=0.10).f2 < p0.f2
    assert device_params(device, phi1=0.10).f1 < p0.f1
    assert device_params(device, phic=0.10).fc < p0.fc
    # couplings inherit the EJ^(1/4) softening of the biased coupler
    pc = device_params(device, phic=0.15)
    assert pc.g1c < p0.g1c
    assert pc.g2c < p0.g2c
    assert pc.g12 == pytest.approx(p0.g12, rel=1e-12)


def test_device_params_expands_each_mode_once(device, monkeypatch):
    from paramres import spectrum

    calls = []

    def counted(*args):
        calls.append(args)
        return energy(*args)

    energy = spectrum.squid_energy
    monkeypatch.setattr(spectrum, "squid_energy", counted)
    device_params(device, phi1=0.01, phic=0.2, phi2=0.1)
    assert len(calls) == 3


def test_device_params_couplings_equal_the_reference_formula(device):
    # g_ab = (E_ab/sqrt(2)) (EJa/ECa EJb/ECb)^(1/4) (1 - (xi_a + xi_b)/8)
    from paramres.circuit import squid_energy

    def ej_xi(spec, flux):
        ej = squid_energy(spec.squid, 2.0 * np.pi * flux)
        return ej, np.sqrt(2.0 * spec.ec / ej)

    en = device.energies
    for phi1, phic, phi2 in ((0.0, 0.0, 0.0), (0.01, 0.2, 0.1), (-0.03, 0.3, 0.37)):
        (ej1, xi1), (ejc, xic), (ej2, xi2) = (ej_xi(s, f) for s, f in (
            (device.q1, phi1), (device.coupler, phic), (device.q2, phi2)))
        ec1, ecc, ec2 = device.q1.ec, device.coupler.ec, device.q2.ec
        p = device_params(device, phi1=phi1, phic=phic, phi2=phi2)
        ref = ((en.e1c / np.sqrt(2.0)) * (ej1 / ec1 * ejc / ecc) ** 0.25
               * (1.0 - (xic + xi1) / 8.0),
               (en.e2c / np.sqrt(2.0)) * (ej2 / ec2 * ejc / ecc) ** 0.25
               * (1.0 - (xic + xi2) / 8.0),
               (en.e12 / np.sqrt(2.0)) * (ej1 / ec1 * ej2 / ec2) ** 0.25
               * (1.0 - (xi1 + xi2) / 8.0))
        np.testing.assert_allclose((p.g1c, p.g2c, p.g12), ref, rtol=1e-14, atol=0.0)


def test_device_params_flux_units(device):
    # flux arguments are in units of the flux quantum: half a quantum
    # parks the symmetric coupler at its (vanishing-EJ) singularity
    with pytest.raises(ValueError, match="vanishing Josephson energy"):
        device_params(device, phic=0.5)


def scipy_modules_after(module: str, run: str = "") -> list:
    """The scipy modules a fresh interpreter holds after importing module
    and then running the statement run."""
    src = os.path.dirname(os.path.dirname(paramres.__file__))
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}\n{run}\n"
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_device_layer_imports_without_scipy():
    # importing scipy.constants would take most of the set-up time
    assert scipy_modules_after("paramres.device") == []


def test_cli_imports_without_scipy_optimize_or_integrate():
    # commands such as "device show" need none of them; the functions
    # that do import them when called
    loaded = scipy_modules_after("paramres.cli")
    assert not [m for m in loaded if m.split(".")[:2] in (
        ["scipy", "optimize"], ["scipy", "integrate"], ["scipy", "linalg"])]


def test_an_iswap_calibration_never_loads_scipy_integrate():
    # the sideband weights and the average frequency are spectral sums
    loaded = scipy_modules_after(
        "paramres.calibration, paramres.device",
        "paramres.calibration.calibrate_gate("
        "paramres.device.load_bundled_device(), 'iswap')")
    assert "scipy.optimize" in loaded  # the calibration did run
    assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "integrate"]]
