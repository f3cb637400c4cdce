"""Device assembly, INI persistence, and parameter extraction at bias."""

import io

import numpy as np
import pytest

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
    save_device(path, device)
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


def test_device_params_flux_units(device):
    # flux arguments are in units of the flux quantum: half a quantum
    # parks the symmetric coupler at its (vanishing-EJ) singularity
    with pytest.raises(ValueError, match="vanishing Josephson energy"):
        device_params(device, phic=0.5)
