"""Device description: config file I/O and fitting of circuit parameters.

A device file is an INI with one section per element and one for the
capacitance network.  Keys carry unit suffixes (GHz for junction energies,
fF for capacitances); charging energies and coupling strengths are derived
from the network rather than stored, so the file cannot go out of sync
with itself.

The [network] section bundled with the package is synthetic: pad and ground
capacitances of the measured device are not published, so the network is
fitted to reproduce the measured frequencies and coupling strengths under
the assumption g1c = g2c (only the geometric mean is measured).
"""

import configparser
import math
from dataclasses import dataclass

from .circuit import CapacitanceNetwork, CircuitEnergies, SquidSpec, energies_from_network
from .spectrum import (DeviceParams, TransmonSpec, anharmonicity,
                       coupling_strengths, transition_frequency)

_NETWORK_KEYS = ("c01", "c02", "c03", "c04", "c05", "c12",
                 "c13", "c23", "c24", "c34", "c35", "c45")
_ELEMENT_SECTIONS = ("qubit1", "coupler", "qubit2")


@dataclass(frozen=True)
class Device:
    """Fully specified two-qubit device with a grounded tunable coupler."""

    q1: TransmonSpec
    coupler: TransmonSpec
    q2: TransmonSpec
    network: CapacitanceNetwork
    energies: CircuitEnergies


def _assemble(network: CapacitanceNetwork, squids) -> Device:
    en = energies_from_network(network)
    sq1, sqc, sq2 = squids
    return Device(
        q1=TransmonSpec(ec=en.ec1, squid=sq1, label="q1"),
        coupler=TransmonSpec(ec=en.ecc, squid=sqc, label="coupler"),
        q2=TransmonSpec(ec=en.ec2, squid=sq2, label="q2"),
        network=network,
        energies=en,
    )


def load_device(path) -> Device:
    """Read a device INI file; see data/device.ini for the documented schema."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse device file {path}: {exc}") from None
    if not read:
        raise ValueError(f"device file not found: {path}")
    squids = []
    for section in _ELEMENT_SECTIONS:
        if not cp.has_section(section):
            raise ValueError(f"device file missing [{section}] section")
        try:
            squids.append(SquidSpec(ejs=cp.getfloat(section, "ejs_ghz"),
                                    ejl=cp.getfloat(section, "ejl_ghz")))
        except (configparser.NoOptionError, ValueError) as exc:
            raise ValueError(f"bad or missing junction energy in [{section}]: {exc}")
    if not cp.has_section("network"):
        raise ValueError("device file missing [network] section")
    caps = {}
    for key in _NETWORK_KEYS:
        try:
            caps[key] = cp.getfloat("network", key + "_ff")
        except (configparser.NoOptionError, ValueError) as exc:
            raise ValueError(f"bad or missing capacitance in [network]: {exc}")
    return _assemble(CapacitanceNetwork(**caps), squids)


def save_device(path_or_file, device: Device, header_lines=()):
    """Write a device INI that load_device reads back to an identical Device.

    Accepts a path or an open text stream (e.g. sys.stdout).
    """
    cp = configparser.ConfigParser()
    for section, spec in zip(_ELEMENT_SECTIONS, (device.q1, device.coupler, device.q2)):
        cp.add_section(section)
        cp.set(section, "ejs_ghz", f"{spec.squid.ejs:.17g}")
        cp.set(section, "ejl_ghz", f"{spec.squid.ejl:.17g}")
    cp.add_section("network")
    for key in _NETWORK_KEYS:
        cp.set("network", key + "_ff", f"{getattr(device.network, key):.17g}")

    def _emit(fh):
        for line in header_lines:
            fh.write(f"# {line}\n")
        cp.write(fh)

    if hasattr(path_or_file, "write"):
        _emit(path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            _emit(fh)


def device_params(device: Device, phi1=0.0, phic=0.0, phi2=0.0) -> DeviceParams:
    """Three-body model parameters at the given DC fluxes (flux quanta)."""
    a1, ac, a2 = (2.0 * math.pi * phi1, 2.0 * math.pi * phic, 2.0 * math.pi * phi2)
    g1c, g2c, g12 = coupling_strengths(
        device.energies.e1c, device.energies.e2c, device.energies.e12,
        device.q1, device.q2, device.coupler,
        phi_e1=a1, phi_e2=a2, phi_ec=ac)
    return DeviceParams(
        f1=float(transition_frequency(device.q1, a1)),
        f2=float(transition_frequency(device.q2, a2)),
        fc=float(transition_frequency(device.coupler, ac)),
        eta1=float(anharmonicity(device.q1, a1)),
        eta2=float(anharmonicity(device.q2, a2)),
        etac=float(anharmonicity(device.coupler, ac)),
        g1c=float(g1c), g2c=float(g2c), g12=float(g12))


def fit_transmon_band(f_max, f_min, eta_max, label="") -> TransmonSpec:
    """Transmon spec whose band spans [f_min, f_max] with anharmonicity eta_max.

    Solves for (ec, ejs, ejl) so that f01 equals f_max at zero flux and f_min
    at half a flux quantum, and the zero-flux anharmonicity equals eta_max.
    """
    from scipy.optimize import root

    def resid(x):
        ec, ej_sum, ej_diff = x
        if ec <= 0 or ej_sum <= 0 or not 0 <= ej_diff < ej_sum:
            return [1e3, 1e3, 1e3]
        spec = TransmonSpec(ec=ec, squid=SquidSpec(
            ejs=0.5 * (ej_sum - ej_diff), ejl=0.5 * (ej_sum + ej_diff)))
        return [transition_frequency(spec, 0.0) - f_max,
                transition_frequency(spec, math.pi) - f_min,
                anharmonicity(spec, 0.0) - eta_max]

    ec0 = eta_max
    x0 = [ec0, (f_max + ec0) ** 2 / (8 * ec0), (f_min + ec0) ** 2 / (8 * ec0)]
    sol = root(resid, x0, tol=1e-13)
    if not sol.success:
        raise ValueError(f"transmon band fit did not converge: {sol.message}")
    ec, ej_sum, ej_diff = sol.x
    return TransmonSpec(ec=float(ec),
                        squid=SquidSpec(ejs=float(0.5 * (ej_sum - ej_diff)),
                                        ejl=float(0.5 * (ej_sum + ej_diff))),
                        label=label)


def fit_symmetric_squid(f_max, ec) -> SquidSpec:
    """Symmetric SQUID whose transmon hits f_max at zero flux for a given ec."""
    from scipy.optimize import brentq

    def gap(ej_total):
        spec = TransmonSpec(ec=ec, squid=SquidSpec(ejs=ej_total / 2, ejl=ej_total / 2))
        return transition_frequency(spec, 0.0) - f_max

    ej = brentq(gap, 16.1 * ec, 1e4 * ec, xtol=1e-13)
    return SquidSpec(ejs=float(ej / 2), ejl=float(ej / 2))


def fit_network(q1_band, q2_band, fc_max, g1c, g2c, g12,
                ground_ff=35.0, coupler_ground_ff=80.0) -> Device:
    """Fit shunt and coupling capacitances to measured frequencies and couplings.

    q1_band and q2_band are (f_max, f_min, eta_max) triples in GHz.  Free
    parameters are the two qubit shunts, the two pad-coupler capacitances and
    the direct pad-pad capacitance; all ground capacitances are fixed inputs
    (they are not individually measurable from the target set).  The coupler
    junction energy is re-fitted to fc_max inside the loop, so the returned
    device hits every target simultaneously.
    """
    from scipy.optimize import root

    spec1 = fit_transmon_band(*q1_band, label="q1")
    spec2 = fit_transmon_band(*q2_band, label="q2")

    def build(x):
        c12, c45, c23, c34, c24 = x
        net = CapacitanceNetwork(
            c01=ground_ff, c02=ground_ff, c03=coupler_ground_ff,
            c04=ground_ff, c05=ground_ff, c13=0.0, c35=0.0,
            c12=c12, c45=c45, c23=c23, c34=c34, c24=c24)
        en = energies_from_network(net)
        sqc = fit_symmetric_squid(fc_max, en.ecc)
        return _assemble(net, (spec1.squid, sqc, spec2.squid))

    def resid(x):
        if min(x) < 0:
            return [1e3] * 5
        dev = build(x)
        p = device_params(dev)
        return [dev.energies.ec1 - spec1.ec, dev.energies.ec2 - spec2.ec,
                p.g1c - g1c, p.g2c - g2c, p.g12 - g12]

    x0 = [60.0, 60.0, 8.0, 8.0, 0.15]
    sol = root(resid, x0, tol=1e-13)
    if not sol.success:
        raise ValueError(f"network fit did not converge: {sol.message}")
    return build(sol.x)


def bundled_path(name: str):
    """Path to a data file shipped with the package (device.ini, crosstalk.csv, ...)."""
    from importlib.resources import files
    return files("paramres") / "data" / name


def load_bundled_device() -> Device:
    return load_device(str(bundled_path("device.ini")))
