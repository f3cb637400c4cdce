"""Device description: INI file I/O and model parameters at bias.

A device file is an INI with one section per element and one for the
capacitance network.  Keys carry unit suffixes (GHz for junction energies,
fF for capacitances); charging energies and coupling strengths are derived
from the network rather than stored, so the file cannot go out of sync
with itself.

The [network] section bundled with the package is synthetic: pad and ground
capacitances of the measured device are not published.  The header of
data/device.ini records the measured targets the bundled values were
fitted to, and the tests pin the device to them.
"""

import configparser
import math
from dataclasses import dataclass

from .circuit import CapacitanceNetwork, CircuitEnergies, SquidSpec, energies_from_network
from .spectrum import DeviceParams, TransmonSpec, transmon_expansion

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
    network = CapacitanceNetwork(**caps)
    en = energies_from_network(network)
    sq1, sqc, sq2 = squids
    return Device(
        q1=TransmonSpec(ec=en.ec1, squid=sq1, label="q1"),
        coupler=TransmonSpec(ec=en.ecc, squid=sqc, label="coupler"),
        q2=TransmonSpec(ec=en.ec2, squid=sq2, label="q2"),
        network=network,
        energies=en,
    )


def save_device(path_or_file, device: Device):
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
    if hasattr(path_or_file, "write"):
        cp.write(path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            cp.write(fh)


def device_params(device: Device, phi1=0.0, phic=0.0, phi2=0.0) -> DeviceParams:
    """Three-body model parameters at the given DC fluxes (flux quanta).

    One transmon expansion per mode gives its frequency and
    anharmonicity.  Each coupling g_ab = (E_ab/sqrt(2)) (EJa/ECa EJb/ECb)^(1/4)
    (1 - (xi_a + xi_b)/8), from coupling energy E_ab, inherits the EJ^(1/4)
    flux dependence of both modes' zero-point charge fluctuations.
    """
    for name, flux in (("phi1", phi1), ("phic", phic), ("phi2", phi2)):
        if not math.isfinite(flux):
            raise ValueError(f"{name} must be finite, got {flux}")
    m1, mc, m2 = (transmon_expansion(spec, 2.0 * math.pi * flux) for spec, flux in
                  ((device.q1, phi1), (device.coupler, phic), (device.q2, phi2)))

    def coupling(e, spec_a, a, spec_b, b):
        return (e / math.sqrt(2.0)) * (a.ej / spec_a.ec * b.ej / spec_b.ec) ** 0.25 \
            * (1.0 - (a.xi + b.xi) / 8.0)

    en = device.energies
    return DeviceParams(
        f1=float(m1.f01), f2=float(m2.f01), fc=float(mc.f01),
        eta1=float(m1.eta), eta2=float(m2.eta), etac=float(mc.eta),
        g1c=float(coupling(en.e1c, device.q1, m1, device.coupler, mc)),
        g2c=float(coupling(en.e2c, device.q2, m2, device.coupler, mc)),
        g12=float(coupling(en.e12, device.q1, m1, device.q2, m2)))


def bundled_path(name: str):
    """Path to a data file shipped with the package (device.ini, crosstalk.csv, ...)."""
    from importlib.resources import files
    return files("paramres") / "data" / name


def load_bundled_device() -> Device:
    return load_device(str(bundled_path("device.ini")))
