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
    """Three-body model parameters at the given DC fluxes (flux quanta)."""
    for name, flux in (("phi1", phi1), ("phic", phic), ("phi2", phi2)):
        if not math.isfinite(flux):
            raise ValueError(f"{name} must be finite, got {flux}")
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


def bundled_path(name: str):
    """Path to a data file shipped with the package (device.ini, crosstalk.csv, ...)."""
    from importlib.resources import files
    return files("paramres") / "data" / name


def load_bundled_device() -> Device:
    return load_device(str(bundled_path("device.ini")))
