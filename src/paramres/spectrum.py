"""Transmon level structure, zero-point fluctuations, and coupling strengths."""

import warnings
from dataclasses import dataclass

import numpy as np

from .circuit import SquidSpec, squid_energy

TRANSMON_REGIME_MIN_RATIO = 20.0


@dataclass(frozen=True)
class TransmonSpec:
    """Charging energy (GHz), SQUID junctions, and a label (q1 | q2 | coupler)."""

    ec: float
    squid: SquidSpec
    label: str = ""

    def __post_init__(self):
        if self.ec <= 0:
            raise ValueError("charging energy must be > 0")
        if self.squid.ej_total / self.ec < TRANSMON_REGIME_MIN_RATIO:
            warnings.warn(
                f"{self.label or 'transmon'}: EJ/EC = "
                f"{self.squid.ej_total / self.ec:.1f} at zero flux is below "
                f"{TRANSMON_REGIME_MIN_RATIO:.0f}; transmon expansion may be inaccurate")


@dataclass(frozen=True)
class DeviceParams:
    """Frequencies, anharmonicities and couplings of the three-body model (GHz).

    Anharmonicities are stored as positive magnitudes; the second level of
    each mode sits at 2*f - eta.
    """

    f1: float
    f2: float
    fc: float
    eta1: float
    eta2: float
    etac: float
    g1c: float
    g2c: float
    g12: float

    def __post_init__(self):
        # written so that NaN fails too
        if not all(f > 0 for f in (self.f1, self.f2, self.fc)):
            raise ValueError("transition frequencies must be > 0")
        if not all(eta > 0 for eta in (self.eta1, self.eta2, self.etac)):
            raise ValueError("anharmonicities must be > 0 (positive-magnitude convention)")


def _ej_xi(spec: TransmonSpec, phi_e):
    """(EJ, xi = sqrt(2 EC/EJ)) at external flux phi_e (radians), vectorized."""
    ej, _ = squid_energy(spec.squid, phi_e)
    vanishing = np.asarray(ej) <= 1e-12
    if np.any(vanishing):
        flux = np.broadcast_to(phi_e, vanishing.shape)[vanishing][0] / (2.0 * np.pi)
        raise ValueError(f"{spec.label or 'transmon'}: vanishing Josephson energy "
                         f"at external flux {flux:.6g} flux quanta")
    return ej, np.sqrt(2.0 * spec.ec / ej)


def transition_frequency(spec: TransmonSpec, phi_e):
    """|0> -> |1> frequency in GHz; vectorized over phi_e.

    From the sixth-order expansion of the cosine, the number-diagonal
    levels are E(n) = [omega + EC/2 (1 + xi/4) - EC/2 (1 + 9 xi/16) n] n
    with omega = sqrt(8 EJ EC) - EC (1 + xi/4), so
    f01 = E(1) - E(0) = omega - 5 xi EC/32.
    """
    ej, xi = _ej_xi(spec, phi_e)
    ec = spec.ec
    omega = np.sqrt(8.0 * ej * ec) - ec * (1.0 + xi / 4.0)
    return omega - 5.0 * xi * ec / 32.0


def anharmonicity(spec: TransmonSpec, phi_e):
    """Positive anharmonicity magnitude eta = f01 - f12 = EC (1 + 9 xi/16) in GHz.

    Same level ladder E(n) as transition_frequency.
    """
    _, xi = _ej_xi(spec, phi_e)
    return spec.ec * (1.0 + 9.0 * xi / 16.0)


def zero_point(spec: TransmonSpec, phi_e=0.0) -> tuple:
    """(n_zpf, phi_zpf) of the transmon oscillator mode; product is exactly 1/2."""
    ej, _ = _ej_xi(spec, phi_e)
    n_zpf = (ej / (8.0 * spec.ec)) ** 0.25 / np.sqrt(2.0)
    phi_zpf = (8.0 * spec.ec / ej) ** 0.25 / np.sqrt(2.0)
    return n_zpf, phi_zpf


def coupling_strengths(e1c: float, e2c: float, e12: float,
                       spec1: TransmonSpec, spec2: TransmonSpec,
                       specc: TransmonSpec,
                       phi_e1=0.0, phi_e2=0.0, phi_ec=0.0) -> tuple:
    """(g1c, g2c, g12) in GHz from coupling energies and TransmonSpec inputs.

    The couplings inherit an EJ^(1/4) flux dependence from the zero-point
    charge fluctuations of each mode; phi_e1/phi_e2/phi_ec are the external
    fluxes (radians) at which the respective EJ values are taken.
    """
    ej1, xi1 = _ej_xi(spec1, phi_e1)
    ej2, xi2 = _ej_xi(spec2, phi_e2)
    ejc, xic = _ej_xi(specc, phi_ec)
    g1c = (e1c / np.sqrt(2.0)) * (ej1 / spec1.ec * ejc / specc.ec) ** 0.25 \
        * (1.0 - (xic + xi1) / 8.0)
    g2c = (e2c / np.sqrt(2.0)) * (ej2 / spec2.ec * ejc / specc.ec) ** 0.25 \
        * (1.0 - (xic + xi2) / 8.0)
    g12 = (e12 / np.sqrt(2.0)) * (ej1 / spec1.ec * ej2 / spec2.ec) ** 0.25 \
        * (1.0 - (xi1 + xi2) / 8.0)
    return g1c, g2c, g12

