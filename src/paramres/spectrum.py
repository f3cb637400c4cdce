"""Transmon level structure and zero-point fluctuations.

``transmon_expansion`` is the one copy of the transmon expansion: from
one SQUID energy per flux it gives EJ, xi = sqrt(2 EC/EJ), f01, the
anharmonicity and n_zpf, and ``transition_frequency``, ``anharmonicity``
and ``zero_point`` read it.  ``device.device_params`` takes one
expansion per mode and builds the couplings from their EJ and xi.
"""

import warnings
from dataclasses import dataclass
from typing import Any, NamedTuple

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
        for name in ("g1c", "g2c", "g12"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


class Expansion(NamedTuple):
    """One transmon expansion at a flux: EJ (GHz), xi = sqrt(2 EC/EJ),
    f01 and the positive anharmonicity eta (GHz), and the zero-point
    charge fluctuation n_zpf.  Arrays where the flux is an array."""

    ej: Any
    xi: Any
    f01: Any
    eta: Any
    n_zpf: Any


def transmon_expansion(spec: TransmonSpec, phi_e) -> Expansion:
    """The transmon at external flux phi_e (radians), vectorized over phi_e.

    One squid_energy call gives EJ, from which the sixth-order expansion
    of the cosine (Koch et al., PRA 76, 042319 (2007)) gives the
    number-diagonal levels E(n) = [omega + EC/2 (1 + xi/4)
    - EC/2 (1 + 9 xi/16) n] n with omega = sqrt(8 EJ EC) - EC (1 + xi/4),
    so f01 = E(1) - E(0) = omega - 5 xi EC/32 and
    eta = f01 - f12 = EC (1 + 9 xi/16).  The oscillator's zero-point charge
    fluctuation is n_zpf = (EJ/8EC)^(1/4)/sqrt(2).  A Josephson energy
    that vanishes anywhere raises ValueError.
    """
    ej = squid_energy(spec.squid, phi_e)
    vanishing = np.asarray(ej) <= 1e-12
    if np.count_nonzero(vanishing):  # cheaper than np.any on a scalar
        flux = np.broadcast_to(phi_e, vanishing.shape)[vanishing][0] / (2.0 * np.pi)
        raise ValueError(f"{spec.label or 'transmon'}: vanishing Josephson energy "
                         f"at external flux {flux:.6g} flux quanta")
    ec = spec.ec
    xi = np.sqrt(2.0 * ec / ej)
    omega = np.sqrt(8.0 * ej * ec) - ec * (1.0 + xi / 4.0)
    return Expansion(ej=ej, xi=xi, f01=omega - 5.0 * xi * ec / 32.0,
                     eta=ec * (1.0 + 9.0 * xi / 16.0),
                     n_zpf=(ej / (8.0 * ec)) ** 0.25 / np.sqrt(2.0))


def transition_frequency(spec: TransmonSpec, phi_e):
    """|0> -> |1> frequency in GHz; vectorized over phi_e (transmon_expansion)."""
    return transmon_expansion(spec, phi_e).f01


def anharmonicity(spec: TransmonSpec, phi_e):
    """Positive anharmonicity magnitude eta = f01 - f12 in GHz (transmon_expansion)."""
    return transmon_expansion(spec, phi_e).eta


def zero_point(spec: TransmonSpec, phi_e=0.0) -> tuple:
    """(n_zpf, phi_zpf) of the transmon oscillator mode; product is exactly 1/2."""
    n_zpf = transmon_expansion(spec, phi_e).n_zpf
    return n_zpf, 0.5 / n_zpf
