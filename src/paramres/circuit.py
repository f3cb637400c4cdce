"""Lumped-element circuit model: two floating transmons coupled by a grounded tunable coupler.

Node numbering follows the circuit drawing: nodes 1, 2 are the pads of qubit 1,
node 3 is the coupler island, nodes 4, 5 are the pads of qubit 2.  The qubit
modes live in the pad-difference variables (1m, 2m); the pad-sum variables
(1p, 2p) have no inductive energy and are eliminated before quantization.
"""

import math
from dataclasses import dataclass

import numpy as np

# Exact since the 2019 SI redefinition; literals keep scipy.constants (most
# of the import time of this module) out of the device layer.
_E_CHARGE = 1.602176634e-19  # C
_H_PLANCK = 6.62607015e-34  # J s

# Charging energies are E_C = e^2/(2 C).  With C in fF and E/h in GHz the
# conversion constant is e^2/(2h) * 1e6 = 19.3702293247 GHz*fF.
ECONV_GHZ_FF = _E_CHARGE**2 / (2.0 * _H_PLANCK) * 1e6

MODE_ORDER = ("1p", "1m", "c", "2p", "2m")
DYNAMICAL_MODES = ("1m", "c", "2m")


@dataclass(frozen=True)
class CapacitanceNetwork:
    """All capacitances of the five-node circuit, in fF.

    c0k are capacitances of node k to ground, cjk between nodes j and k.
    The qubit-coupler capacitances c13 and c35 are usually zero by design.
    """

    c01: float
    c02: float
    c03: float
    c04: float
    c05: float
    c12: float
    c13: float
    c23: float
    c24: float
    c34: float
    c35: float
    c45: float

    def __post_init__(self):
        for name in ("c01", "c02", "c03", "c04", "c05", "c12",
                     "c13", "c23", "c24", "c34", "c35", "c45"):
            value = getattr(self, name)
            # written so that NaN fails too
            if not (0 <= value < math.inf):
                raise ValueError(f"capacitance {name} must be >= 0 and finite, "
                                 f"got {value}")


@dataclass(frozen=True)
class SquidSpec:
    """Josephson energies (GHz) of the two junctions of a SQUID loop."""

    ejs: float  # smaller junction
    ejl: float  # larger junction

    def __post_init__(self):
        for name in ("ejs", "ejl"):
            value = getattr(self, name)
            # written so that NaN fails too
            if not (0 < value < math.inf):
                raise ValueError(f"junction energy {name} must be > 0 and finite, "
                                 f"got {value}")

    @property
    def ej_total(self) -> float:
        """Maximum Josephson energy, reached at zero flux."""
        return self.ejs + self.ejl


def squid_energy(spec: SquidSpec, phi_e):
    """Effective Josephson energy and junction-asymmetry phase of a SQUID.

    phi_e is the external flux through the loop in radians (2*pi per flux
    quantum).  Returns (ej, phi0) with ej in GHz.  Accepts scalars or arrays.
    """
    phi_e = np.asarray(phi_e, dtype=float)
    ej = np.sqrt(spec.ejs**2 + spec.ejl**2
                 + 2.0 * spec.ejs * spec.ejl * np.cos(phi_e))
    asym = (spec.ejs - spec.ejl) / (spec.ejs + spec.ejl)
    phi0 = np.arctan(asym * np.tan(phi_e / 2.0))
    if ej.ndim == 0:
        return float(ej), float(phi0)
    return ej, phi0


def mode_capacitance_matrix(net: CapacitanceNetwork) -> np.ndarray:
    """5x5 capacitance matrix in the mode variables (1p, 1m, c, 2p, 2m), in fF."""
    c1p = net.c02 + net.c23 + net.c24 + (net.c01 + net.c13)
    c1m = net.c02 + net.c23 + net.c24 - (net.c01 + net.c13)
    c2p = net.c04 + net.c34 + net.c24 + (net.c05 + net.c35)
    c2m = net.c04 + net.c34 + net.c24 - (net.c05 + net.c35)
    ccp = net.c03 + net.c13 + net.c23 + net.c34 + net.c35
    # The direct pad-pad capacitance couples every plus/minus combination of
    # the two qubits with the same sign: expanding c24*(V4 - V2)^2/2 in the
    # sum/difference variables gives -c24/4 on all four cross entries.
    m = np.array([
        [c1p, c1m, -2 * (net.c13 + net.c23), -net.c24, -net.c24],
        [c1m, c1p + 4 * net.c12, -2 * (net.c23 - net.c13), -net.c24, -net.c24],
        [-2 * (net.c13 + net.c23), -2 * (net.c23 - net.c13), 4 * ccp,
         -2 * (net.c34 + net.c35), -2 * (net.c34 - net.c35)],
        [-net.c24, -net.c24, -2 * (net.c34 + net.c35), c2p, c2m],
        [-net.c24, -net.c24, -2 * (net.c34 - net.c35), c2m, c2p + 4 * net.c45],
    ]) / 4.0
    return m


def dynamical_block(net: CapacitanceNetwork) -> np.ndarray:
    """3x3 capacitance matrix of the dynamical modes (1m, c, 2m), in fF.

    The free modes 1p and 2p carry conserved charge and are dropped.
    """
    full = mode_capacitance_matrix(net)
    idx = [MODE_ORDER.index(k) for k in DYNAMICAL_MODES]
    return full[np.ix_(idx, idx)]


@dataclass(frozen=True)
class CircuitEnergies:
    """Charging and coupling energies in GHz, exact and closed-form approximate."""

    ec1: float
    ecc: float
    ec2: float
    e1c: float
    e2c: float
    e12: float
    e1c_approx: float
    e2c_approx: float
    e12_approx: float


def energies_from_network(net: CapacitanceNetwork) -> CircuitEnergies:
    """Charging energies E_Ck and coupling energies E_1c, E_2c, E_12 (GHz).

    The exact path inverts the 3x3 dynamical capacitance block; the
    approximate path evaluates the closed forms valid for small coupling
    capacitances (and c13 = c35 = 0).  Both are returned for cross-checking.
    """
    block = dynamical_block(net)
    eigs = np.linalg.eigvalsh(block)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise ValueError("degenerate capacitance network")
    inv = np.linalg.inv(block)

    ec1 = ECONV_GHZ_FF * inv[0, 0]
    ecc = ECONV_GHZ_FF * inv[1, 1]
    ec2 = ECONV_GHZ_FF * inv[2, 2]
    # Off-diagonal quadratic-form terms 4*E_jk*n_j*n_k pick up a factor of
    # two from symmetry, so E_jk = 2 * (e^2/2h) * inv_jk.
    e1c = 2.0 * ECONV_GHZ_FF * inv[0, 1]
    e2c = 2.0 * ECONV_GHZ_FF * inv[1, 2]
    e12 = 2.0 * ECONV_GHZ_FF * inv[0, 2]

    csig1 = block[0, 0]
    ccp = block[1, 1]
    csig2 = block[2, 2]
    e1c_approx = ECONV_GHZ_FF * net.c23 / (ccp * csig1)
    e2c_approx = ECONV_GHZ_FF * net.c34 / (ccp * csig2)
    e12_approx = ECONV_GHZ_FF * (net.c23 * net.c34 + net.c24 * ccp) \
        / (2.0 * csig1 * csig2 * ccp)
    return CircuitEnergies(ec1=ec1, ecc=ecc, ec2=ec2,
                           e1c=e1c, e2c=e2c, e12=e12,
                           e1c_approx=e1c_approx, e2c_approx=e2c_approx,
                           e12_approx=e12_approx)
