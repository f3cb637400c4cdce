"""Circuit quantization: capacitance network and charging energies."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import e as E_CHARGE
from scipy.constants import h as PLANCK

from paramres.circuit import (
    ECONV_GHZ_FF,
    CapacitanceNetwork,
    SquidSpec,
    dynamical_block,
    energies_from_network,
    mode_capacitance_matrix,
    squid_energy,
)


def node_capacitance_matrix(net: CapacitanceNetwork) -> np.ndarray:
    """Independent 5x5 node capacitance matrix from the circuit graph.

    Standard node analysis: diagonal entries sum every capacitor touching
    the node (ground included), off-diagonal entries are minus the direct
    capacitance.  Nodes are the two pads of qubit 1, the coupler island,
    and the two pads of qubit 2.
    """
    pairs = {
        (1, 2): net.c12, (1, 3): net.c13, (2, 3): net.c23,
        (2, 4): net.c24, (3, 4): net.c34, (3, 5): net.c35,
        (4, 5): net.c45,
    }
    ground = {1: net.c01, 2: net.c02, 3: net.c03, 4: net.c04, 5: net.c05}
    c = np.zeros((5, 5))
    for (i, j), val in pairs.items():
        c[i - 1, i - 1] += val
        c[j - 1, j - 1] += val
        c[i - 1, j - 1] -= val
        c[j - 1, i - 1] -= val
    for i, val in ground.items():
        c[i - 1, i - 1] += val
    return c


# Node voltages in terms of the sum/difference mode variables
# (1p, 1m, c, 2p, 2m): V1 = (V1p - V1m)/2, V2 = (V1p + V1m)/2, V3 = Vc,
# V4 = (V2p + V2m)/2, V5 = (V2p - V2m)/2.
MODE_TO_NODE = np.array([
    [0.5, -0.5, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.0, 0.5, -0.5],
])


def random_network(rng: np.random.Generator) -> CapacitanceNetwork:
    return CapacitanceNetwork(
        c01=rng.uniform(20, 60), c02=rng.uniform(20, 60),
        c03=rng.uniform(40, 120), c04=rng.uniform(20, 60),
        c05=rng.uniform(20, 60), c12=rng.uniform(40, 90),
        c13=rng.uniform(0, 2), c23=rng.uniform(2, 12),
        c24=rng.uniform(0, 1.5), c34=rng.uniform(2, 12),
        c35=rng.uniform(0, 2), c45=rng.uniform(40, 90),
    )


def test_energy_conversion_constant_matches_physical_constants():
    # E_C = e^2 / 2C with C in fF and E_C in GHz.
    expected = E_CHARGE**2 / (2.0 * PLANCK) * 1e6
    assert ECONV_GHZ_FF == pytest.approx(expected, rel=1e-12)


def test_mode_matrix_matches_node_analysis(rng):
    for _ in range(40):
        net = random_network(rng)
        oracle = MODE_TO_NODE.T @ node_capacitance_matrix(net) @ MODE_TO_NODE
        np.testing.assert_allclose(
            mode_capacitance_matrix(net), oracle, rtol=0, atol=1e-12)


def test_direct_pad_capacitance_cross_entries(rng):
    # The lone qubit-qubit capacitor appears with weight -c24/4 on every
    # plus/minus cross entry; removing it must shift exactly those four.
    net = random_network(rng)
    bare = dataclasses.replace(net, c24=0.0)
    delta = mode_capacitance_matrix(net) - mode_capacitance_matrix(bare)
    cross = delta[np.ix_([0, 1], [3, 4])]
    np.testing.assert_allclose(cross, -net.c24 / 4.0, rtol=0, atol=1e-12)


def test_dynamical_block_is_symmetric_positive_definite(rng):
    for _ in range(10):
        block = dynamical_block(random_network(rng))
        assert block.shape == (3, 3)
        np.testing.assert_allclose(block, block.T, atol=1e-12)
        assert np.linalg.eigvalsh(block)[0] > 0


def test_negative_capacitance_rejected():
    with pytest.raises(ValueError, match="c24 must be >= 0"):
        CapacitanceNetwork(
            c01=35, c02=35, c03=80, c04=35, c05=35, c12=70,
            c13=0, c23=7, c24=-0.1, c34=7, c35=0, c45=70,
        )


def test_degenerate_network_rejected():
    net = CapacitanceNetwork(
        c01=0, c02=0, c03=0, c04=0, c05=0, c12=0,
        c13=0, c23=0, c24=0, c34=0, c35=0, c45=0,
    )
    with pytest.raises(ValueError, match="degenerate capacitance network"):
        energies_from_network(net)


def test_charging_energies_from_inverse_block(rng):
    # H = 4 E_C n^2 convention: E_Ck = (e^2/2) [C^-1]_kk and the pairwise
    # coupling energies are twice the off-diagonal inverse entries.
    net = random_network(rng)
    inv = np.linalg.inv(dynamical_block(net))
    en = energies_from_network(net)
    assert en.ec1 == pytest.approx(ECONV_GHZ_FF * inv[0, 0], rel=1e-12)
    assert en.ecc == pytest.approx(ECONV_GHZ_FF * inv[1, 1], rel=1e-12)
    assert en.ec2 == pytest.approx(ECONV_GHZ_FF * inv[2, 2], rel=1e-12)
    assert en.e1c == pytest.approx(2 * ECONV_GHZ_FF * inv[0, 1], rel=1e-12)
    assert en.e2c == pytest.approx(2 * ECONV_GHZ_FF * inv[1, 2], rel=1e-12)
    assert en.e12 == pytest.approx(2 * ECONV_GHZ_FF * inv[0, 2], rel=1e-12)


def test_closed_forms_converge_to_exact_inversion():
    base = CapacitanceNetwork(
        c01=35, c02=35, c03=80, c04=35, c05=35, c12=72,
        c13=0, c23=8, c24=0.5, c34=8, c35=0, c45=72,
    )

    def worst_rel_err(scale):
        net = dataclasses.replace(
            base, c23=base.c23 * scale, c34=base.c34 * scale,
            c24=base.c24 * scale)
        en = energies_from_network(net)
        return max(
            abs(en.e1c_approx - en.e1c) / abs(en.e1c),
            abs(en.e2c_approx - en.e2c) / abs(en.e2c),
            abs(en.e12_approx - en.e12) / abs(en.e12),
        )

    errs = [worst_rel_err(s) for s in (1.0, 0.5, 0.25)]
    assert errs[0] < 0.05
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
    assert errs[2] < errs[0] / 2.0


def test_symmetric_squid_energy():
    spec = SquidSpec(ejs=9.0, ejl=9.0)
    ej = squid_energy(spec, 0.0)
    assert ej == pytest.approx(18.0, rel=1e-12)
    ej_half = squid_energy(spec, np.pi / 2)
    assert ej_half == pytest.approx(18.0 * np.cos(np.pi / 4), rel=1e-12)


def test_asymmetric_squid_energy_floor_and_phase():
    spec = SquidSpec(ejs=2.0, ejl=8.0)
    ej_pi = squid_energy(spec, np.pi)
    assert ej_pi == pytest.approx(8.0 - 2.0, rel=1e-12)
    ej0 = squid_energy(spec, 0.0)
    assert ej0 == pytest.approx(10.0, rel=1e-12)
    # a quarter turn of phase adds the junction energies in quadrature
    assert squid_energy(spec, np.pi / 2) == pytest.approx(np.hypot(2.0, 8.0), rel=1e-12)


def test_squid_energy_broadcasts_over_flux_arrays():
    spec = SquidSpec(ejs=3.0, ejl=7.0)
    phis = np.linspace(0.0, 2 * np.pi, 17)
    ej = squid_energy(spec, phis)
    assert ej.shape == phis.shape
    scalar = [squid_energy(spec, p) for p in phis]
    np.testing.assert_allclose(ej, scalar, rtol=1e-12)


def test_squid_energy_is_ej_alone():
    # a float for a scalar flux, an array for an array: no asymmetry phase
    spec = SquidSpec(ejs=3.0, ejl=7.0)
    ej = squid_energy(spec, 0.3)
    assert type(ej) is float
    assert ej == pytest.approx(math.sqrt(58.0 + 42.0 * math.cos(0.3)), rel=1e-14)
    band = squid_energy(spec, np.array([0.0, 0.3]))
    assert isinstance(band, np.ndarray) and band.shape == (2,)
    assert band[1] == pytest.approx(ej, rel=1e-14)


def test_squid_spec_rejects_nonpositive_junctions():
    with pytest.raises(ValueError):
        SquidSpec(ejs=0.0, ejl=5.0)
    with pytest.raises(ValueError):
        SquidSpec(ejs=5.0, ejl=-1.0)
