"""Transmon spectrum: perturbative levels against charge-basis diagonalization."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramres.circuit import SquidSpec, squid_energy
from paramres.spectrum import (
    TRANSMON_REGIME_MIN_RATIO,
    DeviceParams,
    TransmonSpec,
    anharmonicity,
    transition_frequency,
    transmon_expansion,
    zero_point,
)


def make_transmon(ec: float, ej: float, d: float = 0.0) -> TransmonSpec:
    """Transmon with total zero-flux EJ ``ej`` and junction asymmetry ``d``."""
    return TransmonSpec(ec=ec, squid=SquidSpec(
        ejs=0.5 * ej * (1.0 - d), ejl=0.5 * ej * (1.0 + d)))


def charge_basis_levels(ec: float, ej: float, ncut: int = 40) -> np.ndarray:
    """Exact lowest transmon levels by diagonalizing 4EC n^2 - EJ cos(phi)
    in the charge basis, referenced to the ground state."""
    n = np.arange(-ncut, ncut + 1, dtype=float)
    h = np.diag(4.0 * ec * n**2)
    h += np.diag(-0.5 * ej * np.ones(2 * ncut), 1)
    h += np.diag(-0.5 * ej * np.ones(2 * ncut), -1)
    w = np.linalg.eigvalsh(h)
    return w[:3] - w[0]


@pytest.mark.parametrize("ec,ej", [(0.235, 9.66), (0.233, 10.0), (0.30, 15.0)])
def test_levels_match_charge_basis(ec, ej):
    spec = make_transmon(ec, ej)
    exact = charge_basis_levels(ec, ej)
    f01_exact = exact[1]
    eta_exact = exact[1] - (exact[2] - exact[1])
    assert float(transition_frequency(spec, 0.0)) == pytest.approx(f01_exact, rel=3e-3)
    assert float(anharmonicity(spec, 0.0)) == pytest.approx(eta_exact, rel=5e-2)


def test_xi_corrections_improve_on_leading_order():
    ec, ej = 0.235, 9.66
    spec = make_transmon(ec, ej)
    f01_exact = charge_basis_levels(ec, ej)[1]
    err_corrected = abs(float(transition_frequency(spec, 0.0)) - f01_exact)
    err_leading = abs(np.sqrt(8.0 * ej * ec) - ec - f01_exact)
    assert err_corrected < err_leading


def test_accuracy_improves_deeper_in_transmon_regime():
    ec = 0.25

    def rel_err(ej):
        exact = charge_basis_levels(ec, ej)[1]
        return abs(float(transition_frequency(make_transmon(ec, ej), 0.0))
                   - exact) / exact

    assert rel_err(25.0) < rel_err(12.5) < rel_err(6.25)


# at ratio = 20.0, float rounding can put EJ/EC just below the warning limit
@pytest.mark.filterwarnings("ignore:transmon.*EJ/EC:UserWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(ec=st.floats(0.05, 0.5), ratio=st.floats(20.0, 200.0),
       phi=st.floats(0.0, 1.2))
def test_zero_point_product_is_exactly_half(ec, ratio, phi):
    spec = make_transmon(ec, ec * ratio, d=0.2)
    n_zpf, phi_zpf = zero_point(spec, phi)
    assert n_zpf * phi_zpf == pytest.approx(0.5, abs=1e-12)
    assert n_zpf > 0 and phi_zpf > 0


def test_transition_frequency_vectorizes():
    spec = make_transmon(0.235, 9.66, d=0.5)
    grid = np.linspace(0.0, np.pi, 11)
    vec = np.asarray(transition_frequency(spec, grid))
    scalars = [float(transition_frequency(spec, p)) for p in grid]
    np.testing.assert_allclose(vec, scalars, rtol=1e-13)


def reference_expansion(spec: TransmonSpec, phi_e) -> dict:
    """The transmon formulas as each reader once evaluated them on its own."""
    ej = squid_energy(spec.squid, phi_e)
    ec = spec.ec
    xi = np.sqrt(2.0 * ec / ej)
    omega = np.sqrt(8.0 * ej * ec) - ec * (1.0 + xi / 4.0)
    return {"ej": ej, "xi": xi, "f01": omega - 5.0 * xi * ec / 32.0,
            "eta": ec * (1.0 + 9.0 * xi / 16.0),
            "n_zpf": (ej / (8.0 * ec)) ** 0.25 / np.sqrt(2.0),
            "phi_zpf": (8.0 * ec / ej) ** 0.25 / np.sqrt(2.0)}


@pytest.mark.parametrize("d", [0.0, 0.5])
def test_expansion_equals_the_reference_formulas(d):
    spec = make_transmon(0.235, 9.66, d=d)
    grid = np.linspace(-0.45, 0.45, 91) * 2.0 * np.pi
    ref = reference_expansion(spec, grid)
    got = transmon_expansion(spec, grid)
    for field in got._fields:
        np.testing.assert_allclose(getattr(got, field), ref[field], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(transition_frequency(spec, grid), ref["f01"],
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(anharmonicity(spec, grid), ref["eta"], rtol=1e-14, atol=0.0)
    for value, key in zip(zero_point(spec, grid), ("n_zpf", "phi_zpf")):
        np.testing.assert_allclose(value, ref[key], rtol=1e-14, atol=0.0)
    scalar = transmon_expansion(spec, float(grid[7]))
    assert all(getattr(scalar, f) == pytest.approx(ref[f][7], rel=1e-14, abs=0.0)
               for f in got._fields)


def test_frequency_vs_flux_band_shape():
    spec = make_transmon(0.235, 9.66, d=0.5)
    grid = np.linspace(0.0, np.pi, 101)
    band = np.asarray(transition_frequency(spec, grid))
    assert band[0] == band.max()
    assert band[-1] == band.min()
    assert np.all(np.diff(band) < 0)


def test_symmetric_squid_rejected_at_half_flux():
    spec = make_transmon(0.235, 9.66, d=0.0)
    with pytest.raises(ValueError, match="vanishing Josephson energy"):
        transition_frequency(spec, np.pi)


def test_warns_outside_transmon_regime():
    with pytest.warns(UserWarning, match="below 20"):
        make_transmon(1.0, (TRANSMON_REGIME_MIN_RATIO - 1.0))


def test_transmon_spec_rejects_nonpositive_ec():
    with pytest.raises(ValueError, match="charging energy must be > 0"):
        TransmonSpec(ec=0.0, squid=SquidSpec(ejs=5.0, ejl=5.0))


def test_device_params_validation():
    with pytest.raises(ValueError, match="frequencies must be > 0"):
        DeviceParams(f1=-1, f2=4, fc=6, eta1=0.2, eta2=0.2, etac=0.1,
                     g1c=0.1, g2c=0.1, g12=0.005)
    with pytest.raises(ValueError, match="frequencies must be > 0"):
        DeviceParams(f1=4, f2=4, fc=float("nan"), eta1=0.2, eta2=0.2, etac=0.1,
                     g1c=0.1, g2c=0.1, g12=0.005)
    with pytest.raises(ValueError, match="positive-magnitude convention"):
        DeviceParams(f1=4, f2=4, fc=6, eta1=-0.2, eta2=0.2, etac=0.1,
                     g1c=0.1, g2c=0.1, g12=0.005)


@pytest.mark.parametrize("name", ["g1c", "g2c", "g12"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_device_params_rejects_a_non_finite_coupling_by_name(name, value):
    # a non-finite coupling would otherwise reach propagate, whose eigh
    # fails with a LinAlgError that the CLI does not catch
    p = DeviceParams(f1=4, f2=4, fc=6, eta1=0.2, eta2=0.2, etac=0.1,
                     g1c=0.1, g2c=0.1, g12=0.005)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        replace(p, **{name: value})


@pytest.mark.parametrize("name", ["f1", "f2", "fc", "eta1", "eta2", "etac"])
def test_device_params_rejects_an_infinite_frequency_by_name(name):
    # +inf passes the positivity checks, and propagate's eigh would then
    # fail with a LinAlgError that the CLI does not catch
    p = DeviceParams(f1=4, f2=4, fc=6, eta1=0.2, eta2=0.2, etac=0.1,
                     g1c=0.1, g2c=0.1, g12=0.005)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        replace(p, **{name: float("inf")})
