"""Flux pulses, crosstalk compensation, and transfer-function tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramres.device import bundled_path
from paramres.fluxcontrol import (
    CrosstalkMatrix,
    FluxPulse,
    TransferTable,
    apply_transfer,
    compensate_crosstalk,
    instantaneous_flux,
    load_crosstalk_csv,
    load_transfer_csv,
)


def test_pulse_validation():
    with pytest.raises(ValueError, match="duration must be >= 0"):
        FluxPulse(phi_dc=0.0, amplitude=0.1, duration=-1.0)
    with pytest.raises(ValueError, match="mod_freq must be >= 0"):
        FluxPulse(phi_dc=0.0, amplitude=0.1, mod_freq=-0.3, duration=20.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["phi_dc", "amplitude", "mod_freq", "duration"])
def test_pulse_rejects_non_finite_fields(field, value):
    # NaN passes every "< 0" check, and mod_freq = NaN would otherwise
    # propagate silently as a DC step
    fields = dict(phi_dc=0.0, amplitude=0.1, mod_freq=0.28, duration=20.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        FluxPulse(**fields)


def test_instantaneous_flux_values():
    pulse = FluxPulse(phi_dc=0.05, amplitude=0.02, mod_freq=0.25, duration=40.0)
    # sin modulation: zero at t=0, peak at a quarter period
    assert instantaneous_flux(pulse, 0.0) == pytest.approx(0.05)
    assert instantaneous_flux(pulse, 1.0) == pytest.approx(0.07)
    arr = instantaneous_flux(pulse, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(arr, [0.05, 0.07, 0.05], atol=1e-12)


def test_instantaneous_flux_dc_pulse_is_square():
    pulse = FluxPulse(phi_dc=0.01, amplitude=0.04, mod_freq=0.0, duration=40.0)
    assert instantaneous_flux(pulse, 0.0) == pytest.approx(0.05)
    assert instantaneous_flux(pulse, 40.0) == pytest.approx(0.05)
    np.testing.assert_allclose(
        instantaneous_flux(pulse, np.linspace(0.0, 40.0, 7)), np.full(7, 0.05),
        atol=1e-15)


def test_instantaneous_flux_outside_window():
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.1, duration=40.0)
    with pytest.raises(ValueError, match="time outside pulse window"):
        instantaneous_flux(pulse, 40.1)
    with pytest.raises(ValueError, match="time outside pulse window"):
        instantaneous_flux(pulse, np.array([1.0, -0.5]))


def test_crosstalk_matrix_validation():
    with pytest.raises(ValueError, match="unit diagonal"):
        CrosstalkMatrix(matrix=np.array([[1.0, 0.1], [0.2, 0.9]]))
    with pytest.raises(ValueError):
        CrosstalkMatrix(matrix=np.ones((2, 3)))
    ct = CrosstalkMatrix(matrix=np.eye(3))
    assert ct.labels == ("line0", "line1", "line2")
    assert ct.condition_number == pytest.approx(1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_compensation_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = np.eye(n) + rng.uniform(-0.45, 0.45, size=(n, n))
    np.fill_diagonal(m, 1.0)
    ct = CrosstalkMatrix(matrix=m)
    target = rng.uniform(-0.4, 0.4, size=n)
    settings_vec = compensate_crosstalk(ct, target)
    np.testing.assert_allclose(m @ settings_vec, target, atol=1e-10)


def test_compensation_rejects_singular_matrix():
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    # unit diagonal but rank one
    ct = CrosstalkMatrix(matrix=m)
    with pytest.raises(ValueError, match="singular"):
        compensate_crosstalk(ct, np.array([0.1, 0.2]))


def test_bundled_crosstalk_csv_round_trip(tmp_path):
    ct = load_crosstalk_csv(bundled_path("crosstalk.csv"))
    assert ct.matrix.shape == (3, 3)
    np.testing.assert_array_equal(np.diag(ct.matrix), 1.0)
    # compensation through the measured matrix is exact to solver precision
    target = np.array([0.0, 0.25, 0.0])
    settings_vec = compensate_crosstalk(ct, target)
    np.testing.assert_allclose(ct.matrix @ settings_vec, target, atol=1e-12)

    out = tmp_path / "ct.csv"
    out.write_text("# measured on cooldown 3\nline," + ",".join(ct.labels) + "\n"
                   + "".join(label + "," + ",".join(map(repr, row.tolist())) + "\n"
                             for label, row in zip(ct.labels, ct.matrix)))
    again = load_crosstalk_csv(out)
    np.testing.assert_array_equal(again.matrix, ct.matrix)
    assert again.labels == ct.labels


def test_crosstalk_csv_error_paths(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no crosstalk data"):
        load_crosstalk_csv(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("label,a,b\nb,1.0,0.1\na,0.2,1.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: crosstalk CSV row labels do not match"):
        load_crosstalk_csv(bad)
    not_number = tmp_path / "ct.csv"
    not_number.write_text("line,a,b\na,1.0,0.1\n# comment\nb,x,1.0\n")
    with pytest.raises(ValueError, match=r"ct\.csv line 4: .*'b,x,1\.0'"):
        load_crosstalk_csv(not_number)
    # a row with fewer or more numbers than the header has labels
    for row in ("c,0.1,1", "c,0.1,1,0.1,0"):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(f"line,q1,c,q2\nq1,1,0.1,0\n{row}\nq2,0,0.1,1\n")
        with pytest.raises(ValueError, match=rf"ragged\.csv line 3: expected a label "
                                             rf"and 3 numbers, got '{row}'"):
            load_crosstalk_csv(ragged)


def test_transfer_table_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        TransferTable(mod_freqs=np.array([0.1, 0.1, 0.3]),
                      ratios=np.array([1.0, 0.9, 0.8]))
    with pytest.raises(ValueError, match="lie in \\(0, 1.5\\]"):
        TransferTable(mod_freqs=np.array([0.1, 0.2]),
                      ratios=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="matching frequency/ratio"):
        TransferTable(mod_freqs=np.array([0.1]), ratios=np.array([1.0]))


def test_apply_transfer_interpolates_and_guards_range():
    table = TransferTable(mod_freqs=np.array([0.1, 0.2, 0.4]),
                          ratios=np.array([1.0, 0.8, 0.4]))
    assert apply_transfer(table, 0.2) == pytest.approx(0.8)
    assert apply_transfer(table, 0.3) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="outside transfer table range"):
        apply_transfer(table, 0.05)


def test_bundled_transfer_table_loads():
    table = load_transfer_csv(bundled_path("transfer.csv"))
    assert table.mod_freqs[0] <= 0.1 and table.mod_freqs[-1] >= 0.5
    assert np.all(np.diff(table.ratios) < 0)
    # attenuation grows with frequency for the single-pole response
    assert apply_transfer(table, 0.5) < apply_transfer(table, 0.1)


def test_load_transfer_csv_rejects_empty(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("# header only\nmod_freq_ghz,ratio\n")
    with pytest.raises(ValueError, match="no transfer data"):
        load_transfer_csv(f)


@pytest.mark.parametrize("row", ["0.2,0.9,0.1", "0.2", "0.2,high"])
def test_transfer_csv_names_file_and_line_of_a_bad_row(tmp_path, row):
    f = tmp_path / "t.csv"
    f.write_text(f"mod_freq_ghz,amplitude_ratio\n0.1,1.0\n{row}\n")
    with pytest.raises(ValueError, match=rf"t\.csv line 3: .*'{row}'"):
        load_transfer_csv(f)
