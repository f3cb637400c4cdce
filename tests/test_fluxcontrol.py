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
    pulse_envelope,
)


def test_pulse_validation():
    with pytest.raises(ValueError, match="duration >= 2\\*ramp"):
        FluxPulse(phi_dc=0.0, amplitude=0.1, duration=8.0, ramp=5.0)
    with pytest.raises(ValueError):
        FluxPulse(phi_dc=0.0, amplitude=0.1, duration=20.0, ramp=-1.0)
    with pytest.raises(ValueError):
        FluxPulse(phi_dc=0.0, amplitude=0.1, mod_freq=-0.3, duration=20.0)


def test_envelope_shape():
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.1, duration=40.0, ramp=8.0)
    assert pulse_envelope(pulse, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert pulse_envelope(pulse, 40.0) == pytest.approx(0.0, abs=1e-12)
    assert pulse_envelope(pulse, 20.0) == 1.0
    # raised cosine passes through one half at the midpoint of the ramp
    assert pulse_envelope(pulse, 4.0) == pytest.approx(0.5, abs=1e-12)
    t = np.linspace(0.0, 40.0, 4001)
    u = pulse_envelope(pulse, t)
    assert np.all((u >= 0.0) & (u <= 1.0))
    # continuity: no jumps anywhere near the ramp boundaries
    assert np.max(np.abs(np.diff(u))) < 0.002


def test_envelope_zero_ramp_is_flat():
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.1, duration=30.0, ramp=0.0)
    np.testing.assert_array_equal(
        pulse_envelope(pulse, np.linspace(0, 30, 7)), np.ones(7))


def test_instantaneous_flux_values():
    pulse = FluxPulse(phi_dc=0.05, amplitude=0.02, mod_freq=0.25,
                      phase=0.0, duration=40.0, ramp=0.0)
    # sin modulation: zero at t=0, peak at a quarter period
    assert instantaneous_flux(pulse, 0.0) == pytest.approx(0.05)
    assert instantaneous_flux(pulse, 1.0) == pytest.approx(0.07)
    arr = instantaneous_flux(pulse, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(arr, [0.05, 0.07, 0.05], atol=1e-12)


def test_instantaneous_flux_dc_pulse_uses_envelope():
    pulse = FluxPulse(phi_dc=0.01, amplitude=0.04, mod_freq=0.0,
                      duration=40.0, ramp=10.0)
    assert instantaneous_flux(pulse, 20.0) == pytest.approx(0.05)
    assert instantaneous_flux(pulse, 0.0) == pytest.approx(0.01)


def test_instantaneous_flux_outside_window():
    pulse = FluxPulse(phi_dc=0.0, amplitude=0.1, duration=40.0, ramp=5.0)
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
    with pytest.raises(ValueError, match="row labels do not match"):
        load_crosstalk_csv(bad)
    not_number = tmp_path / "ct.csv"
    not_number.write_text("line,a,b\na,1.0,0.1\n# comment\nb,x,1.0\n")
    with pytest.raises(ValueError, match=r"ct\.csv line 4: .*'b,x,1\.0'"):
        load_crosstalk_csv(not_number)


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
    assert apply_transfer(table, 0.1, 0.2) == pytest.approx(0.08)
    assert apply_transfer(table, 1.0, 0.3) == pytest.approx(0.6)
    with pytest.raises(ValueError, match="outside transfer table range"):
        apply_transfer(table, 0.1, 0.05)


def test_bundled_transfer_table_loads():
    table = load_transfer_csv(bundled_path("transfer.csv"))
    assert table.mod_freqs[0] <= 0.1 and table.mod_freqs[-1] >= 0.5
    assert np.all(np.diff(table.ratios) < 0)
    # attenuation grows with frequency for the single-pole response
    assert apply_transfer(table, 1.0, 0.5) < apply_transfer(table, 1.0, 0.1)


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
