"""Command-line interface: summaries, artifacts, determinism, exit codes."""

import itertools
import json

import numpy as np
import pytest

from paramres.calibration import calibrate_gate
from paramres.cli import main
from paramres.device import bundled_path, load_device
from paramres.tomography import (PAULI_LABELS, average_fidelity, fsim_unitary,
                                 ptm_of_unitary)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_values(stdout: str) -> dict:
    line = stdout.strip().splitlines()[-1]
    out = {}
    for token in line.split():
        key, _, val = token.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def read_table(path) -> dict:
    """Columns of a table CSV by name, as lists of cell strings."""
    lines = [ln.split(",") for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return dict(zip(lines[0], map(list, zip(*lines[1:]))))


def assert_same_table(csv_path, json_path):
    """The CSV and JSON forms of a table hold the same cells, floats bit for bit."""
    csv_columns = read_table(csv_path)
    json_columns = json.loads(json_path.read_text())["columns"]
    assert csv_columns.keys() == json_columns.keys()  # JSON keys are sorted
    for name, cells in csv_columns.items():
        if isinstance(json_columns[name][0], str):
            assert cells == json_columns[name]
        else:
            assert [float(c) for c in cells] == json_columns[name]


def stable_lines(path) -> list:
    """File content with the self-declared generation timestamps removed."""
    lines = []
    for ln in path.read_text().splitlines():
        stripped = ln.strip()
        if stripped.startswith("# generated") or stripped.startswith('"generated"'):
            continue
        lines.append(ln)
    return lines


def test_device_show_prints_derived_parameters(capsys):
    code, out, err = run(capsys, "device", "show")
    assert code == 0 and err == ""
    assert "qubit1 : f01 = 3.8030 GHz" in out
    assert "qubit2 : f01 = 3.8620 GHz" in out
    assert "coupler: f01 = 5.9150 GHz" in out
    assert "sqrt(g1c*g2c) = 92.3 MHz" in out


def test_device_show_ini_round_trips(capsys, tmp_path):
    code, out, _ = run(capsys, "device", "show", "--format", "ini")
    assert code == 0
    echoed = tmp_path / "echo.ini"
    echoed.write_text(out)
    assert load_device(echoed) == load_device(bundled_path("device.ini"))


def test_sweep_coupling_finds_zero_crossing(capsys, tmp_path):
    code, out, _ = run(capsys, "sweep", "coupling", "--out-dir", str(tmp_path))
    assert code == 0
    vals = summary_values(out)
    assert vals["points"] == 65
    assert vals["g01_dc_mhz"] == pytest.approx(0.250, abs=0.002)
    assert vals["zero_crossing_phi0"] == pytest.approx(0.1105, abs=0.002)
    assert (tmp_path / "sweep_coupling.csv").exists()


def test_sweep_coupling_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "sweep", "coupling", "--out-dir", str(a))[0] == 0
    assert run(capsys, "sweep", "coupling", "--out-dir", str(b))[0] == 0
    assert stable_lines(a / "sweep_coupling.csv") == stable_lines(
        b / "sweep_coupling.csv")


def test_sweep_coupling_json_format(capsys, tmp_path):
    code, _, _ = run(capsys, "sweep", "coupling", "--out-dir", str(tmp_path),
                     "--format", "json")
    assert code == 0
    doc = json.loads((tmp_path / "sweep_coupling.json").read_text())
    assert "config_hash" in doc["meta"]
    cols = doc["columns"]
    assert len(cols["phic_phi0"]) == 65
    g01 = np.asarray(cols["g01_ghz"])
    assert g01[0] > 0 > g01[-1]  # sign change across the sweep


def test_out_dir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PARAMRES_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "sweep", "coupling")
    assert code == 0
    assert (tmp_path / "sweep_coupling.csv").exists()


def test_flux_invert_default_target(capsys, tmp_path):
    code, out, _ = run(capsys, "flux", "invert", "--out-dir", str(tmp_path))
    assert code == 0
    vals = summary_values(out)
    assert vals["q1_phi0"] == pytest.approx(0.096787, abs=1e-4)
    assert vals["coupler_phi0"] == pytest.approx(0.291088, abs=1e-4)
    assert vals["q2_phi0"] == pytest.approx(0.102846, abs=1e-4)
    assert vals["max_residual_phi0"] < 1e-10
    assert vals["cond"] == pytest.approx(2.915, abs=0.01)
    assert (tmp_path / "compensation.csv").exists()


def test_flux_invert_config_errors(capsys, tmp_path):
    bad_list = tmp_path / "bad.ini"
    bad_list.write_text("[flux]\ntarget_phi0 = 0.1, oops, 0.2\n")
    code, _, err = run(capsys, "flux", "invert", "--config", str(bad_list),
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "not a comma-separated number list" in err

    short = tmp_path / "short.ini"
    short.write_text("[flux]\ntarget_phi0 = 0.1, 0.2\n")
    code, _, err = run(capsys, "flux", "invert", "--config", str(short),
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "need 3 entries" in err

    not_finite = tmp_path / "nan.ini"
    not_finite.write_text("[flux]\ntarget_phi0 = nan, 0.29, 0\n")
    code, _, err = run(capsys, "flux", "invert", "--config", str(not_finite),
                       "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert "config [flux] target_phi0: not a finite number list: 'nan, 0.29, 0'" in err
    assert not (tmp_path / "out").exists()


def test_flux_invert_csv_and_json_hold_the_same_floats(capsys, tmp_path):
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    code, out, _ = run(capsys, "flux", "invert", "--out-dir", str(csv_dir))
    assert code == 0
    assert run(capsys, "flux", "invert", "--out-dir", str(json_dir),
               "--format", "json")[0] == 0
    assert_same_table(csv_dir / "compensation.csv", json_dir / "compensation.json")
    json_columns = json.loads((json_dir / "compensation.json").read_text())["columns"]
    assert json_columns["line"] == ["q1", "coupler", "q2"]
    vals = summary_values(out)
    assert vals["q1_phi0"] == json_columns["setting_phi0"][0]


def test_format_ini_is_rejected_outside_device_show(capsys, tmp_path):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "sweep", "coupling", "--out-dir", str(out_dir),
                       "--format", "ini")
    assert code == 1
    assert "--format ini" in err
    assert not out_dir.exists()

    cfgf = tmp_path / "run.ini"
    cfgf.write_text("[run]\nformat = xml\n")
    code, _, err = run(capsys, "flux", "invert", "--config", str(cfgf),
                       "--out-dir", str(out_dir))
    assert code == 1
    assert "config [run] format" in err
    assert not out_dir.exists()


def test_transfer_apply_defaults(capsys, tmp_path):
    code, out, _ = run(capsys, "transfer", "apply", "--out-dir", str(tmp_path))
    assert code == 0
    vals = summary_values(out)
    assert vals["ratio"] == pytest.approx(0.9059, abs=1e-3)
    assert vals["achieved_amp_phi0"] == pytest.approx(0.155 * vals["ratio"], rel=1e-6)
    assert vals["compensated_request_phi0"] == pytest.approx(
        0.155 / vals["ratio"], rel=1e-6)
    doc = json.loads((tmp_path / "transfer_apply.json").read_text())
    assert doc["mod_freq_ghz"] == 0.28


def test_transfer_apply_out_of_range(capsys, tmp_path):
    cfgf = tmp_path / "t.ini"
    cfgf.write_text("[transfer]\nmod_freq_ghz = 0.01\n")
    code, _, err = run(capsys, "transfer", "apply", "--config", str(cfgf),
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "outside transfer table range" in err


@pytest.mark.parametrize("command,data,section,old,new,message", [
    (("transfer", "apply"), "transfer.csv", "[transfer]\nfile", "0.25,0.9231",
     "0.25,nan", "transfer ratios must lie in (0, 1.5]"),
    (("transfer", "apply"), "transfer.csv", "[transfer]\nfile", "0.30,0.8944",
     "inf,0.8944", "transfer-table frequencies must be finite"),
    (("flux", "invert"), "crosstalk.csv", "[flux]\ncrosstalk_file", "-0.471",
     "nan", "crosstalk matrix entries must be finite"),
], ids=["transfer_nan_ratio", "transfer_inf_frequency", "crosstalk_nan"])
def test_nonfinite_flux_table_fails_by_name(capsys, tmp_path, command, data,
                                            section, old, new, message):
    table = tmp_path / data
    table.write_text(bundled_path(data).read_text().replace(old, new, 1))
    cfgf = tmp_path / "t.ini"
    cfgf.write_text(f"{section} = {table}\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *command, "--config", str(cfgf),
                       "--out-dir", str(out_dir))
    assert code == 1
    assert f"{table}: {message}" in err
    assert not out_dir.exists()


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, "sweep", "coupling",
                       "--config", str(tmp_path / "absent.ini"))
    assert code == 1
    assert "config file not found" in err


def test_malformed_config_value(capsys, tmp_path):
    cfgf = tmp_path / "c.ini"
    out_dir = tmp_path / "out"
    for command, text, message in [
        (("sweep", "coupling"), "[sweep]\npoints = many\n",
         "config [sweep] points: not an integer"),
        (("sweep", "coupling"), "[sweep]\nphic_stop_phi0 = inf\n",
         "config [sweep] phic_stop_phi0: not a finite number: 'inf'"),
        (("calibrate", "iswap"), "[gate.iswap]\nguard_band_ghz = nan\n",
         "config [gate.iswap] guard_band_ghz: not a finite number: 'nan'"),
        (("calibrate", "iswap"), "[gate.iswap]\ncoupler_bias_phi0 = nan\n",
         "config [gate.iswap] coupler_bias_phi0: not a finite number: 'nan'"),
        (("calibrate", "iswap"), "[gate.iswap]\nguard_band_ghz = -1\nrefine = false\n",
         "error: calibration failed at stage collision: guard band must be >= 0, "
         "got -1.0"),
        (("transfer", "apply"), "[transfer]\nrequested_amp_phi0 = -1\n",
         "config [transfer] requested_amp_phi0: must be >= 0, got -1.0"),
        (("sweep", "coupling"), "[sweep]\nphic_stop_phi0 = 0.5\npoints = 3\n",
         "coupler: vanishing Josephson energy at external flux 0.5 flux quanta"),
        (("calibrate", "iswap"), "[gate.iswap]\ncoupler_bias_phi0 = 0.5\n",
         "error: calibration failed at stage setup: coupler: vanishing Josephson "
         "energy at external flux 0.5 flux quanta"),
        (("chevron",), "[chevron]\nmod_freq_ghz = 0\n",
         "error: calibration failed at stage resonance: mod_freq must be positive"),
        (("tomo",), "[run]\nseed = -1\n", "config [run] seed: need at least 0, got -1"),
        (("tomo", "--seed", "-1"), "", "config [run] seed: need at least 0, got -1"),
    ]:
        cfgf.write_text(text)
        code, _, err = run(capsys, *command, "--config", str(cfgf),
                           "--out-dir", str(out_dir))
        assert code == 1
        assert message in err
        assert not out_dir.exists()


def test_tomo_requires_gatespec(capsys, tmp_path):
    code, _, err = run(capsys, "tomo", "--out-dir", str(tmp_path))
    assert code == 1
    assert "config [tomo] gatespec_file is required" in err


def test_chevron_csv_json_and_bad_durations(capsys, tmp_path, device):
    cfgf = tmp_path / "run.ini"
    cfgf.write_text("[chevron]\namp_points = 3\ndur_points = 7\n")
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    code, out, err = run(capsys, "chevron", "--config", str(cfgf),
                         "--out-dir", str(csv_dir))
    assert code == 0, err
    rows = [[float(c) for c in ln.split(",")] for ln in
            (csv_dir / "chevron.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert [len(r) for r in rows] == [7, 7, 7]
    grid = json.loads((csv_dir / "chevron_grid.json").read_text())
    assert len(grid["amplitudes_phi0"]) == 3 and len(grid["durations_ns"]) == 7
    vals = summary_values(out)
    assert vals["max_population"] == max(map(max, rows))  # bit for bit
    assert vals["file"] == str(csv_dir / "chevron.csv")
    # the chevron starts from the calibration's own analytic operating point
    _, report = calibrate_gate(device, "iswap", refine=False)
    point = grid["operating_point"]
    assert point["analytic_amplitude_phi0"] == report["resonance"]["amplitude_phi0"]
    assert point["analytic_duration_ns"] == report["duration"]["analytic_ns"]

    code, out, err = run(capsys, "chevron", "--config", str(cfgf),
                         "--out-dir", str(json_dir), "--format", "json")
    assert code == 0, err
    assert sorted(p.name for p in json_dir.iterdir()) == ["chevron.json"]
    doc = json.loads((json_dir / "chevron.json").read_text())
    assert doc["populations"] == rows
    for key in ("amplitudes_phi0", "durations_ns", "initial", "target", "basis",
                "operating_point"):
        assert doc[key] == grid[key]
    assert summary_values(out)["file"] == str(json_dir / "chevron.json")

    cfgf.write_text("[chevron]\namp_points = 3\ndur_points = 7\n"
                    "dur_start_ns = -20\n")
    code, _, err = run(capsys, "chevron", "--config", str(cfgf),
                       "--out-dir", str(tmp_path / "bad"))
    assert code == 1
    assert "durations must be positive and finite" in err
    assert not (tmp_path / "bad").exists()

    for key, n in (("amp_points", -1), ("dur_points", 0)):
        cfgf.write_text(f"[chevron]\n{key} = {n}\n")
        code, _, err = run(capsys, "chevron", "--config", str(cfgf),
                           "--out-dir", str(tmp_path / "bad"))
        assert code == 1
        assert f"config [chevron] {key}: need at least 1, got {n}" in err
        assert not (tmp_path / "bad").exists()


def test_calibrate_cz_reads_the_gate_cz_section(capsys, tmp_path):
    cfgf = tmp_path / "run.ini"
    cfgf.write_text("[gate.iswap]\nmod_freq_ghz = 0.29\n"
                    "[gate.cz]\nmod_freq_ghz = 0.2805\nrefine = false\n")
    code, out, err = run(capsys, "calibrate", "cz", "--config", str(cfgf),
                         "--out-dir", str(tmp_path))
    assert code == 0, err
    assert summary_values(out)["file"] == str(tmp_path / "gatespec_cz20.json")
    report = json.loads((tmp_path / "report_cz20.json").read_text())
    assert report["kind"] == "cz20"
    assert report["mod_freq_ghz"] == 0.2805
    assert "refine" not in report
    # without refinement the trim fits leaky candidates; their warnings
    # go into the report, not to stderr
    assert err == "" and report["tomography"]["warnings"]
    spec = json.loads((tmp_path / "gatespec_cz20.json").read_text())
    assert spec["mod_freq_ghz"] == 0.2805


def test_calibrate_cz02_fails_with_stage(capsys, tmp_path):
    code, _, err = run(capsys, "calibrate", "cz02", "--out-dir", str(tmp_path))
    assert code == 1
    assert "calibration failed at stage resonance:" in err
    assert "resonance unreachable" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "device")[0] == 2
    assert run(capsys, "calibrate")[0] == 2


def test_device_file_without_section_header_is_a_labelled_error(capsys, tmp_path):
    dev = tmp_path / "headless.ini"
    dev.write_text("ejs_ghz = 1.0\n")
    cfgf = tmp_path / "run.ini"
    cfgf.write_text(f"[device]\nfile = {dev}\n")
    code, _, err = run(capsys, "device", "show", "--config", str(cfgf))
    assert code == 1
    assert err.startswith("error: cannot parse device file")
    assert str(dev) in err


# A hand-written iSWAP gate spec; the cases below break one field of it.
_GATESPEC = {"kind": "iswap", "amplitude_phi0": 0.1566, "mod_freq_ghz": 0.28,
             "duration_ns": 57.1, "coupler_bias_phi0": 0.29472}


@pytest.mark.parametrize("doc,tomo,message", [
    ([1, 2], "", "gate spec must be a JSON object, got list"),
    ({**_GATESPEC, "virtual_z_rad": [0.1, 0.2, 0.3]}, "",
     "virtual_z needs exactly two angles"),
    (_GATESPEC, "shots = -5\n", "shots must be >= 0"),
    ({**_GATESPEC, "duration_ns": None}, "", "gate spec field 'duration_ns'"),
    ({**_GATESPEC, "virtual_z_rad": 3.0}, "", "gate spec field 'virtual_z_rad'"),
    ({**_GATESPEC, "duration_ns": float("inf")}, "", "duration must be finite"),
    ({**_GATESPEC, "amplitude_phi0": float("nan")}, "", "amplitude must be finite"),
    (_GATESPEC, "readout_f0_q1 = 1.5\n",
     "config [tomo] readout_f0_q1: must lie in [0, 1], got 1.5"),
    (_GATESPEC, "readout_f1_q2 = -0.1\n",
     "config [tomo] readout_f1_q2: must lie in [0, 1], got -0.1"),
    (_GATESPEC, "readout_f0_q2 = nan\n",
     "config [tomo] readout_f0_q2: not a finite number: 'nan'"),
], ids=["not_an_object", "three_virtual_z", "negative_shots", "null_duration",
        "scalar_virtual_z", "infinite_duration", "nan_amplitude",
        "readout_above_one", "readout_below_zero", "readout_nan"])
def test_tomo_bad_input_is_a_labelled_error(capsys, tmp_path, doc, tomo, message):
    spec = tmp_path / "gatespec.json"
    spec.write_text(json.dumps(doc))
    cfgf = tmp_path / "run.ini"
    cfgf.write_text(f"[tomo]\ngatespec_file = {spec}\n{tomo}")
    code, _, err = run(capsys, "tomo", "--config", str(cfgf),
                       "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: ") and message in err


def test_tomo_json_format_writes_the_ptm_as_json(capsys, tmp_path):
    spec = tmp_path / "gatespec.json"
    spec.write_text(json.dumps(_GATESPEC))
    cfgf = tmp_path / "run.ini"
    cfgf.write_text(f"[tomo]\ngatespec_file = {spec}\nshots = 0\n")
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    assert run(capsys, "tomo", "--config", str(cfgf), "--out-dir", str(csv_dir))[0] == 0
    code, out, err = run(capsys, "tomo", "--config", str(cfgf),
                         "--out-dir", str(json_dir), "--format", "json")
    assert code == 0, err
    assert sorted(p.name for p in json_dir.iterdir()) == [
        "ptm_iswap.json", "tomo_report_iswap.json"]
    assert summary_values(out)["file"] == str(json_dir / "ptm_iswap.json")
    assert_same_table(csv_dir / "ptm_iswap.csv", json_dir / "ptm_iswap.json")
    doc = json.loads((json_dir / "ptm_iswap.json").read_text())
    # a row per output Pauli, a column per input Pauli
    assert doc["columns"].keys() == {"pauli", *PAULI_LABELS}
    assert doc["columns"]["pauli"] == list(PAULI_LABELS)
    assert doc["columns"]["II"][0] == pytest.approx(1.0, abs=1e-12)
    csv_hash = (csv_dir / "ptm_iswap.csv").read_text().splitlines()[1]
    assert csv_hash != f"# config_hash: {doc['meta']['config_hash']}"  # the format is hashed
    reports = [json.loads((d / "tomo_report_iswap.json").read_text())
               for d in (csv_dir, json_dir)]
    for key in ("kind", "shots", "leakage", "virtual_z_rad"):
        assert reports[0][key] == reports[1][key]
    assert reports[0]["kind"] == "iswap" and reports[0]["shots"] == 0


def test_default_config_hashes_are_pinned(capsys, tmp_path):
    # Values written by the tool before its metadata code was refactored;
    # the hash covers the device, format, seed, command and its settings.
    def meta_line(path):
        return next(ln for ln in path.read_text().splitlines()
                    if ln.startswith("# config_hash:"))

    out = str(tmp_path)
    assert run(capsys, "sweep", "coupling", "--out-dir", out)[0] == 0
    assert meta_line(tmp_path / "sweep_coupling.csv") == "# config_hash: 2d2b23978ecd"
    assert run(capsys, "flux", "invert", "--out-dir", out)[0] == 0
    assert meta_line(tmp_path / "compensation.csv") == "# config_hash: b38fe28f201f"
    assert run(capsys, "transfer", "apply", "--out-dir", out)[0] == 0
    doc = json.loads((tmp_path / "transfer_apply.json").read_text())
    assert doc["meta"]["config_hash"] == "c9e7280dda2b"


def test_calibrate_and_tomo_chain(capsys, tmp_path):
    cfgf = tmp_path / "run.ini"
    cfgf.write_text(
        "[coherence]\n"
        "t1_q1_us = 70\nt1_q2_us = 56\n"
        "t2star_q1_us = 14\nt2star_q2_us = 10\n"
        "[tomo]\n"
        f"gatespec_file = {tmp_path / 'gatespec_iswap.json'}\n"
    )
    code, out, err = run(capsys, "calibrate", "iswap", "--config", str(cfgf),
                         "--out-dir", str(tmp_path))
    assert code == 0, err
    vals = summary_values(out)
    assert vals["F_avg"] > 0.999
    assert abs(vals["theta"] + np.pi / 2) < 0.01
    report = json.loads((tmp_path / "report_iswap.json").read_text())
    from paramres.tomography import CoherenceTimes, coherence_fidelity_iswap

    ct = CoherenceTimes(t1_q1=70, t1_q2=56, t2s_q1=14, t2s_q2=10)
    assert report["coherence"]["f_avg_limit"] == pytest.approx(
        coherence_fidelity_iswap(ct, vals["duration_ns"]), abs=1e-9)

    code, out, err = run(capsys, "tomo", "--config", str(cfgf),
                         "--out-dir", str(tmp_path))
    assert code == 0, err
    vals = summary_values(out)
    assert vals["F_avg"] > 0.999
    assert vals["leakage"] < 1e-3
    tomo = json.loads((tmp_path / "tomo_report_iswap.json").read_text())
    assert tomo["kind"] == "iswap" and tomo["leakage"] < 1e-3
    # the table is R[i, j] = Tr(P_i E(P_j))/4 (a transposed R would score
    # about 0.2), and it reproduces the summary F_avg bit for bit
    table = read_table(tmp_path / "ptm_iswap.csv")
    assert table["pauli"] == list(PAULI_LABELS)
    ptm = np.array([[float(c) for c in table[label]] for label in PAULI_LABELS]).T
    ideal = ptm_of_unitary(fsim_unitary(-np.pi / 2, 0.0))
    assert average_fidelity(ptm, ideal) == vals["F_avg"]


def test_tomo_shot_noise_reproducible_by_seed(capsys, tmp_path, monkeypatch):
    # A clock that ticks on every call: runs differ in their timestamps, and
    # stable_lines must still find the rest of each file identical.
    ticks = itertools.count()
    monkeypatch.setattr("paramres.cli._utc_now",
                        lambda: f"2026-01-01T00:00:{next(ticks):02d}Z")
    cfgf = tmp_path / "run.ini"
    cfgf.write_text(
        "[tomo]\n"
        f"gatespec_file = {tmp_path / 'gatespec_iswap.json'}\n"
        "shots = 300\n"
        "readout_f0_q1 = 0.97\nreadout_f1_q1 = 0.94\n"
        "readout_f0_q2 = 0.96\nreadout_f1_q2 = 0.95\n"
    )
    assert run(capsys, "calibrate", "iswap", "--out-dir", str(tmp_path))[0] == 0

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out_dir, seed in ((a, "7"), (b, "7"), (c, "8")):
        code, _, err = run(capsys, "tomo", "--config", str(cfgf),
                           "--seed", seed, "--out-dir", str(out_dir))
        assert code == 0 and err == "", err
        # 300 shots with readout errors give a visibly non-unitary channel,
        # which the report records instead of warning on stderr
        report = json.loads((out_dir / "tomo_report_iswap.json").read_text())
        assert report["unitarity_defect"] > 0.05
        assert report["warnings"] == [
            "channel is far from unitary; the fSim fit may not be meaningful"]
    assert stable_lines(a / "ptm_iswap.csv") == stable_lines(b / "ptm_iswap.csv")
    assert stable_lines(a / "ptm_iswap.csv") != stable_lines(c / "ptm_iswap.csv")


def test_every_command_writes_the_one_layout(capsys, tmp_path):
    # Every command once in csv and once in json: each JSON artifact carries
    # the run metadata under "meta", each CSV opens with the three metadata
    # lines, and the two forms of a table hold the same floats.
    commands = [("device", "show"), ("sweep", "coupling"), ("chevron",),
                ("calibrate", "iswap"), ("tomo",), ("flux", "invert"),
                ("transfer", "apply")]
    tables = ("sweep_coupling", "compensation", "ptm_iswap")
    dirs = {fmt: tmp_path / fmt for fmt in ("csv", "json")}
    for fmt, out_dir in dirs.items():
        cfgf = tmp_path / f"{fmt}.ini"
        cfgf.write_text("[sweep]\npoints = 5\n"
                        "[chevron]\namp_points = 3\ndur_points = 5\n"
                        "[gate.iswap]\nrefine = false\n"
                        f"[tomo]\ngatespec_file = {out_dir / 'gatespec_iswap.json'}\n")
        for command in commands:
            code, _, err = run(capsys, *command, "--config", str(cfgf),
                               "--out-dir", str(out_dir), "--format", fmt)
            assert code == 0 and err == "", (command, err)

    common = {"gatespec_iswap.json", "report_iswap.json", "tomo_report_iswap.json",
              "transfer_apply.json"}
    assert {p.name for p in dirs["csv"].iterdir()} == common | {
        "chevron.csv", "chevron_grid.json", *(f"{t}.csv" for t in tables)}
    assert {p.name for p in dirs["json"].iterdir()} == common | {
        "chevron.json", *(f"{t}.json" for t in tables)}
    for path in itertools.chain(*(d.iterdir() for d in dirs.values())):
        if path.suffix == ".json":
            meta = json.loads(path.read_text())["meta"]
            assert meta.keys() == {"tool", "config_hash", "generated"}, path.name
            assert meta["tool"].startswith("paramres ")
        else:
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# paramres ")
            assert lines[1].startswith("# config_hash: ")
            assert lines[2].startswith("# generated: ")
            if path.stem == "chevron":  # a matrix; the sidecar names its axes
                assert lines[3].startswith("# rows:")
            else:  # a header row of column names
                assert not lines[3].startswith("#"), path.name
            assert len(lines) > 4
    for stem in tables:
        assert_same_table(dirs["csv"] / f"{stem}.csv", dirs["json"] / f"{stem}.json")
