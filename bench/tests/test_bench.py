"""Tests of the benchmark harness: tracer transparency, checks, metrics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from paramres import calibration, cli, dynamics, tomography  # noqa: E402
from paramres.device import load_bundled_device  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every callable bound in a paramres module, plus numpy's eigh."""
    found = {("numpy.linalg", "eigh"): np.linalg.eigh}
    for modname, module in list(sys.modules.items()):
        if module is not None and modname.split(".")[0] == "paramres":
            for attr, value in vars(module).items():
                if callable(value):
                    found[(modname, attr)] = value
    return found


@pytest.fixture(scope="module")
def device():
    return load_bundled_device()


@pytest.fixture(scope="module")
def traced_calibration(device):
    """An uncorrected-duration iSWAP calibration, run plain and traced."""
    plain = calibration.calibrate_gate(device, "iswap", refine=False)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = calibration.calibrate_gate(device, "iswap", refine=False)
    return plain, traced, tracer.spans


def test_wrappers_bind_where_names_are_looked_up_and_restore():
    before = _bindings()
    originals = (dynamics.propagate, dynamics.chevron, tomography.fit_fsim,
                 np.linalg.eigh)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            assert calibration.propagate is dynamics.propagate
            assert calibration.chevron is dynamics.chevron
            assert cli.fit_fsim is tomography.fit_fsim
            assert calibration.fit_fsim is tomography.fit_fsim
            for now, original in zip((dynamics.propagate, dynamics.chevron,
                                      tomography.fit_fsim, np.linalg.eigh),
                                     originals):
                assert now is not original and now.__wrapped__ is original
            raise RuntimeError("inside")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_operation_is_bit_identical(traced_calibration, device):
    (spec_a, report_a), (spec_b, report_b), spans = traced_calibration
    assert spec_a == spec_b
    assert json.dumps(report_a, sort_keys=True) == json.dumps(report_b, sort_keys=True)
    assert (workloads.gate_physics("iswap", spec_a, report_a)
            == workloads.gate_physics("iswap", spec_b, report_b))

    plain = workloads.sweep_physics(device, (0.29,))
    with tracing.Tracer().installed():
        traced = workloads.sweep_physics(device, (0.29,))
    assert json.dumps(plain) == json.dumps(traced)


def test_layer_metrics_of_a_calibration(traced_calibration):
    spans = traced_calibration[2]
    m = tracing.layer_metrics(spans, tracing.layer_functions())
    assert m["calibration.calibrate_gate.calls"] == 1
    assert m["dynamics.chevron.calls"] == 0  # refine=False skips the chevron
    assert m["dynamics.propagate.calls"] == 2  # trim snapshots + consistency
    assert 0 < m["dynamics.propagate.eigh"] < m["dynamics.propagate.steps"]
    assert m["calibration.stage.trim_s"] > 0.0
    assert m["calibration.stage.consistency_s"] > 0.0
    assert m["calibration.stage.chevron_s"] == 0.0
    assert (m["calibration.stage.trim_s"] + m["calibration.stage.consistency_s"]
            <= m["calibration.calibrate_gate.s"])
    # nested calls of the same function count their time once
    assert m["tomography.fit_fsim.s"] <= m["calibration.calibrate_gate.s"]


def _record(ok=True, traced=False, wall=1.0, margin=0.5):
    return {"ok": ok, "traced": traced, "wall_s": wall, "margin": margin,
            "physics": {}, "misses": [], "error": None}


def test_every_listed_metric_is_computed(traced_calibration):
    e2e = bench_run.end_to_end_metrics([_record()], [0.3], 100.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}

    rows = [tracing.layer_metrics(traced_calibration[2], tracing.layer_functions())]
    layer = bench_run.per_layer_metrics(
        [_record(traced=True), _record()], rows)
    missing = {m["name"] for m in SPEC["per_layer"]} - set(layer)
    assert not missing


class _Fake:
    inputs = {}

    def __init__(self, error, raises=False):
        self.error, self.raises = error, raises

    def run(self):
        if self.raises:
            raise ValueError("operation failed")
        return self.error

    def physics(self, result):
        return {"err": result}

    def checks(self, phys):
        return [("err", phys["err"], 0.01)]


def test_missed_gate_counts_as_failed_and_is_not_timed():
    good = bench_run.run_one(_Fake(0.005), None)
    miss = bench_run.run_one(_Fake(0.02), None)
    crash = bench_run.run_one(_Fake(0.0, raises=True), None)
    assert good["ok"] and good["margin"] == pytest.approx(0.5)
    assert not miss["ok"] and miss["misses"] == ["err=0.02 > 0.01"]
    assert not crash["ok"] and "operation failed" in crash["error"]
    good["wall_s"], miss["wall_s"] = 1.0, 100.0
    m = bench_run.end_to_end_metrics([good, miss, crash], [0.3], 100.0)
    assert m["wall_s"] == 1.0
    assert m["pass_frac"] == pytest.approx(1 / 3)
    assert m["accept_margin"] == pytest.approx(-1.0)


def test_gate_checks_use_the_acceptance_limits():
    phys = {"infidelity": 2e-4, "theta_err_rad": 0.011, "phi_err_rad": 0.0,
            "leakage": 1e-4, "consistency_err": 0.01, "g_eff_ghz": 4.2e-3,
            "duration_ns": 124.0}
    misses = [n for n, e, lim in workloads.gate_checks("iswap", phys) if e > lim]
    assert misses == ["theta_err_rad"]
    assert all(e <= lim for _, e, lim in workloads.gate_checks("cz20", phys))
    assert not all(e <= lim for _, e, lim in
                   workloads.sweep_checks({"g_rel_err@0": 0.051}))


def test_seed_zero_uses_the_defaults():
    assert workloads.mod_freq_for(0, "cz20") == calibration.DEFAULT_MOD_FREQ["cz20"]
    near = [workloads.mod_freq_for(s, "iswap") for s in range(1, 20)]
    assert len(set(near)) == len(near)
    assert all(abs(f - 0.28) <= workloads.MOD_FREQ_WINDOW for f in near)
    assert near == [workloads.mod_freq_for(s, "iswap") for s in range(1, 20)]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cal_cz20", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
