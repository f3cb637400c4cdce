"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload drives paramres only through public functions and
``cli.main``, looked up on the module at call time so that a tracer's
wrappers are seen.  An operation returns its physics outputs; ``checks``
turns them into (name, error, limit) triples from the acceptance
criteria of ``tests/test_acceptance.py``, and an operation passes only
when every error is within its limit.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from paramres import calibration, cli, dynamics
from paramres.device import load_bundled_device

#: The seed moves the modulation frequency by at most this much (GHz)
#: around the 0.28 GHz default.  Within 1 MHz the iSWAP swap-angle error
#: already ranges over its whole acceptance window, and at 3 MHz it fails,
#: because the duration trim picks another grid point.  Within 20 kHz the
#: physics stays close to the default operating point, so each seed has
#: its own inputs while every gate keeps the margin it has there.
MOD_FREQ_WINDOW = 2e-5

#: Coupler biases of acceptance criterion 5 (flux quanta).
SWEEP_BIASES = (0.0, 0.04, 0.17, 0.20, 0.23, 0.26, 0.29)

#: Shot-sampled tomography settings of the CLI chain: readout
#: fidelities as in the CLI tests, shots enough for a stable estimate.
TOMO_SHOTS = 1000
READOUT = {"f0_q1": 0.97, "f1_q1": 0.94, "f0_q2": 0.96, "f1_q2": 0.95}


def warm_up():
    """Load what a first operation would otherwise load lazily."""
    t = np.linspace(0.0, 100.0, 64)
    dynamics.fit_exchange(t, 0.5 - 0.5 * np.cos(2.0 * math.pi * 0.01 * t))


def mod_freq_for(seed: int, kind: str) -> float:
    """Modulation frequency for a seed; seed 0 gives the default exactly."""
    base = calibration.DEFAULT_MOD_FREQ[kind]
    if seed == 0:
        return base
    rng = np.random.default_rng([seed % 2**63, 0x6d6f64])
    return base + float(rng.uniform(-MOD_FREQ_WINDOW, MOD_FREQ_WINDOW))


def _wrap(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def gate_physics(kind: str, spec, report) -> dict:
    """Physics outputs of a calibrated gate, from its report."""
    tomo = report["tomography"]
    theta_target = -0.5 * math.pi if kind == "iswap" else 0.0
    phi_target = 0.0 if kind == "iswap" else math.pi
    return {
        "infidelity": 1.0 - tomo["f_avg"],
        "theta_err_rad": abs(_wrap(tomo["theta_rad"] - theta_target)),
        "phi_err_rad": abs(_wrap(tomo["phi_rad"] - phi_target)),
        "leakage": tomo["leakage"],
        "consistency_err": abs(report["consistency"]["duration_coupling_product"] - 1.0),
        "g_eff_ghz": report["coupling"]["g_eff_ghz"],
        "duration_ns": spec.duration,
    }


def gate_checks(kind: str, phys: dict):
    """Acceptance criterion 6 (iswap) or 7 (cz20) as (name, error, limit)."""
    if kind == "iswap":
        return [
            ("infidelity", phys["infidelity"], 1e-3),
            ("theta_err_rad", phys["theta_err_rad"], 0.01),
            ("phi_err_rad", phys["phi_err_rad"], 0.05),
            ("leakage", phys["leakage"], 1e-3),
            ("consistency_err", phys["consistency_err"], 0.02),
        ]
    return [
        ("g20_err_ghz", abs(phys["g_eff_ghz"] - 4.0e-3), 0.5e-3),
        ("duration_err", abs(phys["duration_ns"] / 124.0 - 1.0), 0.2),
        ("theta_err_rad", phys["theta_err_rad"], 0.02),
        ("phi_err_rad", phys["phi_err_rad"], 0.1),
        ("consistency_err", phys["consistency_err"], 0.05),
    ]


def sweep_physics(device, biases) -> dict:
    """Dynamic versus static |g01| at each bias, as relative errors."""
    g_dyn, g_stat = dynamics.coupling_vs_bias(device, list(biases))
    rel = np.abs(g_dyn - np.abs(g_stat)) / np.abs(g_stat)
    return {f"g_rel_err@{b:g}": float(r) for b, r in zip(biases, rel)}


def sweep_checks(phys: dict):
    """Acceptance criterion 5: every relative error within 5%."""
    return [(name, err, 0.05) for name, err in sorted(phys.items())]


class CalCz20:
    """``calibrate_gate(device, "cz20")``, bound by propagation."""

    name = "cal_cz20"

    def __init__(self, seed, workdir):
        self.device = load_bundled_device()
        self.mod_freq = mod_freq_for(seed, "cz20")
        self.inputs = {"kind": "cz20", "mod_freq_ghz": self.mod_freq}

    def run(self):
        return calibration.calibrate_gate(self.device, "cz20",
                                          mod_freq=self.mod_freq)

    def physics(self, result):
        return gate_physics("cz20", *result)

    def checks(self, phys):
        return gate_checks("cz20", phys)


class CliIswap:
    """``paramres calibrate iswap`` then ``paramres tomo`` with shots."""

    name = "cli_iswap"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.mod_freq = mod_freq_for(seed, "iswap")
        self.inputs = {"kind": "iswap", "mod_freq_ghz": self.mod_freq,
                       "tomo_seed": seed, "shots": TOMO_SHOTS, **READOUT}

    def _config(self, out_dir):
        path = os.path.join(out_dir, "run.ini")
        readout = "".join(f"readout_{k} = {v!r}\n" for k, v in READOUT.items())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"[gate.iswap]\nmod_freq_ghz = {self.mod_freq!r}\n"
                     f"[tomo]\ngatespec_file = "
                     f"{os.path.join(out_dir, 'gatespec_iswap.json')}\n"
                     f"shots = {TOMO_SHOTS}\n{readout}")
        return path

    def run(self):
        out_dir = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        config = self._config(out_dir)
        common = ["--config", config, "--out-dir", out_dir]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = (cli.main(["calibrate", "iswap", *common]),
                     cli.main(["tomo", "--seed", str(self.seed), *common]))
        return out_dir, codes, log.getvalue()

    def physics(self, result):
        out_dir, codes, log = result
        try:
            if codes != (0, 0):
                raise RuntimeError(f"cli exit codes {codes}: {log.strip()}")
            with open(os.path.join(out_dir, "gatespec_iswap.json"),
                      encoding="utf-8") as fh:
                spec = calibration.GateSpec.from_dict(json.load(fh))
            with open(os.path.join(out_dir, "report_iswap.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            with open(os.path.join(out_dir, "tomo_report_iswap.json"),
                      encoding="utf-8") as fh:
                tomo = json.load(fh)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        phys = gate_physics("iswap", spec, report)
        phys["tomo_infidelity"] = 1.0 - tomo["f_avg"]
        phys["tomo_leakage"] = tomo["leakage"]
        return phys

    def checks(self, phys):
        return gate_checks("iswap", phys) + [
            ("tomo_leakage", phys["tomo_leakage"], 1e-3)]


class CouplingSweep:
    """``coupling_vs_bias`` over the biases of acceptance criterion 5."""

    name = "coupling_sweep"

    def __init__(self, seed, workdir):
        self.device = load_bundled_device()
        order = (np.arange(len(SWEEP_BIASES)) if seed == 0 else
                 np.random.default_rng([seed % 2**63, 0x737770]).permutation(len(SWEEP_BIASES)))
        self.biases = tuple(SWEEP_BIASES[i] for i in order)
        self.inputs = {"biases_phi0": list(self.biases)}

    def run(self):
        return sweep_physics(self.device, self.biases)

    def physics(self, result):
        return result

    def checks(self, phys):
        return sweep_checks(phys)


WORKLOADS = {w.name: w for w in (CalCz20, CliIswap, CouplingSweep)}
