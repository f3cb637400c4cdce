"""Command-line entry point for reproducible simulation and calibration runs.

Every command reads one INI run configuration (--config; keys carry unit
suffixes), writes its artifacts into an output directory, and prints a
one-line key=value summary.  ``--format ini`` only applies to ``device
show``; other commands reject it.  Exit codes: 0 success, 1 labeled
failure, 2 usage.

All artifacts share one layout, written by ``_write_json`` and
``RunConfig.table_path``.  A JSON artifact is an object whose ``meta``
holds the tool version, ``config_hash`` (a hash of the effective
settings) and the ``generated`` timestamp.  A table (coupling sweep,
crosstalk compensation, PTM) is ``<stem>.csv``: the three lines
``# paramres <version>``, ``# config_hash: ...`` and ``# generated:
...``, a header row of column names, then one line per row.  With
``--format json`` it is ``<stem>.json`` holding ``meta`` and
``columns`` (name -> list).  The chevron CSV is a population matrix with
a ``# rows:`` line in place of the header and its axes in a
``chevron_grid.json`` sidecar.  Summary
floats and CSV cells are written at round-trip precision (the shortest
``repr``), so a CSV and a JSON artifact of one run hold the same floats.
Rerunning with the same configuration and seed reproduces every byte
except the timestamp, which sits on its own ``generated`` line.
"""

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .calibration import (GATES, CalibrationError, calibrate_gate, gate_unitary,
                          load_gatespec, operating_point, sweet_spot_pulse)
from .device import (bundled_path, device_params, load_bundled_device,
                     load_device, save_device)
from .dynamics import chevron
from .effective import dressed_computational_basis, static_couplings
from .fluxcontrol import (apply_transfer, compensate_crosstalk,
                          load_crosstalk_csv, load_transfer_csv)
from .tomography import (PAULI_LABELS, CoherenceTimes, average_fidelity,
                         confusion_matrix, fit_fsim, fsim_unitary,
                         phase_error, ptm_of_unitary, ptm_unitarity_defect,
                         simulate_qpt, virtual_z_correct, _wrap_angle)

OUT_DIR_ENV = "PARAMRES_OUT_DIR"
FORMATS = ("csv", "json", "ini")

# CLI gate tokens -> (calibration kind, [gate.*] config section); "cz" is
# the CZ20 gate, and cz02 a transition with no gate of its own
_GATE_TOKENS = {"iswap": ("iswap", "gate.iswap"), "cz": ("cz20", "gate.cz"),
                "cz20": ("cz20", "gate.cz"), "cz02": ("cz02", "gate.cz")}


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    return x


def _file_fingerprint(path) -> str:
    """Content hash of an input file, 12 hex characters.

    Generation timestamps written by this tool's own output routines are
    ignored, so feeding a re-produced but otherwise identical file into a
    later command yields the same config hash.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        lines = [ln for ln in raw.splitlines()
                 if not ln.lstrip().startswith(b"# generated")]
        return hashlib.sha256(b"\n".join(lines)).hexdigest()[:12]
    if isinstance(doc, dict) and isinstance(doc.get("meta"), dict):
        doc["meta"].pop("generated", None)
    blob = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _input_fingerprint(path) -> str:
    """Fingerprint of an optional input file; "bundled" when none is set."""
    return _file_fingerprint(path) if path else "bundled"


def _fmt_cell(v) -> str:
    # repr(float) is the shortest string that parses back to the same float
    return v if isinstance(v, str) else repr(float(v))


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, meta: dict, header: str, rows) -> None:
    """Metadata comment lines, one header line, then one line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {meta['tool']}\n# config_hash: {meta['config_hash']}\n"
                 f"# generated: {meta['generated']}\n{header}\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _summary(**kv) -> int:
    parts = []
    for key, val in kv.items():
        # float() first: numpy >= 2 reprs np.float64 as "np.float64(...)"
        parts.append(f"{key}={float(val)!r}" if isinstance(val, float)
                     else f"{key}={val}")
    print(" ".join(parts))
    return 0


class RunConfig:
    """Effective run settings: INI values overridden by flags and environment."""

    def __init__(self, args):
        self.cp = configparser.ConfigParser()
        path = getattr(args, "config", None)
        if path is not None:
            try:
                if not self.cp.read(path):
                    raise ValueError(f"config file not found: {path}")
            except configparser.Error as exc:
                raise ValueError(f"config parse error: {exc}") from None
        self.out_dir = (getattr(args, "out_dir", None)
                        or os.environ.get(OUT_DIR_ENV)
                        or self.get("run", "out_dir", "."))
        self.format = getattr(args, "format", None) or self.get("run", "format", "csv")
        if self.format not in FORMATS:
            raise ValueError(f"config [run] format: must be one of {FORMATS}, "
                             f"got {self.format!r}")
        seed = getattr(args, "seed", None)
        self.seed = self.getint("run", "seed", 0) if seed is None else seed
        if self.seed < 0:
            raise ValueError(f"config [run] seed: need at least 0, got {self.seed}")
        self.device_file = self.get("device", "file", None)

    def get(self, section, key, fallback=None):
        return self.cp.get(section, key, fallback=fallback)

    def _typed(self, getter, what, section, key, fallback):
        try:
            return getter(section, key, fallback=fallback)
        except ValueError:
            raise ValueError(
                f"config [{section}] {key}: not {what}: "
                f"{self.cp.get(section, key)!r}") from None

    def getfloat(self, section, key, fallback=None):
        value = self._typed(self.cp.getfloat, "a number", section, key, fallback)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"config [{section}] {key}: not a finite number: "
                             f"{self.cp.get(section, key)!r}")
        return value

    def getint(self, section, key, fallback=None, minimum=None):
        value = self._typed(self.cp.getint, "an integer", section, key, fallback)
        if minimum is not None and value < minimum:
            raise ValueError(f"config [{section}] {key}: need at least {minimum}, "
                             f"got {value}")
        return value

    def getbool(self, section, key, fallback=None):
        return self._typed(self.cp.getboolean, "a boolean", section, key, fallback)

    def load_device(self):
        if self.device_file is None:
            return load_bundled_device()
        return load_device(self.device_file)

    def meta(self, cmd: str, **settings) -> dict:
        """Output metadata; config_hash covers the run and command settings."""
        settings = {"device": _input_fingerprint(self.device_file),
                    "format": self.format, "seed": self.seed, "cmd": cmd,
                    **settings}
        blob = json.dumps(_jsonable(settings), sort_keys=True)
        return {"tool": f"paramres {__version__}",
                "config_hash": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12],
                "generated": _utc_now()}

    def outpath(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def table_path(self, stem: str, meta: dict, columns: dict) -> str:
        if self.format == "json":
            path = self.outpath(stem + ".json")
            _write_json(path, {"meta": meta, "columns": columns})
        else:
            path = self.outpath(stem + ".csv")
            _write_csv(path, meta, ",".join(columns), zip(*columns.values()))
        return path


def cmd_device_show(cfg: RunConfig, args) -> int:
    device = cfg.load_device()
    if cfg.format == "ini":
        save_device(sys.stdout, device)
        return 0
    p = device_params(device)
    print(f"qubit1 : f01 = {p.f1:.4f} GHz  eta = {p.eta1 * 1e3:.1f} MHz")
    print(f"qubit2 : f01 = {p.f2:.4f} GHz  eta = {p.eta2 * 1e3:.1f} MHz")
    print(f"coupler: f01 = {p.fc:.4f} GHz  eta = {p.etac * 1e3:.1f} MHz")
    print(f"g1c = {p.g1c * 1e3:.1f} MHz  g2c = {p.g2c * 1e3:.1f} MHz  "
          f"g12 = {p.g12 * 1e3:.1f} MHz")
    print(f"sqrt(g1c*g2c) = {math.sqrt(p.g1c * p.g2c) * 1e3:.1f} MHz")
    print(f"g1c/(fc-f1) = {p.g1c / (p.fc - p.f1):.4f}  "
          f"g2c/(fc-f2) = {p.g2c / (p.fc - p.f2):.4f}")
    return 0


def cmd_sweep_coupling(cfg: RunConfig, args) -> int:
    device = cfg.load_device()
    start = cfg.getfloat("sweep", "phic_start_phi0", 0.0)
    stop = cfg.getfloat("sweep", "phic_stop_phi0", 0.32)
    points = cfg.getint("sweep", "points", 65, minimum=2)
    phi1 = cfg.getfloat("sweep", "phi1_phi0", 0.0)
    phi2 = cfg.getfloat("sweep", "phi2_phi0", 0.0)
    meta = cfg.meta("sweep coupling", phic_start_phi0=start, phic_stop_phi0=stop,
                    points=points, phi1_phi0=phi1, phi2_phi0=phi2)

    phics = np.linspace(start, stop, points)
    fcs, effs = [], []
    for phic in phics:
        p = device_params(device, phi1=phi1, phic=float(phic), phi2=phi2)
        fcs.append(p.fc)
        effs.append(static_couplings(p))
    columns = {
        "phic_phi0": phics,
        "fc_ghz": fcs,
        "f01_1_ghz": [e.f01_1 for e in effs],
        "f01_2_ghz": [e.f01_2 for e in effs],
        "g01_ghz": [e.g01 for e in effs],
        "g02_ghz": [e.g02 for e in effs],
        "g20_ghz": [e.g20 for e in effs],
        "delta1_ghz": [e.delta1 for e in effs],
        "delta2_ghz": [e.delta2 for e in effs],
    }
    path = cfg.table_path("sweep_coupling", meta, columns)

    g01 = np.array(columns["g01_ghz"])
    flips = np.flatnonzero(np.sign(g01[:-1]) != np.sign(g01[1:]))
    if flips.size:
        i = int(flips[0])
        crossing = float(phics[i] - g01[i] * (phics[i + 1] - phics[i])
                         / (g01[i + 1] - g01[i]))
    else:
        crossing = float("nan")
    return _summary(points=points, g01_dc_mhz=float(g01[0] * 1e3),
                    zero_crossing_phi0=crossing, file=path)


def cmd_chevron(cfg: RunConfig, args) -> int:
    device = cfg.load_device()
    gate = cfg.get("chevron", "gate", "iswap")
    kind = _GATE_TOKENS.get(gate, (None,))[0]
    if kind not in GATES:
        raise ValueError(f"config [chevron] gate: must be iswap or cz, got {gate!r}")
    coupler_bias = cfg.getfloat("chevron", "coupler_bias_phi0",
                                GATES[kind].coupler_bias)
    mod_freq = cfg.getfloat("chevron", "mod_freq_ghz", GATES[kind].mod_freq)
    basis_kind = cfg.get("chevron", "basis", "dressed")
    if basis_kind not in ("dressed", "bare"):
        raise ValueError(
            f"config [chevron] basis: must be dressed or bare, got {basis_kind!r}")
    initial = cfg.get("chevron", "initial", GATES[kind].prepared)
    amp_points = cfg.getint("chevron", "amp_points", 9, minimum=1)
    dur_points = cfg.getint("chevron", "dur_points", 49, minimum=1)

    p, a0, _, tau0 = operating_point(device, kind, coupler_bias, mod_freq)
    amps = np.linspace(cfg.getfloat("chevron", "amp_start_phi0", a0 - 0.006),
                       cfg.getfloat("chevron", "amp_stop_phi0", a0 + 0.006),
                       amp_points)
    durs = np.linspace(cfg.getfloat("chevron", "dur_start_ns", 0.25 * tau0),
                       cfg.getfloat("chevron", "dur_stop_ns", 1.75 * tau0),
                       dur_points)
    meta = cfg.meta("chevron", gate=gate, coupler_bias_phi0=coupler_bias,
                    mod_freq_ghz=mod_freq, basis=basis_kind, initial=initial,
                    amplitudes_phi0=amps, durations_ns=durs)

    basis = dressed_computational_basis(p) if basis_kind == "dressed" else None
    chev = chevron(p, sweet_spot_pulse(a0, mod_freq), device.q2, amps, durs,
                   initial=initial, basis=basis)

    grid = {
        "meta": meta,
        "amplitudes_phi0": chev.amplitudes,
        "durations_ns": chev.durations,
        "initial": chev.initial,
        "target": chev.target,
        "basis": basis_kind,
        "operating_point": {
            "coupler_bias_phi0": coupler_bias, "mod_freq_ghz": mod_freq,
            "f1_ghz": p.f1, "f2_ghz": p.f2, "fc_ghz": p.fc,
            "analytic_amplitude_phi0": a0, "analytic_duration_ns": tau0,
        },
    }
    if cfg.format == "json":
        path = cfg.outpath("chevron.json")
        _write_json(path, {**grid, "populations": chev.populations})
    else:
        path = cfg.outpath("chevron.csv")
        _write_csv(path, meta,
                   "# rows: amplitudes_phi0; columns: durations_ns (see sidecar)",
                   chev.populations)
        _write_json(cfg.outpath("chevron_grid.json"), grid)
    i, j = np.unravel_index(int(np.argmax(chev.populations)),
                            chev.populations.shape)
    return _summary(max_population=float(chev.populations[i, j]),
                    amplitude_phi0=float(chev.amplitudes[i]),
                    duration_ns=float(chev.durations[j]), file=path)


def cmd_calibrate(cfg: RunConfig, args) -> int:
    kind, section = _GATE_TOKENS[args.kind]
    coupler_bias = cfg.getfloat(section, "coupler_bias_phi0", None)
    mod_freq = cfg.getfloat(section, "mod_freq_ghz", None)
    guard_band = cfg.getfloat(section, "guard_band_ghz", 0.020)
    refine = cfg.getbool(section, "refine", True)
    meta = cfg.meta("calibrate", kind=kind, coupler_bias_phi0=coupler_bias,
                    mod_freq_ghz=mod_freq, guard_band_ghz=guard_band, refine=refine)

    device = cfg.load_device()
    spec, report = calibrate_gate(device, kind, coupler_bias=coupler_bias,
                                  mod_freq=mod_freq, guard_band=guard_band,
                                  refine=refine)
    if cfg.cp.has_section("coherence"):
        times = []  # in the field order of CoherenceTimes
        for key in ("t1_q1_us", "t1_q2_us", "t2star_q1_us", "t2star_q2_us"):
            times.append(cfg.getfloat("coherence", key, None))
            if times[-1] is None:
                raise ValueError(f"config [coherence] {key} is required")
        ct = CoherenceTimes(*times)
        gate = GATES[kind]
        report["coherence"] = {"f_avg_limit": float(gate.coherence(ct, spec.duration))}
        if gate.coherence_note:
            report["coherence"]["note"] = gate.coherence_note

    spec_path = cfg.outpath(f"gatespec_{kind}.json")
    _write_json(spec_path, {**spec.to_dict(), "meta": meta})
    report_path = cfg.outpath(f"report_{kind}.json")
    _write_json(report_path, {"meta": meta, **report})
    tomo = report["tomography"]
    return _summary(F_avg=tomo["f_avg"], theta=tomo["theta_rad"],
                    phi=tomo["phi_rad"], leakage=tomo["leakage"],
                    duration_ns=spec.duration, amplitude_phi0=spec.amplitude,
                    file=spec_path)


def cmd_tomo(cfg: RunConfig, args) -> int:
    spec_file = cfg.get("tomo", "gatespec_file", None)
    if spec_file is None:
        raise ValueError("config [tomo] gatespec_file is required")
    shots = cfg.getint("tomo", "shots", 0)
    fids = {key: cfg.getfloat("tomo", f"readout_{key}", 1.0)
            for key in ("f0_q1", "f1_q1", "f0_q2", "f1_q2")}
    for key, value in fids.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"config [tomo] readout_{key}: must lie in [0, 1], "
                             f"got {value!r}")
    meta = cfg.meta("tomo", gatespec=_file_fingerprint(spec_file), shots=shots,
                    **{f"readout_{k}": v for k, v in fids.items()})

    spec = load_gatespec(spec_file)
    device = cfg.load_device()
    p, u = gate_unitary(device, spec)
    basis = dressed_computational_basis(p)
    m = basis.conj().T @ u @ basis
    confusions = None
    if any(v < 1.0 for v in fids.values()):
        confusions = (confusion_matrix(fids["f0_q1"], fids["f1_q1"]),
                      confusion_matrix(fids["f0_q2"], fids["f1_q2"]))
    pt = simulate_qpt(m, shots=shots, confusions=confusions, seed=cfg.seed)
    corrected = virtual_z_correct(pt, *spec.virtual_z)
    # shot noise and readout errors can make the channel look non-unitary;
    # the report records that instead of stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_fsim(corrected)
    target = GATES[spec.kind].fsim
    f_avg = average_fidelity(corrected, ptm_of_unitary(fsim_unitary(*target)))
    phase_err = phase_error(_wrap_angle(fit.phi - target[1]))

    # R[i, j] = Tr(P_i E(P_j))/4: a row per output Pauli, a column per input
    ptm_path = cfg.table_path(f"ptm_{spec.kind}", meta, {
        "pauli": list(PAULI_LABELS),
        **{label: corrected.ptm[:, j] for j, label in enumerate(PAULI_LABELS)}})
    report = {
        "meta": meta, "kind": spec.kind, "shots": shots,
        "f_avg": float(f_avg), "theta_rad": fit.theta, "phi_rad": fit.phi,
        "leakage": pt.leakage, "phase_error": float(phase_err),
        "fit_fidelity": fit.fidelity_to_fit,
        "virtual_z_rad": list(spec.virtual_z),
        "unitarity_defect": ptm_unitarity_defect(corrected),
        "warnings": [str(w.message) for w in caught],
    }
    _write_json(cfg.outpath(f"tomo_report_{spec.kind}.json"), report)
    return _summary(F_avg=float(f_avg), theta=fit.theta, phi=fit.phi,
                    leakage=pt.leakage, phase_error=float(phase_err),
                    file=ptm_path)


def cmd_flux_invert(cfg: RunConfig, args) -> int:
    path = cfg.get("flux", "crosstalk_file", None)
    ct = load_crosstalk_csv(path or str(bundled_path("crosstalk.csv")))
    raw = cfg.get("flux", "target_phi0", f"0, {GATES['iswap'].coupler_bias!r}, 0")
    try:
        target = [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise ValueError(
            f"config [flux] target_phi0: not a comma-separated number list: "
            f"{raw!r}") from None
    if not all(map(math.isfinite, target)):
        raise ValueError(f"config [flux] target_phi0: not a finite number list: "
                         f"{raw!r}")
    if len(target) != ct.matrix.shape[0]:
        raise ValueError(
            f"config [flux] target_phi0: need {ct.matrix.shape[0]} entries "
            f"(one per line {ct.labels}), got {len(target)}")
    meta = cfg.meta("flux invert", crosstalk=_input_fingerprint(path),
                    target_phi0=target)

    setting = compensate_crosstalk(ct, target)
    residual = float(np.max(np.abs(ct.matrix @ setting - np.asarray(target))))
    out = cfg.table_path("compensation", meta, {
        "line": list(ct.labels),
        "target_phi0": target,
        "setting_phi0": setting,
    })
    kv = {f"{label}_phi0": float(s) for label, s in zip(ct.labels, setting)}
    return _summary(**kv, max_residual_phi0=residual,
                    cond=float(ct.condition_number), file=out)


def cmd_transfer_apply(cfg: RunConfig, args) -> int:
    path = cfg.get("transfer", "file", None)
    table = load_transfer_csv(path or str(bundled_path("transfer.csv")))
    requested = cfg.getfloat("transfer", "requested_amp_phi0", 0.155)
    if requested < 0.0:
        raise ValueError(f"config [transfer] requested_amp_phi0: must be >= 0, "
                         f"got {requested!r}")
    mod_freq = cfg.getfloat("transfer", "mod_freq_ghz", GATES["iswap"].mod_freq)
    meta = cfg.meta("transfer apply", transfer=_input_fingerprint(path),
                    requested_amp_phi0=requested, mod_freq_ghz=mod_freq)

    ratio = apply_transfer(table, 1.0, mod_freq)
    result = {
        "meta": meta,
        "requested_amp_phi0": requested,
        "mod_freq_ghz": mod_freq,
        "amplitude_ratio": ratio,
        "achieved_amp_phi0": requested * ratio,
        "compensated_request_phi0": requested / ratio,
    }
    out = cfg.outpath("transfer_apply.json")
    _write_json(out, result)
    return _summary(ratio=ratio, achieved_amp_phi0=requested * ratio,
                    compensated_request_phi0=requested / ratio, file=out)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="run configuration INI file")
    common.add_argument("--out-dir", dest="out_dir", metavar="DIR",
                        help=f"output directory (overrides ${OUT_DIR_ENV} "
                             "and [run] out_dir)")
    common.add_argument("--seed", type=int,
                        help="random seed for shot sampling (overrides [run] seed)")
    common.add_argument("--format", choices=FORMATS,
                        help="table format; 'ini' echoes the device file "
                             "(device show only)")

    parser = argparse.ArgumentParser(
        prog="paramres",
        description="simulate and calibrate parametric-resonance two-qubit "
                    "gates on a tunable-coupler transmon pair")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    device = sub.add_parser("device", help="device file utilities")
    device_sub = device.add_subparsers(dest="action", required=True,
                                       metavar="action")
    show = device_sub.add_parser("show", parents=[common],
                                 help="print derived device parameters")
    show.set_defaults(func=cmd_device_show)

    sweep = sub.add_parser("sweep", help="parameter sweeps")
    sweep_sub = sweep.add_subparsers(dest="action", required=True,
                                     metavar="action")
    coupling = sweep_sub.add_parser(
        "coupling", parents=[common],
        help="static effective couplings versus coupler flux")
    coupling.set_defaults(func=cmd_sweep_coupling)

    chev = sub.add_parser("chevron", parents=[common],
                          help="population map versus amplitude and duration")
    chev.set_defaults(func=cmd_chevron)

    cal = sub.add_parser("calibrate", parents=[common],
                         help="run the full gate calibration pipeline")
    cal.add_argument("kind", choices=tuple(_GATE_TOKENS),
                     help="gate to calibrate (cz is the |11>-|20> phase gate)")
    cal.set_defaults(func=cmd_calibrate)

    tomo = sub.add_parser("tomo", parents=[common],
                          help="process tomography of a calibrated gate")
    tomo.set_defaults(func=cmd_tomo)

    flux = sub.add_parser("flux", help="flux crosstalk utilities")
    flux_sub = flux.add_subparsers(dest="action", required=True,
                                   metavar="action")
    invert = flux_sub.add_parser(
        "invert", parents=[common],
        help="bias settings compensating crosstalk for a target flux vector")
    invert.set_defaults(func=cmd_flux_invert)

    transfer = sub.add_parser("transfer", help="flux-line transfer utilities")
    transfer_sub = transfer.add_subparsers(dest="action", required=True,
                                           metavar="action")
    apply_p = transfer_sub.add_parser(
        "apply", parents=[common],
        help="scale a requested amplitude by the line transfer function")
    apply_p.set_defaults(func=cmd_transfer_apply)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = RunConfig(args)
        if cfg.format == "ini" and args.func is not cmd_device_show:
            raise ValueError("--format ini is only supported by 'device show'")
        return args.func(cfg, args)
    except CalibrationError as exc:
        print(f"error: calibration failed at stage {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
