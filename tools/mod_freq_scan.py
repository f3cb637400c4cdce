"""Print the calibrated gates over a scan of modulation-frequency offsets.

    python tools/mod_freq_scan.py [src_dir]

For iswap and cz20, ``calibrate_gate`` runs at the gate's default
modulation frequency plus each offset in ``OFFSETS_MHZ``, at the default
coupler bias.  Each run prints one canonical JSON line (sorted keys,
floats as their ``repr``) holding the refinement's amplitude shift,
duration and chevron rows, and the gate's duration, f_avg, fSim angle
errors, leakage, step error (``dynamics.step_error`` of the calibrated
gate on its dressed computational columns) and duration-coupling
product.  A key that the calibrated package does not report, or a
function that it lacks, prints as null, and a failed
calibration prints its stage and message, so two checkouts can be
compared line by line:

    python tools/mod_freq_scan.py > change.jsonl
    python tools/mod_freq_scan.py ../parent/src > parent.jsonl

``src_dir`` is the directory holding the ``paramres`` package to run;
it defaults to the ``src`` directory next to this tool.
"""

import json
import math
import sys
from pathlib import Path

#: Modulation-frequency offsets (MHz) from each gate's default.
OFFSETS_MHZ = (-10, -5, -3, -1, 0, 1, 3, 5, 10)


def _angle_error(angle: float, target: float) -> float:
    return abs(math.remainder(angle - target, math.tau))


def scan():
    """Yield one JSON-ready dict per (gate kind, offset)."""
    from paramres import dynamics
    from paramres.calibration import GATES, CalibrationError, calibrate_gate, gate_pulse
    from paramres.device import device_params, load_bundled_device
    from paramres.effective import dressed_computational_basis

    def step_error(spec):
        if not hasattr(dynamics, "step_error"):
            return None
        p = device_params(device, phic=spec.coupler_bias)
        return dynamics.step_error(p, gate_pulse(spec), device.q2,
                                   dressed_computational_basis(p))

    device = load_bundled_device()
    for kind, gate in GATES.items():
        for offset in OFFSETS_MHZ:
            row = {"kind": kind, "offset_mhz": offset}
            try:
                spec, report = calibrate_gate(device, kind,
                                              mod_freq=gate.mod_freq + offset * 1e-3)
            except CalibrationError as exc:
                yield {**row, "failed_stage": exc.stage, "error": str(exc)}
                continue
            refine, tomo = report["refine"], report["tomography"]
            theta, phi = gate.fsim
            yield {
                **row,
                "refine_shift_phi0": refine["amplitude_shift_phi0"],
                "refine_duration_ns": refine["duration_ns"],
                "chevron_rows": refine.get("chevron_rows"),
                "duration_ns": spec.duration,
                "f_avg": tomo["f_avg"],
                "theta_error_rad": _angle_error(tomo["theta_rad"], theta),
                "phi_error_rad": _angle_error(tomo["phi_rad"], phi),
                "leakage": tomo["leakage"],
                "step_error": step_error(spec),
                "tau_cycles_g": report["consistency"]["duration_coupling_product"],
            }


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0] if args else Path(__file__).parent.parent / "src")
    sys.path.insert(0, str(src.resolve()))
    for row in scan():
        print(json.dumps(row, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
