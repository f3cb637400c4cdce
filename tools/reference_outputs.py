"""Print the default outputs of the calibration chain as one canonical JSON document.

    python tools/reference_outputs.py [src_dir]

The document holds the GateSpec and report of ``calibrate_gate`` for
iswap and cz20 at their defaults, small bare and dressed chevrons of
both gates about their analytic operating points, and the dynamic and
static couplings of ``coupling_vs_bias`` at the biases of acceptance
criterion 5.  Keys are sorted and floats written as their ``repr``, so
two checkouts that compute the same numbers print the same bytes:

    python tools/reference_outputs.py > change.json
    python tools/reference_outputs.py ../parent/src > parent.json
    cmp parent.json change.json

``src_dir`` is the directory holding the ``paramres`` package to run;
it defaults to the ``src`` directory next to this tool.
"""

import json
import sys
from pathlib import Path

#: Coupler biases of acceptance criterion 5 (flux quanta).
SWEEP_BIASES = (0.0, 0.04, 0.17, 0.20, 0.23, 0.26, 0.29)

#: Chevron initial state of each gate: |10> for the iSWAP exchange,
#: |11> for the CZ20 return.
CHEVRON_INITIAL = {"iswap": "10", "cz20": "11"}


def _plain(x):
    """x with numpy arrays and scalars turned into lists and Python numbers."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if hasattr(x, "tolist"):
        return _plain(x.tolist())
    return x


def reference_outputs() -> dict:
    import numpy as np

    from paramres.calibration import (DEFAULT_COUPLER_BIAS, DEFAULT_MOD_FREQ,
                                      calibrate_gate, operating_point,
                                      sweet_spot_pulse)
    from paramres.device import load_bundled_device
    from paramres.dynamics import chevron, coupling_vs_bias
    from paramres.effective import dressed_computational_basis

    device = load_bundled_device()
    doc = {"calibrate_gate": {}, "chevron": {}}
    for kind, initial in CHEVRON_INITIAL.items():
        spec, report = calibrate_gate(device, kind)
        doc["calibrate_gate"][kind] = {"spec": spec.to_dict(), "report": report}

        bias, mod_freq = DEFAULT_COUPLER_BIAS[kind], DEFAULT_MOD_FREQ[kind]
        p, a0, _, tau = operating_point(device, kind, bias, mod_freq)
        amps = a0 + np.linspace(-0.002, 0.002, 3)
        durs = np.linspace(0.5 * tau, 1.5 * tau, 5)
        bases = {"bare": None, "dressed": dressed_computational_basis(p)}
        for name, basis in bases.items():
            chev = chevron(p, sweet_spot_pulse(a0, mod_freq), device.q2, amps, durs,
                           initial=initial, basis=basis)
            doc["chevron"][f"{kind}_{name}"] = {
                "amplitudes": chev.amplitudes, "durations": chev.durations,
                "initial": chev.initial, "target": chev.target,
                "populations": chev.populations}

    g_dyn, g_stat = coupling_vs_bias(device, list(SWEEP_BIASES))
    doc["coupling_vs_bias"] = {"biases": SWEEP_BIASES, "g_dynamic": g_dyn,
                               "g_static": g_stat}
    return _plain(doc)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0] if args else Path(__file__).parent.parent / "src")
    sys.path.insert(0, str(src.resolve()))
    print(json.dumps(reference_outputs(), sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
