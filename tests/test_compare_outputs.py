"""tools/compare_outputs.py on two small documents."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_largest_move_per_key_and_named_differences(tmp_path, capsys):
    a = {"gate": {"theta": -1.5, "phi": 0.25, "kind": "iswap", "ok": True},
         "chevron": {"populations": [[0.1, 0.2], [0.3, 0.4]]},
         "sweep": [1.0, 2.0], "old": 1}
    b = {"gate": {"theta": -1.5 + 1e-10, "phi": 0.25, "kind": "cz20", "ok": False},
         "chevron": {"populations": [[0.1, 0.2 + 3e-3], [0.3 - 5e-3, 0.4]]},
         "sweep": [1.0, 2.0, 3.0], "new": 2}
    moves, others = compare_outputs.compare(a, b)
    # list positions fold into their key, which keeps its largest move
    assert moves == {"gate.theta": abs(b["gate"]["theta"] - a["gate"]["theta"]),
                     "gate.phi": 0.0,
                     "chevron.populations": abs(0.3 - 5e-3 - 0.3)}
    assert others == ["gate.kind: 'iswap' -> 'cz20'", "gate.ok: True -> False",
                      "new: only in b", "old: only in a", "sweep: 2 entries against 3"]

    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    assert compare_outputs.main([str(p) for p in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "chevron.populations  0.005", "gate.theta  1e-10",
        "1 of 3 numeric keys identical",
        *(f"differs: {line}" for line in others)]
