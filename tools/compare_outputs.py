"""Compare two documents of tools/reference_outputs.py key by key.

    python tools/compare_outputs.py parent.json change.json

A key is the dotted path of dictionary keys down to a value; list
positions are folded into the key, so a list of numbers (a chevron's
populations, say) is one key.  For each key that holds numbers in both
documents the tool prints the largest absolute move |b - a| over them,
one line per key that moved, then a count of the keys that did not.
Every other difference is named on a line of its own: a key in one
document only, lists of different lengths, or a string, boolean or null
that changed.
"""

import json
import math
import sys


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a, b):
    """(moves, others) between the documents a and b.

    moves maps each numeric key to its largest absolute move; others
    lists the non-numeric differences, one line each.
    """
    moves, others = {}, []

    def walk(x, y, key):
        if isinstance(x, dict) and isinstance(y, dict):
            for k in sorted(x.keys() | y.keys()):
                sub = f"{key}.{k}" if key else str(k)
                if k not in y or k not in x:
                    others.append(f"{sub}: only in {'a' if k in x else 'b'}")
                else:
                    walk(x[k], y[k], sub)
        elif isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                others.append(f"{key}: {len(x)} entries against {len(y)}")
            else:
                for u, v in zip(x, y):
                    walk(u, v, key)
        elif _is_number(x) and _is_number(y):
            move = 0.0 if x == y or (x != x and y != y) else abs(y - x)
            if math.isnan(move):
                others.append(f"{key}: {x!r} -> {y!r}")
            else:
                moves[key] = max(moves.get(key, 0.0), move)
        elif x != y:
            others.append(f"{key}: {x!r} -> {y!r}")

    walk(a, b, "")
    return moves, others


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_outputs.py a.json b.json", file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    moves, others = compare(*docs)
    for key in sorted(moves):
        if moves[key]:
            print(f"{key}  {moves[key]:.3g}")
    still = sum(1 for move in moves.values() if not move)
    print(f"{still} of {len(moves)} numeric keys identical")
    for line in others:
        print(f"differs: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
