"""Span tracing of paramres from outside the package.

A ``Tracer`` wraps every public function of the package's layer modules
and binds each wrapper wherever the function's name is looked up: the
defining module and every ``paramres`` module that imported it by name
(``calibration`` and ``cli`` do so for ``propagate``, ``chevron``,
``fit_fsim`` and more).  ``numpy.linalg.eigh`` is wrapped too, so that
eigendecompositions are counted in the span that made them.  Spans stay
in memory; ``layer_metrics`` reduces the spans of one operation to the
per-layer metrics, and the caller writes the raw spans out at the end.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "paramres"

#: The package's layers are its modules.
LAYERS = ("circuit", "spectrum", "device", "fluxcontrol", "effective",
          "dynamics", "calibration", "tomography", "cli")

# span record fields
NAME, PARENT, START, END, SIZE, ERROR, EIGH, TAG = range(8)


def _propagate_size(args, kwargs, result):
    return result.n_steps


def _propagate_tag(args, kwargs):
    # calibrate_gate makes one snapshot propagation (duration trim) and one
    # sampled propagation (consistency trace); the stages are told apart by
    # the keyword that requests each.
    if kwargs.get("unitary_times") is not None:
        return "unitary_times"
    if kwargs.get("n_samples", 0):
        return "n_samples"
    return None


def _phi_size(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["phi_e"]))


#: Element sizes recorded per span: steps taken by a propagation and flux
#: points evaluated by the transmon band.
SIZERS = {
    "dynamics.propagate": _propagate_size,
    "spectrum.transition_frequency": _phi_size,
}
TAGGERS = {"dynamics.propagate": _propagate_tag}


def layer_functions():
    """{span name: function} for the public functions of every layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found[f"{layer}.{attr}"] = value
    return found


class Tracer:
    """In-memory span recorder; ``installed()`` patches and restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizer, tagger = SIZERS.get(name), TAGGERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0, False, 0,
                    tagger(args, kwargs) if tagger else None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if sizer:
                span[SIZE] = sizer(args, kwargs, result)
            return result

        return traced

    def _wrap_eigh(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def eigh(*args, **kwargs):
            if stack:
                spans[stack[-1]][EIGH] += 1
            return fn(*args, **kwargs)

        return eigh

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Bind a wrapper everywhere a layer function is looked up."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in layer_functions().items()}
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        self._patch(np.linalg, "eigh", self._wrap_eigh(np.linalg.eigh))

    def restore(self):
        """Put every patched name back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def _outermost(spans, i):
    """True when no ancestor span of span i has the same name."""
    name = spans[i][NAME]
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return False
        parent = spans[parent][PARENT]
    return True


def layer_metrics(spans, names=()):
    """Per-layer metrics of one operation from its spans.

    ``<layer>.<function>.calls`` counts calls, ``.s`` is inclusive time of
    the outermost calls, ``.failed`` counts calls that raised, ``.size``
    sums recorded element sizes and ``.eigh`` counts eigendecompositions
    made directly inside the function.  Derived metrics follow the
    metric list in the benchmark's README.  Functions in ``names`` that
    were never called read 0.
    """
    out = {f"{name}.{field}": 0 for name in names
           for field in ("calls", "failed", "size", "eigh", "s")}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    stage = {"chevron_s": 0.0, "trim_s": 0.0, "consistency_s": 0.0}
    for i, span in enumerate(spans):
        name = span[NAME]
        seconds = span[END] - span[START]
        add(f"{name}.calls", 1)
        add(f"{name}.failed", int(span[ERROR]))
        add(f"{name}.size", span[SIZE])
        add(f"{name}.eigh", span[EIGH])
        if _outermost(spans, i):
            add(f"{name}.s", seconds)
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != "calibration.calibrate_gate":
            continue
        if name == "dynamics.chevron":
            stage["chevron_s"] += seconds
        elif (name.startswith("tomography.")
              or (name == "dynamics.propagate" and span[TAG] == "unitary_times")):
            stage["trim_s"] += seconds
        elif (name == "dynamics.fit_exchange"
              or (name == "dynamics.propagate" and span[TAG] == "n_samples")):
            stage["consistency_s"] += seconds
    for key, value in stage.items():
        out[f"calibration.stage.{key}"] = value

    steps = out.get("dynamics.propagate.size", 0)
    eighs = out.get("dynamics.propagate.eigh", 0)
    prop_s = out.get("dynamics.propagate.s", 0.0)
    out["dynamics.propagate.steps"] = steps
    out["dynamics.propagate.cache_hit_ratio"] = 1.0 - eighs / steps if steps else 0.0
    out["dynamics.propagate.us_per_step"] = 1e6 * prop_s / steps if steps else 0.0
    out["spectrum.transition_frequency.elements"] = out.get(
        "spectrum.transition_frequency.size", 0)
    return out
