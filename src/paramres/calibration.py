"""Parametric-resonance gate calibration.

The calibration chain mirrors how the gates are tuned up on hardware.
``operating_point`` gives the analytic starting point:

1. the device parameters at the coupler bias,
2. the q2 flux-modulation amplitude whose time-averaged frequency hits
   the resonance condition (``find_resonance_amplitude``),
3. the n = 0 sideband coupling of the gate transition
   (``modulated_couplings``) and the duration it sets
   (``set_duration``).

``calibrate_gate`` runs the whole chain from there: it checks the
modulation frequency against sideband collisions
(``sideband_collision_map``), refines amplitude and duration by one
bounded search in amplitude over rows of a simulated dressed chevron,
extracts virtual-Z angles, scores the gate with tomography and checks
the duration against a fitted exchange rate.  It
returns a GateSpec plus a JSON-ready report.  A failure raises
CalibrationError labelled with its stage, in the order they run:
setup, resonance, coupling, duration, collision, chevron, tomography,
consistency.  Durations are ns, frequencies GHz, fluxes flux quanta.
The modulated qubit is always qubit 2; the coupler bias is a static
input (the gate's default by default).

Each gate kind is one ``GateKind`` record in ``GATES``: its sideband
coupling, exchange cycles, chevron states, refinement durations, ideal
fSim angles, coherence limit and defaults.  The resonance targets of the
parametric transitions, which the resonance root and the collision map
share, sit in one table beside it.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .device import Device, device_params
from .dynamics import ChevronMap, chevron, fit_exchange, propagate
from .effective import (COMPUTATIONAL_INDICES, COMPUTATIONAL_LABELS,
                        average_and_excursion, dressed_computational_basis,
                        modulated_couplings)
from .fluxcontrol import FluxPulse
from .tomography import (
    average_fidelity,
    coherence_fidelity_cz,
    coherence_fidelity_iswap,
    extract_virtual_z,
    fit_fsim,
    fsim_unitary,
    qubit_subspace_ptm,
    virtual_z_correct,
)


@dataclass(frozen=True)
class GateKind:
    """What the calibration chain and the CLI know about one gate kind."""

    coupling: str        # sideband coupling key of the gate transition
    cycles: float        # exchange cycles per gate: tau * cycles * g = 1
    prepared: str        # chevron initial computational state
    recorded: str        # computational state whose population it records
    fsim: tuple          # ideal fSim angles (theta, phi)
    mod_freq: float      # default modulation frequency, GHz
    coupler_bias: float  # default coupler bias, flux quanta
    # durations of the refinement chevron rows: (start, stop) in units of
    # the analytic duration, and a step in ns
    duration_window: tuple
    coherence: Callable  # coherence-limited F_avg(CoherenceTimes, tau_ns)
    coherence_note: str = ""


# Defaults for the bundled device.  The iSWAP bias targets an effective
# g01 of 4.5 MHz, the CZ bias a g20 of 4.03 MHz (124 ns full cycle).  At
# 0.28 GHz both gates clear the recommended minimum of
# sideband_collision_map, which maps only the n = -2 qubit-qubit
# collisions; CZ20 still sits 13 MHz from the n = 3 sideband of the
# q2-coupler exchange (ROADMAP.md, "Stop the CZ20 gate leaking into the
# coupler").
GATES = {
    "iswap": GateKind(
        coupling="g01", cycles=4.0, prepared="10", recorded="01",
        fsim=(-0.5 * math.pi, 0.0), mod_freq=0.28, coupler_bias=0.29472,
        duration_window=(0.55, 1.35, 0.25), coherence=coherence_fidelity_iswap),
    "cz20": GateKind(
        coupling="g20", cycles=2.0, prepared="11", recorded="11",
        fsim=(0.0, math.pi), mod_freq=0.28, coupler_bias=0.30534,
        duration_window=(0.25, 1.25, 0.5), coherence=coherence_fidelity_cz,
        coherence_note="coherence times are those measured at the iSWAP "
                       "coupler bias; the CZ operating point can differ"),
}

GATE_KINDS = tuple(GATES)
DEFAULT_MOD_FREQ = {kind: gate.mod_freq for kind, gate in GATES.items()}
DEFAULT_COUPLER_BIAS = {kind: gate.coupler_bias for kind, gate in GATES.items()}

#: Resonance target (GHz) of each parametric transition: the average q2
#: frequency at which its n = 0 sideband drives it.  cz02 (|11> <-> |02>)
#: is a transition with no gate: the collision map tracks it, and a
#: calibration request for it fails at the resonance stage on this device.
_TRANSITIONS = {"iswap": lambda p: p.f1,
                "cz20": lambda p: p.f1 - p.eta1,
                "cz02": lambda p: p.f1 + p.eta2}

_RESIDUAL_TOL = 1e-6  # GHz; 1 kHz resonance residual
_AMPLITUDE_MAX = 0.45  # flux quanta; upper end of the root bracket

#: Half-width (flux quanta) of the amplitude window that refinement
#: searches about the analytic amplitude, and the default amplitude span
#: of ``paramres chevron``.  The dressed resonance sits a few mPhi0 from
#: the analytic root (ROADMAP.md, "Put the analytic operating point where
#: the dressed gate is").
AMPLITUDE_WINDOW = 0.006
_AMPLITUDE_XATOL = 2e-5  # flux quanta; tolerance of the refinement search


class CalibrationError(RuntimeError):
    """Calibration failure carrying the pipeline stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Re-raise a ValueError from the block as a CalibrationError of ``name``."""
    try:
        yield
    except ValueError as exc:
        raise CalibrationError(name, str(exc)) from exc


def _gate(kind: str) -> GateKind:
    if kind not in GATES:
        raise ValueError(f"unknown gate kind {kind!r}")
    return GATES[kind]


@dataclass(frozen=True)
class GateSpec:
    """Settings fully describing one calibrated parametric gate."""

    kind: str                 # "iswap" | "cz20"
    amplitude: float          # q2 flux modulation amplitude, flux quanta
    mod_freq: float           # GHz
    duration: float           # ns
    coupler_bias: float       # flux quanta
    virtual_z: tuple = (0.0, 0.0)   # radians (qubit 1, qubit 2)
    resonance_residual: float = 0.0  # GHz, recorded root residual

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"kind must be one of {GATE_KINDS}, got {self.kind!r}")
        for name in ("amplitude", "mod_freq", "duration", "coupler_bias",
                     "resonance_residual"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.mod_freq <= 0.0:
            raise ValueError("mod_freq must be positive")
        if abs(self.resonance_residual) > _RESIDUAL_TOL:
            raise ValueError("resonance residual exceeds the 1 kHz tolerance")
        if len(self.virtual_z) != 2:
            raise ValueError("virtual_z needs exactly two angles (qubit 1, qubit 2), "
                             f"got {len(self.virtual_z)}")
        object.__setattr__(self, "virtual_z", tuple(float(z) for z in self.virtual_z))
        if not all(math.isfinite(z) for z in self.virtual_z):
            raise ValueError(f"virtual_z must be finite, got {self.virtual_z}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "amplitude_phi0": self.amplitude,
            "mod_freq_ghz": self.mod_freq,
            "duration_ns": self.duration,
            "coupler_bias_phi0": self.coupler_bias,
            "virtual_z_rad": list(self.virtual_z),
            "resonance_residual_ghz": self.resonance_residual,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GateSpec":
        """GateSpec from its JSON form: numbers must be JSON numbers, and
        virtual_z_rad a list of them."""
        if not isinstance(d, dict):
            raise ValueError(f"gate spec must be a JSON object, got {type(d).__name__}")

        def field(key, *default):
            if key not in d and not default:
                raise ValueError(f"gate spec is missing field {key!r}")
            return d.get(key, *default)

        def number(key, value):
            # bool is an int subclass, but JSON true is not a number
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"gate spec field {key!r}: not a number: {value!r}")
            try:
                return float(value)
            except OverflowError:
                raise ValueError(f"gate spec field {key!r}: out of range") from None

        zs = field("virtual_z_rad", [0.0, 0.0])
        if not isinstance(zs, list):
            raise ValueError(f"gate spec field 'virtual_z_rad': not a list: {zs!r}")
        return cls(
            kind=field("kind"),
            amplitude=number("amplitude_phi0", field("amplitude_phi0")),
            mod_freq=number("mod_freq_ghz", field("mod_freq_ghz")),
            duration=number("duration_ns", field("duration_ns")),
            coupler_bias=number("coupler_bias_phi0", field("coupler_bias_phi0")),
            virtual_z=tuple(number("virtual_z_rad", z) for z in zs),
            resonance_residual=number("resonance_residual_ghz",
                                      field("resonance_residual_ghz", 0.0)),
        )


def load_gatespec(path) -> GateSpec:
    with open(path, encoding="utf-8") as fh:
        return GateSpec.from_dict(json.load(fh))


def sweet_spot_pulse(amplitude: float, mod_freq: float,
                     duration: float = 100.0) -> FluxPulse:
    """Square q2 flux modulation about the upper sweet spot.

    Gates run from the upper sweet spot with no ramp: the modulated
    flux is continuous at turn-on there, and a raised-cosine ramp would
    drag the average frequency through the sideband collisions mapped
    out during calibration.  The default duration suits probes of the
    steady modulation (average frequency, sideband weights), which do
    not depend on it.
    """
    return FluxPulse(phi_dc=0.0, amplitude=amplitude, mod_freq=mod_freq,
                     duration=duration)


def gate_pulse(spec: GateSpec) -> FluxPulse:
    """The qubit-2 flux pulse realizing a GateSpec."""
    return sweet_spot_pulse(spec.amplitude, spec.mod_freq, spec.duration)


def gate_unitary(device: Device, spec: GateSpec):
    """Propagate a calibrated gate; returns (device params, 27x27 unitary)."""
    p = device_params(device, phic=spec.coupler_bias)
    prop = propagate(p, gate_pulse(spec), device.q2)
    return p, prop.unitary


def _average_frequency(q2_spec, amplitude: float, mod_freq: float) -> float:
    return average_and_excursion(q2_spec, sweet_spot_pulse(amplitude, mod_freq))[0]


def find_resonance_amplitude(kind: str, q2_spec, p, mod_freq: float) -> float:
    """Modulation amplitude putting the average q2 frequency on resonance.

    Solves fbar(A) = target by bracketed Brent over A in [0, 0.45],
    where the target is f1 (iswap), f1 - eta1 (cz20) or f1 + eta2
    (cz02).  fbar is monotone decreasing from the sweet spot, so the
    root is unique when it exists; a target outside [fbar(0.45),
    fbar(0)] raises "resonance unreachable", which is how a cz02
    request on this device fails.
    """
    from scipy.optimize import brentq

    if mod_freq <= 0.0:
        raise ValueError("mod_freq must be positive")
    if not isinstance(kind, str) or kind not in _TRANSITIONS:
        raise ValueError(f"unknown gate kind {kind!r}")
    target = _TRANSITIONS[kind](p)
    top = _average_frequency(q2_spec, 0.0, mod_freq)
    if abs(top - target) < _RESIDUAL_TOL:
        return 0.0
    bottom = _average_frequency(q2_spec, _AMPLITUDE_MAX, mod_freq)
    if not bottom <= target <= top:
        raise ValueError(
            f"resonance unreachable: {kind} needs an average frequency of "
            f"{target:.4f} GHz, but modulation reaches only "
            f"[{bottom:.4f}, {top:.4f}] GHz"
        )
    amplitude = brentq(
        lambda a: _average_frequency(q2_spec, a, mod_freq) - target,
        0.0,
        _AMPLITUDE_MAX,
        xtol=1e-12,
    )
    residual = _average_frequency(q2_spec, amplitude, mod_freq) - target
    if abs(residual) > _RESIDUAL_TOL:
        raise ValueError(
            f"resonance root residual {residual * 1e6:.2f} kHz exceeds 1 kHz"
        )
    return float(amplitude)


@dataclass(frozen=True)
class CollisionMap:
    """Sideband collision frequencies versus modulation amplitude.

    Each curve, keyed by transition name, is the modulation frequency
    (GHz) at which the n = -2 sideband of that transition becomes
    resonant; modulating below any curve risks driving that transition
    parasitically.
    """

    amplitudes: np.ndarray
    curves: dict
    guard_band: float
    recommended_min: float  # GHz

    def margin(self, mod_freq: float) -> float:
        """How far a modulation frequency clears the recommendation (GHz)."""
        return mod_freq - self.recommended_min


def sideband_collision_map(
    p, q2_spec, amplitudes, guard_band: float = 0.020
) -> CollisionMap:
    """Map of second-sideband collision frequencies over an amplitude grid.

    The collision frequencies are |fbar - target| / 2 for each
    parametric transition (iswap, cz20, cz02); the recommended minimum
    modulation frequency is the largest collision over the grid plus the
    guard band.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.size == 0:
        raise ValueError("amplitude grid must be nonempty")
    if not guard_band >= 0.0:  # NaN fails too
        raise ValueError(f"guard band must be >= 0, got {guard_band!r}")
    fbar = np.array([_average_frequency(q2_spec, a, 0.3) for a in amplitudes])
    curves = {name: np.abs(fbar - target(p)) / 2.0
              for name, target in _TRANSITIONS.items()}
    recommended = max(c.max() for c in curves.values()) + guard_band
    return CollisionMap(amplitudes=amplitudes, curves=curves,
                        guard_band=guard_band, recommended_min=float(recommended))


def default_collision_grid(p, q2_spec) -> np.ndarray:
    """48 amplitudes from zero to just past the deepest gate resonance.

    The far edge is the amplitude pulling the average frequency 30 MHz
    below the deepest gate target (CZ20's), so the map covers every
    amplitude a calibration could visit.
    """
    from scipy.optimize import brentq

    floor = min(_TRANSITIONS[kind](p) for kind in GATES) - 0.030
    bottom = _average_frequency(q2_spec, _AMPLITUDE_MAX, 0.3)
    if floor < bottom:
        edge = _AMPLITUDE_MAX
    else:
        edge = brentq(
            lambda a: _average_frequency(q2_spec, a, 0.3) - floor,
            0.0,
            _AMPLITUDE_MAX,
            xtol=1e-10,
        )
    return np.linspace(0.0, edge, 48)


def set_duration(kind: str, g_eff: float) -> float:
    """Gate duration from the effective coupling (GHz in, ns out).

    iSWAP runs for a half cycle of the population exchange,
    tau = 1/(4 g); CZ20 for a full |11> <-> |20> cycle, tau = 1/(2 g).
    """
    if g_eff <= 0.0:
        raise ValueError("effective coupling must be positive")
    return 1.0 / (_gate(kind).cycles * g_eff)


def operating_point(device: Device, kind: str, coupler_bias: float,
                    mod_freq: float):
    """Analytic operating point of a gate; returns (p, amplitude, mc, tau).

    Runs the setup, resonance, coupling and duration stages: the device
    parameters ``p`` at the coupler bias, the resonant modulation
    amplitude, the ModulatedCouplings ``mc`` of the sweet-spot pulse at
    that amplitude, and the duration set by the n = 0 sideband coupling
    of the gate transition.  A failure raises CalibrationError labelled
    with its stage.
    """
    with _stage("setup"):
        p = device_params(device, phic=coupler_bias)
    with _stage("resonance"):
        amplitude = find_resonance_amplitude(kind, device.q2, p, mod_freq)
    with _stage("coupling"):
        mc = modulated_couplings(p, sweet_spot_pulse(amplitude, mod_freq), device.q2)
        g_eff = abs(mc.sideband(0)[_gate(kind).coupling])
        if g_eff < 1e-5:
            raise ValueError("effective coupling vanishes at this coupler bias")
    with _stage("duration"):
        tau = set_duration(kind, g_eff)
    return p, amplitude, mc, tau


def _search_chevron(row: Callable[[float], ChevronMap], center: float):
    """Best point of a chevron by one bounded search in amplitude.

    ``row(a)`` is the chevron at the one amplitude ``a``.  The rule
    follows the chevron's observable.  A transfer chevron (iSWAP: |01>
    population from |10>) is searched for its largest transfer, and the
    duration is that of the largest transfer.  A return chevron (CZ20:
    |11> population from |11>) is searched for its deepest dip (the
    chevron center line, where the |11> -> |20> exchange is genuinely
    full), and the duration is where |11> has returned after that full
    cycle.  Bounded Brent searches center +- AMPLITUDE_WINDOW to an
    amplitude tolerance of _AMPLITUDE_XATOL.  Returns (amplitude,
    duration, rows evaluated); an optimum within two tolerances of an
    amplitude edge, or at an end of the durations, raises ValueError.
    """
    from scipy.optimize import minimize_scalar

    rows = {}

    def objective(a):
        chev = rows[a] = row(a)
        pops = chev.populations[0]
        return -pops.max() if chev.target != chev.initial else pops.min()

    lo, hi = center - AMPLITUDE_WINDOW, center + AMPLITUDE_WINDOW
    a = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                        options={"xatol": _AMPLITUDE_XATOL}).x
    chev = rows[a]
    pops = chev.populations[0]
    dip = 0 if chev.target != chev.initial else int(np.argmin(pops))
    j = dip + int(np.argmax(pops[dip:]))
    if min(a - lo, hi - a) < 2 * _AMPLITUDE_XATOL or j in (0, pops.size - 1):
        raise ValueError(
            f"chevron optimum at ({a:.5f} Phi0, {chev.durations[j]:.2f} ns) lies "
            "on the edge of the search window around the analytic operating point"
        )
    return float(a), float(chev.durations[j]), len(rows)


def calibrate_gate(
    device: Device,
    kind: str,
    coupler_bias: float | None = None,
    mod_freq: float | None = None,
    guard_band: float = 0.020,
    refine: bool = True,
):
    """Full calibration pipeline; returns (GateSpec, report dict).

    Stages: setup (gate kind and device parameters at the coupler bias),
    resonance root, effective coupling and duration (together the
    ``operating_point``), sideband collision check, chevron refinement,
    virtual-Z extraction and tomography, and the exchange-rate
    consistency check.  Any stage failure raises CalibrationError
    labeled with the stage name.  A cz02 request fails at the resonance
    stage on this device topology.
    """
    with _stage("setup"):
        if not isinstance(kind, str) or kind not in _TRANSITIONS:
            raise ValueError(f"unknown gate kind {kind!r}")
    # cz02 has no gate of its own: it runs on the CZ20 defaults until its
    # resonance stage fails
    gate = GATES.get(kind, GATES["cz20"])
    mod_freq = gate.mod_freq if mod_freq is None else mod_freq
    coupler_bias = gate.coupler_bias if coupler_bias is None else coupler_bias
    p, amplitude, mc, tau = operating_point(device, kind, coupler_bias, mod_freq)
    target = _TRANSITIONS[kind](p)
    residual = mc.f2_avg - target
    report: dict = {
        "kind": kind,
        "mod_freq_ghz": mod_freq,
        "coupler_bias_phi0": coupler_bias,
        "resonance": {
            "target_ghz": target,
            "amplitude_phi0": amplitude,
            "residual_ghz": float(residual),
            "f2_average_ghz": float(mc.f2_avg),
            "excursion_ghz": float(mc.f2_exc),
        },
        "coupling": {
            "g_eff_ghz": float(abs(mc.sideband(0)[gate.coupling])),
            "epsilon0": float(abs(mc.sideband(0)["eps"])),
            "epsilon1_abs": float(abs(mc.sideband(1)["eps"])),
            "epsilon2_abs": float(abs(mc.sideband(2)["eps"])),
        },
        "duration": {"analytic_ns": tau},
    }

    with _stage("collision"):
        cmap = sideband_collision_map(
            p, device.q2, default_collision_grid(p, device.q2), guard_band=guard_band
        )
    report["collision"] = {
        "recommended_min_ghz": cmap.recommended_min,
        "margin_ghz": float(cmap.margin(mod_freq)),
        "guard_band_ghz": guard_band,
    }

    spec = GateSpec(
        kind=kind,
        amplitude=amplitude,
        mod_freq=mod_freq,
        duration=tau,
        coupler_bias=coupler_bias,
        resonance_residual=float(residual),
    )
    basis = dressed_computational_basis(p)
    col_init, col_watch = map(COMPUTATIONAL_LABELS.index,
                              (gate.prepared, gate.recorded))
    if refine:
        template = gate_pulse(spec)
        start, stop, step = gate.duration_window
        durs = np.arange(start * tau, stop * tau, step)
        with _stage("chevron"):
            refined, duration, n_rows = _search_chevron(
                lambda a: chevron(p, template, device.q2, [a], durs,
                                  initial=gate.prepared, basis=basis),
                amplitude)
        spec = replace(spec, amplitude=refined, duration=duration)
        report["refine"] = {
            "amplitude_phi0": spec.amplitude,
            "amplitude_shift_phi0": spec.amplitude - amplitude,
            "duration_ns": spec.duration,
            "chevron_rows": n_rows,
        }

    # The population revival fixes the duration only to the exchange
    # envelope; the residual swap angle of the spectator channel
    # oscillates at its detuning (a few ns period) and its zeros are
    # fractions of a nanosecond wide, while the process fidelity is
    # nearly flat across them.  Trim the duration to the best fidelity
    # among grid points where the swap angle is on target, or failing
    # that to the smallest swap-angle error.  Candidates are fitted in
    # falling fidelity, so the fits stop at the first one on target.
    # Propagator snapshots make the whole grid cost a single propagation.
    theta_target, phi_target = gate.fsim
    target_u = fsim_unitary(theta_target, phi_target)
    ideal_pt = qubit_subspace_ptm(target_u)

    def scored(tau_c, u):
        m = basis.conj().T @ u @ basis
        z1, z2 = extract_virtual_z(m, target_u)
        corrected = qubit_subspace_ptm(virtual_z_correct(m, z1, z2))
        return (average_fidelity(corrected, ideal_pt), float(tau_c), z1, z2,
                corrected, m)

    with _stage("tomography"):
        grid = spec.duration + np.arange(-4.0, 4.0001, 0.0625)
        grid = grid[grid > 0.0]
        trim = propagate(p, replace(gate_pulse(spec), duration=float(grid[-1])),
                         device.q2, unitary_times=grid)
        rows = [scored(t, u) for t, u
                in zip(trim.unitary_times, trim.unitaries)]
        fits = []  # (theta error, duration, fit, row)
        # a leaky candidate's fit warns; the report records that
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for row in sorted(rows, key=lambda r: r[0], reverse=True):
                fit = fit_fsim(row[4])
                err = abs(math.remainder(fit.theta - theta_target, math.tau))
                fits.append((err, row[1], fit, row))
                if err <= 0.015:
                    break
        # the one fit on target, else the smallest error (earlier on ties)
        _, _, fit, best = min(fits)
        f_avg, tau_best, z1, z2, corrected, m = best
        spec = replace(spec, duration=tau_best, virtual_z=(z1, z2))
        transfer = abs(m[col_watch, col_init]) ** 2
    report["tomography"] = {
        "f_avg": float(f_avg),
        "theta_rad": fit.theta,
        "phi_rad": fit.phi,
        "leakage": corrected.leakage,
        "virtual_z_rad": [z1, z2],
        "target_population": float(transfer),
        "duration_ns": tau_best,
        "warnings": [str(w.message) for w in caught],
    }

    # Consistency: the fitted exchange rate at the refined amplitude
    # should tie the duration to tau*4g = 1 (iswap) or tau*2g = 1 (cz).
    with _stage("consistency"):
        trace_pulse = replace(gate_pulse(spec), duration=3.0 * spec.duration)
        tr = propagate(p, trace_pulse, device.q2,
                       initial_state=COMPUTATIONAL_INDICES[col_init], n_samples=720)
        pop = np.abs(tr.trajectory[:, COMPUTATIONAL_INDICES[col_watch]]) ** 2
        ef = fit_exchange(tr.times, pop)
        product = spec.duration * gate.cycles * ef.g
    report["consistency"] = {
        "g_fit_ghz": float(ef.g),
        "duration_coupling_product": float(product),
        "fit_residual": ef.residual,
        "fit_evaluations": ef.n_evaluations,
    }
    return spec, report
