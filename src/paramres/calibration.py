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
from .dynamics import ChevronMap, chevron, fit_exchange, modulation_step, propagate
from .effective import (COMPUTATIONAL_INDICES, COMPUTATIONAL_LABELS, DIM,
                        average_and_excursion, dressed_computational_basis,
                        modulated_couplings)
from .fluxcontrol import FluxPulse
from .tomography import (
    average_fidelity,
    block_average_fidelity,
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

DEFAULT_MOD_FREQ = {kind: gate.mod_freq for kind, gate in GATES.items()}

#: Default guard band (GHz) of the sideband collision check: the
#: recommended minimum modulation frequency clears the worst collision by it.
GUARD_BAND = 0.020

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
#: Amplitude tolerance (flux quanta) of the refinement search.  It sits
#: below the flat top of the CZ20 dip, so the search lands on the
#: chevron's optimum, not on wherever its path stops: at 2e-5 the CZ20
#: landing jumped by 6.7 uPhi0 (phi by 1e-3 rad) between modulation
#: frequencies 20 kHz apart, or when the chevron rows moved by 1e-5.
_AMPLITUDE_XATOL = 5e-6

#: Half-width (ns) of the duration trim's window about the refined
#: duration, and the pool (rad): the largest swap-angle error on target.
_TRIM_SPAN = 4.0
_THETA_POOL = 0.005


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


#: JSON key of each numeric GateSpec field, in field order; the last,
#: resonance_residual_ghz, may be absent and then reads 0.
_SPEC_KEYS = {"amplitude": "amplitude_phi0", "mod_freq": "mod_freq_ghz",
              "duration": "duration_ns", "coupler_bias": "coupler_bias_phi0",
              "resonance_residual": "resonance_residual_ghz"}


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
        if self.kind not in GATES:
            raise ValueError(f"kind must be one of {tuple(GATES)}, got {self.kind!r}")
        for name in _SPEC_KEYS:
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
        return {"kind": self.kind, "virtual_z_rad": list(self.virtual_z),
                **{key: getattr(self, name) for name, key in _SPEC_KEYS.items()}}

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
        # read in field order, so a spec with several faults reports the first
        kind = field("kind")
        *required, (residual, residual_key) = _SPEC_KEYS.items()
        values = {name: number(key, field(key)) for name, key in required}
        values["virtual_z"] = tuple(number("virtual_z_rad", z) for z in zs)
        values[residual] = number(residual_key, field(residual_key, 0.0))
        return cls(kind=kind, **values)


def load_gatespec(path) -> GateSpec:
    """GateSpec from a JSON file; a ValueError names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return GateSpec.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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


def gate_block(device: Device, spec: GateSpec) -> np.ndarray:
    """The calibrated gate's 4x4 block B^H (U B) on the dressed
    computational basis B.

    U B is cut at spec.duration at propagate's default step, the
    error-budget step of a modulated pulse, exactly as the duration trim
    of calibrate_gate cuts it, so the block is the one its report scores.
    A calibrated duration lies on that step grid, so the cut takes no
    partial step.
    """
    p = device_params(device, phic=spec.coupler_bias)
    basis = dressed_computational_basis(p)
    cut = propagate(p, gate_pulse(spec), device.q2, columns=basis).cuts[-1]
    return basis.conj().T @ cut


def _on_step_grid(pulse: FluxPulse, q2_spec, times) -> np.ndarray:
    """times rounded onto the step grid of pulse, sorted and without repeats.

    propagate cuts there with no partial step, so for free.
    """
    dt = modulation_step(pulse, q2_spec)
    return dt * np.unique(np.round(np.asarray(times) / dt))


#: Modulation frequency (GHz) of the probe pulse that fbar(A) is read
#: from.  fbar is a period average of the flux waveform, and
#: effective._period_samples samples one period in normalized time, so
#: neither fbar nor its samples depend on this value; any positive one
#: does.
_PROBE_FREQ = 1.0


def _average_frequency(q2_spec, amplitude: float) -> float:
    """fbar(A): the average q2 frequency (GHz) under sweet-spot modulation."""
    return average_and_excursion(q2_spec, sweet_spot_pulse(amplitude, _PROBE_FREQ))[0]


def find_resonance_amplitude(kind: str, q2_spec, p) -> float:
    """Modulation amplitude putting the average q2 frequency on resonance.

    Solves fbar(A) = target for A in [0, _AMPLITUDE_MAX], where the
    target is f1 (iswap), f1 - eta1 (cz20) or f1 + eta2 (cz02).  fbar
    falls monotonically from the sweet spot, so the root is unique when
    it exists; bracketed Brent finds it to 1e-12 Phi0, and a target
    within 1 kHz of fbar(0) gives 0.  The modulation frequency does not
    enter: it reaches the gate only through the sideband weights.  A
    target outside [fbar(_AMPLITUDE_MAX), fbar(0)] raises "resonance
    unreachable", which is how a cz02 request on this device fails.
    """
    from scipy.optimize import brentq

    if not isinstance(kind, str) or kind not in _TRANSITIONS:
        raise ValueError(f"unknown gate kind {kind!r}")
    target = _TRANSITIONS[kind](p)
    top = _average_frequency(q2_spec, 0.0)
    if abs(top - target) < _RESIDUAL_TOL:
        return 0.0
    bottom = _average_frequency(q2_spec, _AMPLITUDE_MAX)
    if not bottom <= target <= top:
        raise ValueError(
            f"resonance unreachable: {kind} needs an average frequency of "
            f"{target:.4f} GHz, but modulation reaches only "
            f"[{bottom:.4f}, {top:.4f}] GHz"
        )
    amplitude = float(brentq(lambda a: _average_frequency(q2_spec, a) - target,
                             0.0, _AMPLITUDE_MAX, xtol=1e-12))
    residual = _average_frequency(q2_spec, amplitude) - target
    if abs(residual) > _RESIDUAL_TOL:
        raise ValueError(
            f"resonance root residual {residual * 1e6:.2f} kHz exceeds 1 kHz"
        )
    return amplitude


@dataclass(frozen=True)
class CollisionMap:
    """Second-sideband collisions over the amplitudes a calibration could visit.

    ``worst`` maps each parametric transition (iswap, cz20, cz02) to its
    largest collision frequency (GHz): the modulation frequency at which
    the n = -2 sideband of that transition becomes resonant somewhere in
    the amplitude range.  Modulating below it risks driving that
    transition parasitically.
    """

    worst: dict
    guard_band: float
    recommended_min: float  # GHz

    def margin(self, mod_freq: float) -> float:
        """How far a modulation frequency clears the recommendation (GHz)."""
        return mod_freq - self.recommended_min


def sideband_collision_map(p, q2_spec, guard_band: float = GUARD_BAND) -> CollisionMap:
    """Worst second-sideband collision of each transition over the
    amplitudes a calibration could visit.

    The amplitudes run from zero to the edge where fbar lies 30 MHz
    below the deepest gate target (CZ20's, f1 - eta1), or to
    _AMPLITUDE_MAX if modulation cannot reach that far.  The collision
    frequencies are |fbar - target| / 2 for each parametric transition
    (iswap, cz20, cz02); the recommended minimum modulation frequency is
    the largest of them plus the guard band.

    Each collision is V-shaped in fbar and fbar falls monotonically with
    A, so its largest value over the range sits at one of the two ends:
    fbar(0), and the floor where modulation reaches it, else
    fbar(_AMPLITUDE_MAX).  Those two band averages are all the map
    computes.  On the bundled device the
    worst is cz02 at the edge, and the recommendation is
    (eta1 + eta2 + 30 MHz) / 2 + guard_band (269 MHz at the default
    guard band) at every coupler bias, since f1, eta1 and eta2 do not
    depend on it; neither does the modulation frequency.
    """
    if not guard_band >= 0.0:  # NaN fails too
        raise ValueError(f"guard band must be >= 0, got {guard_band!r}")
    if guard_band == math.inf:
        raise ValueError("guard band must be finite, got inf")
    floor = min(_TRANSITIONS[kind](p) for kind in GATES) - 0.030
    top, bottom = (_average_frequency(q2_spec, a) for a in (0.0, _AMPLITUDE_MAX))
    ends = (top, floor if bottom <= floor <= top else bottom)
    worst = {name: max(abs(f - target(p)) for f in ends) / 2.0
             for name, target in _TRANSITIONS.items()}
    return CollisionMap(worst=worst, guard_band=guard_band,
                        recommended_min=float(max(worst.values()) + guard_band))


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
        if mod_freq <= 0.0:
            raise ValueError("mod_freq must be positive")
        if not math.isfinite(mod_freq):
            raise ValueError(f"mod_freq must be finite, got {mod_freq}")
        amplitude = find_resonance_amplitude(kind, device.q2, p)
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
    guard_band: float = GUARD_BAND,
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

    The tomography section scores the block that gate_block returns for
    the calibrated spec, at the step it reports as ``dt_ns``.
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
        cmap = sideband_collision_map(p, device.q2, guard_band=guard_band)
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
        # each row on its own step grid, which moves with the amplitude
        with _stage("chevron"):
            refined, duration, n_rows = _search_chevron(
                lambda a: chevron(
                    p, template, device.q2, [a],
                    _on_step_grid(replace(template, amplitude=a), device.q2, durs),
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
    # among the times where the swap angle lies within _THETA_POOL of
    # its target, or failing that to the smallest swap-angle error.  The
    # candidates are every step-grid time within _TRIM_SPAN of the
    # duration, so no cut, and no gate_block at the pick, takes a partial
    # step; cuts of the dressed columns U(t) B make them cost a single
    # propagation, projected as B^H (U B) in one product.  Only the
    # candidates fitted get a PTM: in falling closed-form fidelity of
    # their frame-corrected blocks, first those whose closed-form swap
    # angle atan2(|M_01,10| + |M_10,01|, |M_01,01| + |M_10,10|) lies in
    # the pool, up to the first whose fitted angle does.  The picked
    # one's PTM gives the reported numbers.
    theta_target, phi_target = gate.fsim
    target_u = fsim_unitary(theta_target, phi_target)

    with _stage("tomography"):
        pulse = gate_pulse(spec)
        dt = modulation_step(pulse, device.q2)
        grid = dt * np.arange(max(1, math.ceil((spec.duration - _TRIM_SPAN) / dt)),
                              math.floor((spec.duration + _TRIM_SPAN) / dt) + 1)
        trim = propagate(p, replace(pulse, duration=float(grid[-1])),
                         device.q2, columns=basis, times=grid)
        ms = basis.conj().T @ trim.cuts
        z1, z2 = extract_virtual_z(ms, target_u)
        corrected = virtual_z_correct(ms, z1, z2)
        mag = np.abs(corrected)
        swap = np.arctan2(mag[:, 1, 2] + mag[:, 2, 1], mag[:, 1, 1] + mag[:, 2, 2])
        ranked = np.lexsort((-block_average_fidelity(corrected, target_u),
                             np.abs(swap - abs(theta_target)) > _THETA_POOL))
        fitted = []  # (theta error, duration, index, fit, corrected PTM)
        # a leaky candidate's fit warns; the report records that
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in ranked:
                pt = qubit_subspace_ptm(corrected[i])
                fit = fit_fsim(pt)
                err = abs(math.remainder(fit.theta - theta_target, math.tau))
                fitted.append((err, float(grid[i]), i, fit, pt))
                if err <= _THETA_POOL:
                    break
        # the one fit on target, else the smallest error (earlier on ties)
        _, tau_best, i, fit, pt = min(fitted)
        spec = replace(spec, duration=tau_best, virtual_z=(z1[i], z2[i]))
        transfer = abs(ms[i, col_watch, col_init]) ** 2
    report["tomography"] = {
        "f_avg": average_fidelity(pt, qubit_subspace_ptm(target_u)),
        "theta_rad": fit.theta,
        "phi_rad": fit.phi,
        "leakage": pt.leakage,
        "virtual_z_rad": list(spec.virtual_z),
        "target_population": float(transfer),
        "duration_ns": tau_best,
        "dt_ns": trim.dt,
        "warnings": [str(w.message) for w in caught],
    }

    # Consistency: the fitted exchange rate at the refined amplitude
    # should tie the duration to tau*4g = 1 (iswap) or tau*2g = 1 (cz).
    with _stage("consistency"):
        pulse = gate_pulse(spec)
        times = _on_step_grid(pulse, device.q2,
                              np.linspace(0.0, 3.0 * spec.duration, 721)[1:])
        tr = propagate(p, replace(pulse, duration=float(times[-1])), device.q2,
                       columns=np.eye(DIM)[:, [COMPUTATIONAL_INDICES[col_init]]],
                       times=times)
        pop = np.abs(tr.cuts[:, COMPUTATIONAL_INDICES[col_watch], 0]) ** 2
        ef = fit_exchange(times, pop)
        product = spec.duration * gate.cycles * ef.g
    report["consistency"] = {
        "g_fit_ghz": float(ef.g),
        "duration_coupling_product": float(product),
        "fit_residual": ef.residual,
        "fit_evaluations": ef.n_evaluations,
    }
    return spec, report
