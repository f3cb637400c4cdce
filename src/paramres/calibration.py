"""Parametric-resonance gate calibration.

The calibration chain mirrors how the gates are tuned up on hardware:

1. pick the q2 flux-modulation amplitude whose time-averaged frequency
   hits the resonance condition (``find_resonance_amplitude``),
2. check the modulation frequency against sideband collisions
   (``sideband_collision_map``),
3. set the duration from the effective coupling (``set_duration``),
4. refine amplitude and duration on a simulated chevron
   (``refine_on_chevron``),
5. extract virtual-Z angles and score the gate with tomography.

``calibrate_gate`` runs the whole chain and returns a GateSpec plus a
JSON-ready report.  Durations are ns, frequencies GHz, fluxes flux
quanta.  The modulated qubit is always qubit 2; the coupler bias is a
static input (``DEFAULT_COUPLER_BIAS`` by default).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .device import Device, device_params
from .dynamics import _CHEVRON_STATES, ChevronMap, chevron, fit_exchange, propagate
from .effective import average_and_excursion, modulated_couplings
from .fluxcontrol import FluxPulse
from .tomography import (
    average_fidelity,
    dressed_computational_basis,
    extract_virtual_z,
    fit_fsim,
    fsim_unitary,
    qubit_subspace_ptm,
    virtual_z_correct,
)

GATE_KINDS = ("iswap", "cz20")

#: Ideal fSim angles (theta, phi) of each gate kind; the target unitary
#: is ``fsim_unitary(*TARGET_FSIM[kind])``.
TARGET_FSIM = {"iswap": (-0.5 * math.pi, 0.0), "cz20": (0.0, math.pi)}

#: Default modulation frequencies (GHz), sitting above the sideband
#: collision band of the bundled device with margin to the n = +/-2
#: collision of the qubit-coupler transition.
DEFAULT_MOD_FREQ = {"iswap": 0.28, "cz20": 0.28}

#: Default coupler biases (flux quanta) for the bundled device: the
#: iSWAP bias targets an effective g01 of 4.5 MHz, the CZ bias a g20 of
#: 4.03 MHz (124 ns full cycle).
DEFAULT_COUPLER_BIAS = {"iswap": 0.29472, "cz20": 0.30534}

_RESIDUAL_TOL = 1e-6  # GHz; 1 kHz resonance residual
_AMPLITUDE_MAX = 0.45  # flux quanta; upper end of the root bracket


class CalibrationError(RuntimeError):
    """Calibration failure carrying the pipeline stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


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
        if not isinstance(d, dict):
            raise ValueError(f"gate spec must be a JSON object, got {type(d).__name__}")

        def field(key, convert, *default):
            if key not in d and not default:
                raise ValueError(f"gate spec is missing field {key!r}")
            try:
                return convert(d.get(key, *default))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"gate spec field {key!r}: {exc}") from None

        return cls(
            kind=field("kind", lambda kind: kind),
            amplitude=field("amplitude_phi0", float),
            mod_freq=field("mod_freq_ghz", float),
            duration=field("duration_ns", float),
            coupler_bias=field("coupler_bias_phi0", float),
            virtual_z=field("virtual_z_rad", lambda zs: tuple(map(float, zs)),
                            (0.0, 0.0)),
            resonance_residual=field("resonance_residual_ghz", float, 0.0),
        )


def save_gatespec(path, spec: GateSpec, metadata: dict | None = None) -> None:
    payload = spec.to_dict()
    if metadata:
        payload["meta"] = dict(metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_gatespec(path) -> GateSpec:
    with open(path, encoding="utf-8") as fh:
        return GateSpec.from_dict(json.load(fh))


def sweet_spot_pulse(amplitude: float, mod_freq: float,
                     duration: float = 100.0) -> FluxPulse:
    """Ramp-free q2 flux modulation about the upper sweet spot.

    Gates run from the upper sweet spot with no ramp: the modulated
    flux is continuous at turn-on there, and a raised-cosine ramp would
    drag the average frequency through the sideband collisions mapped
    out during calibration.  The default duration suits probes of the
    flat top (average frequency, sideband weights), which do not depend
    on it.
    """
    return FluxPulse(phi_dc=0.0, amplitude=amplitude, mod_freq=mod_freq,
                     duration=duration, ramp=0.0)


def gate_pulse(spec: GateSpec) -> FluxPulse:
    """The qubit-2 flux pulse realizing a GateSpec."""
    return sweet_spot_pulse(spec.amplitude, spec.mod_freq, spec.duration)


def gate_unitary(device: Device, spec: GateSpec):
    """Propagate a calibrated gate; returns (device params, 27x27 unitary)."""
    p = device_params(device, phic=spec.coupler_bias)
    prop = propagate(p, gate_pulse(spec), device.q2)
    return p, prop.unitary


def _resonance_target(kind: str, p) -> float:
    if kind == "iswap":
        return p.f1
    if kind == "cz20":
        return p.f1 - p.eta1
    if kind == "cz02":
        return p.f1 + p.eta2
    raise ValueError(f"unknown gate kind {kind!r}")


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
    if mod_freq <= 0.0:
        raise ValueError("mod_freq must be positive")
    target = _resonance_target(kind, p)
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

    Each curve is the modulation frequency at which the n = -2 sideband
    of the named transition becomes resonant; modulating below any
    curve risks driving that transition parasitically.
    """

    amplitudes: np.ndarray
    iswap: np.ndarray   # GHz
    cz02: np.ndarray
    cz20: np.ndarray
    guard_band: float
    recommended_min: float  # GHz

    def margin(self, mod_freq: float) -> float:
        """How far a modulation frequency clears the recommendation (GHz)."""
        return mod_freq - self.recommended_min


def sideband_collision_map(
    p, q2_spec, amplitudes, guard_band: float = 0.020
) -> CollisionMap:
    """Map of second-sideband collision frequencies over an amplitude grid.

    The collision frequencies are |fbar - target| / 2 for the three
    parametric transitions; the recommended minimum modulation
    frequency is the largest collision over the grid plus the guard
    band.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.size == 0:
        raise ValueError("amplitude grid must be nonempty")
    if guard_band < 0.0:
        raise ValueError(f"guard band must be >= 0, got {guard_band!r}")
    fbar = np.array([_average_frequency(q2_spec, a, 0.3) for a in amplitudes])
    curves = {
        "iswap": np.abs(fbar - p.f1) / 2.0,
        "cz02": np.abs(fbar - (p.f1 + p.eta2)) / 2.0,
        "cz20": np.abs(fbar - (p.f1 - p.eta1)) / 2.0,
    }
    recommended = max(c.max() for c in curves.values()) + guard_band
    return CollisionMap(
        amplitudes=amplitudes,
        iswap=curves["iswap"],
        cz02=curves["cz02"],
        cz20=curves["cz20"],
        guard_band=guard_band,
        recommended_min=float(recommended),
    )


def default_collision_grid(p, q2_spec) -> np.ndarray:
    """48 amplitudes from zero to just past the CZ20 resonance.

    The far edge is the amplitude pulling the average frequency 30 MHz
    below the deepest gate target, so the map covers every amplitude a
    calibration could visit.
    """
    floor = p.f1 - p.eta1 - 0.030
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
    if kind == "iswap":
        return 1.0 / (4.0 * g_eff)
    if kind == "cz20":
        return 1.0 / (2.0 * g_eff)
    raise ValueError(f"unknown gate kind {kind!r}")


def effective_coupling(device: Device, kind: str, amplitude: float,
                       mod_freq: float, coupler_bias: float) -> complex:
    """n = 0 sideband effective coupling of the gate transition (GHz)."""
    p = device_params(device, phic=coupler_bias)
    mc = modulated_couplings(p, sweet_spot_pulse(amplitude, mod_freq), device.q2)
    key = "g01" if kind == "iswap" else "g20"
    return mc.sideband(0)[key]


def _grid_population(chev: ChevronMap, amplitude: float, duration: float) -> float:
    """Population at the grid point nearest to (amplitude, duration)."""
    i = int(np.argmin(np.abs(chev.amplitudes - amplitude)))
    j = int(np.argmin(np.abs(chev.durations - duration)))
    return float(chev.populations[i, j])


def refine_on_chevron(spec: GateSpec, chev: ChevronMap) -> GateSpec:
    """Move a GateSpec to the best point of a simulated chevron.

    iSWAP: the (amplitude, duration) maximizing the |01> population
    transferred from |10>.  CZ20: the amplitude with the deepest
    |11> -> |20> transfer (the chevron center line, where the exchange
    is genuinely full), then the duration where |11> has returned after
    that full cycle.  Ties break toward smaller amplitude.  The refined
    point must lie strictly inside the grid, and is never worse in
    target population than the analytic initialization.
    """
    if not chev.amplitudes.min() <= spec.amplitude <= chev.amplitudes.max():
        raise ValueError("chevron grid does not bracket the analytic amplitude")
    if chev.amplitudes.size < 3 or chev.durations.size < 3:
        raise ValueError("chevron grid too small to refine on")
    pops = chev.populations
    if spec.kind == "iswap":
        if chev.initial != "10":
            raise ValueError("iswap refinement needs a chevron from |10>")
        i, j = np.unravel_index(int(np.argmax(pops)), pops.shape)
    else:
        if chev.initial != "11":
            raise ValueError("cz20 refinement needs a chevron from |11>")
        depth = pops.min(axis=1)
        i = int(np.argmin(depth))
        dip = int(np.argmin(pops[i]))
        j = dip + int(np.argmax(pops[i, dip:]))
    if i in (0, pops.shape[0] - 1) or j in (0, pops.shape[1] - 1):
        raise ValueError(
            "no local maximum inside the chevron grid; widen the grid around "
            "the analytic operating point"
        )
    baseline = _grid_population(chev, spec.amplitude, spec.duration)
    if pops[i, j] < baseline:
        return spec
    return replace(
        spec,
        amplitude=float(chev.amplitudes[i]),
        duration=float(chev.durations[j]),
    )


def _refine_grids(kind: str, amplitude: float, tau: float):
    """(amplitude grid, duration grid) pairs bracketing the analytic point.

    The modulated sidebands shift the dressed resonance by a few MHz,
    so the amplitude windows are asymmetric: the iSWAP resonance moves
    up in amplitude, the CZ20 resonance down.  CZ refinement runs a
    coarse pass then a fine pass (conditional-phase error grows fast
    with residual detuning, so the center line must be located to a
    fraction of a milli-flux-quantum).
    """
    if kind == "iswap":
        amps = amplitude + np.arange(-0.0016, 0.00561, 0.0004)
        durs = np.arange(0.55 * tau, 1.35 * tau, 0.25)
        return [(amps, durs)]
    coarse = amplitude + np.arange(-0.009, 0.00101, 0.001)
    fine_halfwidth = np.arange(-0.0008, 0.00081, 0.0002)
    durs = np.arange(0.25 * tau, 1.25 * tau, 0.5)
    return [(coarse, durs), (fine_halfwidth, durs)]  # fine pass recentered later


def calibrate_gate(
    device: Device,
    kind: str,
    coupler_bias: float | None = None,
    mod_freq: float | None = None,
    guard_band: float = 0.020,
    refine: bool = True,
):
    """Full calibration pipeline; returns (GateSpec, report dict).

    Stages: resonance root, sideband collision check, effective
    coupling, duration, chevron refinement, virtual-Z extraction and
    tomography.  Any stage failure raises CalibrationError labeled
    with the stage name.  A cz02 request fails at the resonance stage
    on this device topology.
    """
    if kind not in GATE_KINDS and kind != "cz02":
        raise CalibrationError("setup", f"unknown gate kind {kind!r}")
    gate_key = kind if kind in GATE_KINDS else "cz20"
    if mod_freq is None:
        mod_freq = DEFAULT_MOD_FREQ[gate_key]
    if coupler_bias is None:
        coupler_bias = DEFAULT_COUPLER_BIAS[gate_key]
    p = device_params(device, phic=coupler_bias)
    report: dict = {
        "kind": kind,
        "mod_freq_ghz": mod_freq,
        "coupler_bias_phi0": coupler_bias,
    }

    try:
        amplitude = find_resonance_amplitude(kind, device.q2, p, mod_freq)
    except ValueError as exc:
        raise CalibrationError("resonance", str(exc)) from exc
    target = _resonance_target(kind, p)
    probe = sweet_spot_pulse(amplitude, mod_freq)
    f2_avg, f2_exc = average_and_excursion(device.q2, probe)
    residual = f2_avg - target
    report["resonance"] = {
        "target_ghz": target,
        "amplitude_phi0": amplitude,
        "residual_ghz": float(residual),
        "f2_average_ghz": float(f2_avg),
        "excursion_ghz": float(f2_exc),
    }

    try:
        cmap = sideband_collision_map(
            p, device.q2, default_collision_grid(p, device.q2), guard_band=guard_band
        )
    except ValueError as exc:
        raise CalibrationError("collision", str(exc)) from exc
    report["collision"] = {
        "recommended_min_ghz": cmap.recommended_min,
        "margin_ghz": float(cmap.margin(mod_freq)),
        "guard_band_ghz": guard_band,
    }

    try:
        mc = modulated_couplings(p, probe, device.q2)
        g_eff = abs(mc.sideband(0)["g01" if kind == "iswap" else "g20"])
    except ValueError as exc:
        raise CalibrationError("coupling", str(exc)) from exc
    if g_eff < 1e-5:
        raise CalibrationError(
            "coupling", "effective coupling vanishes at this coupler bias"
        )
    report["coupling"] = {
        "g_eff_ghz": float(g_eff),
        "epsilon0": float(abs(mc.sideband(0)["eps"])),
        "epsilon1_abs": float(abs(mc.sideband(1)["eps"])),
        "epsilon2_abs": float(abs(mc.sideband(2)["eps"])),
    }

    try:
        tau = set_duration(kind, g_eff)
    except ValueError as exc:
        raise CalibrationError("duration", str(exc)) from exc
    spec = GateSpec(
        kind=kind,
        amplitude=amplitude,
        mod_freq=mod_freq,
        duration=tau,
        coupler_bias=coupler_bias,
        resonance_residual=float(residual),
    )
    report["duration"] = {"analytic_ns": tau}

    basis = dressed_computational_basis(p)
    initial = "10" if kind == "iswap" else "11"
    idx_init, idx_watch, (col_init, col_watch), _ = _CHEVRON_STATES[initial]
    if refine:
        template = gate_pulse(spec)
        try:
            for stage_no, (amps, durs) in enumerate(_refine_grids(kind, amplitude, tau)):
                if stage_no > 0:  # fine pass is a window around the coarse result
                    amps = spec.amplitude + amps
                chev = chevron(p, template, device.q2, amps, durs,
                               initial=initial, basis=basis)
                spec = refine_on_chevron(spec, chev)
        except ValueError as exc:
            raise CalibrationError("chevron", str(exc)) from exc
        report["refine"] = {
            "amplitude_phi0": spec.amplitude,
            "amplitude_shift_phi0": spec.amplitude - amplitude,
            "duration_ns": spec.duration,
        }

    # The population revival fixes the duration only to the exchange
    # envelope; the residual swap angle of the spectator channel
    # oscillates at its detuning (a few ns period) and its zeros are
    # fractions of a nanosecond wide, while the process fidelity is
    # nearly flat across them.  Trim the duration to the best fidelity
    # among grid points where the swap angle is on target.  Propagator
    # snapshots make the whole grid cost a single propagation.
    theta_target, phi_target = TARGET_FSIM[gate_key]
    target_u = fsim_unitary(theta_target, phi_target)
    ideal_pt = qubit_subspace_ptm(target_u)

    def scored(tau_c, u):
        m = basis.conj().T @ u @ basis
        z1, z2 = extract_virtual_z(m, target_u)
        corrected = qubit_subspace_ptm(virtual_z_correct(m, z1, z2))
        f_avg = average_fidelity(corrected, ideal_pt)
        fit = fit_fsim(corrected)
        theta_err = abs(math.remainder(fit.theta - theta_target, math.tau))
        return (f_avg, float(tau_c), z1, z2, corrected, m, fit, theta_err)

    try:
        grid = spec.duration + np.arange(-4.0, 4.0001, 0.0625)
        grid = grid[grid > 0.0]
        trim = propagate(p, replace(gate_pulse(spec), duration=float(grid[-1])),
                         device.q2, unitary_times=grid)
        rows = [scored(t, u) for t, u
                in zip(trim.unitary_times, trim.unitaries)]
        on_target = [r for r in rows if r[-1] <= 0.015]
        pool = on_target or [min(rows, key=lambda r: r[-1])]
        best = max(pool, key=lambda r: r[0])
        f_avg, tau_best, z1, z2, corrected, m, fit, _ = best
        spec = replace(spec, duration=tau_best, virtual_z=(z1, z2))
        transfer = abs(m[col_watch, col_init]) ** 2
    except ValueError as exc:
        raise CalibrationError("tomography", str(exc)) from exc
    report["tomography"] = {
        "f_avg": float(f_avg),
        "theta_rad": fit.theta,
        "phi_rad": fit.phi,
        "leakage": corrected.leakage,
        "virtual_z_rad": [z1, z2],
        "target_population": float(transfer),
        "duration_ns": tau_best,
    }

    # Consistency: the fitted exchange rate at the refined amplitude
    # should tie the duration to tau*4g = 1 (iswap) or tau*2g = 1 (cz).
    try:
        trace_pulse = replace(gate_pulse(spec), duration=3.0 * spec.duration)
        tr = propagate(p, trace_pulse, device.q2, initial_state=idx_init,
                       n_samples=720)
        pop = np.abs(tr.trajectory[:, idx_watch]) ** 2
        ef = fit_exchange(tr.times, pop)
        product = spec.duration * (4.0 if kind == "iswap" else 2.0) * ef.g
    except ValueError as exc:
        raise CalibrationError("consistency", str(exc)) from exc
    report["consistency"] = {
        "g_fit_ghz": float(ef.g),
        "duration_coupling_product": float(product),
    }
    return spec, report
