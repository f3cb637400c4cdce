"""Flux pulses, operational flux crosstalk, and the RF transfer function."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FluxPulse:
    """Square flux pulse: a DC offset plus a sinusoid or a DC step.

    Fluxes are in units of the flux quantum, times in ns, mod_freq in GHz.
    mod_freq = 0 means a fast DC pulse (no sinusoidal modulation).
    """

    phi_dc: float
    amplitude: float
    mod_freq: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        for name in ("phi_dc", "amplitude", "mod_freq", "duration"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.mod_freq < 0:
            raise ValueError("mod_freq must be >= 0")


def is_sweet_spot(phi_dc: float) -> bool:
    """Whether a DC flux (flux quanta) sits at a sweet spot: the band
    extrema of a SQUID transmon sit at integer and half-integer flux quanta."""
    r = phi_dc % 0.5
    return min(r, 0.5 - r) < 1e-9


def instantaneous_flux(pulse: FluxPulse, t):
    """Flux on the target line at time t (ns), in flux quanta.

    t may be a scalar or array and must lie within [0, duration].
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > pulse.duration):
        raise ValueError(f"time outside pulse window [0, {pulse.duration}] ns")
    if pulse.mod_freq > 0:
        wave = np.sin(2.0 * np.pi * pulse.mod_freq * t_arr)
    else:
        wave = np.ones_like(t_arr)
    out = pulse.phi_dc + pulse.amplitude * wave
    return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Operational flux crosstalk matrix with unit diagonal."""

    matrix: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("crosstalk matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("crosstalk matrix entries must be finite")
        if not np.allclose(np.diag(m), 1.0, atol=1e-12):
            raise ValueError("crosstalk matrix must have unit diagonal")
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(f"line{k}" for k in range(m.shape[0])))
        if len(self.labels) != m.shape[0]:
            raise ValueError("one label per line required")

    @property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))


def compensate_crosstalk(ct: CrosstalkMatrix, target) -> np.ndarray:
    """Source settings whose crosstalk-mixed result equals the target flux vector."""
    target = np.asarray(target, dtype=float)
    try:
        out = np.linalg.solve(ct.matrix, target)
    except np.linalg.LinAlgError as exc:
        raise ValueError("crosstalk matrix is singular") from exc
    return out


@dataclass(frozen=True)
class TransferTable:
    """Achieved/requested flux-amplitude ratio versus modulation frequency."""

    mod_freqs: np.ndarray   # GHz, strictly increasing
    ratios: np.ndarray      # dimensionless, in (0, 1.5]

    def __post_init__(self):
        f = np.asarray(self.mod_freqs, dtype=float)
        r = np.asarray(self.ratios, dtype=float)
        object.__setattr__(self, "mod_freqs", f)
        object.__setattr__(self, "ratios", r)
        if f.ndim != 1 or f.shape != r.shape or f.size < 2:
            raise ValueError("transfer table needs matching frequency/ratio columns")
        # written so that NaN fails too
        if not (np.all(np.isfinite(f)) and np.all(np.diff(f) > 0)):
            raise ValueError("transfer-table frequencies must be finite and "
                             "strictly increasing")
        if not np.all((r > 0) & (r <= 1.5)):
            raise ValueError("transfer ratios must lie in (0, 1.5]")


def apply_transfer(table: TransferTable, mod_freq: float) -> float:
    """Achieved/requested amplitude ratio at mod_freq (GHz).

    Linear interpolation between table knots; frequencies outside the table
    range are an error rather than an extrapolation.
    """
    f = table.mod_freqs
    if not f[0] <= mod_freq <= f[-1]:
        raise ValueError(
            f"modulation frequency {mod_freq} GHz outside transfer table "
            f"range [{f[0]}, {f[-1]}] GHz")
    return float(np.interp(mod_freq, f, table.ratios))


def _data_lines(path, skip=("#",)) -> list:
    """(line number, line, cells) of each data line of a CSV file: the
    stripped line and its comma-separated cells, for each line that is
    not blank and does not start with a prefix in skip."""
    with open(path) as fh:
        lines = [(lineno, raw.strip()) for lineno, raw in enumerate(fh, 1)]
    return [(lineno, line, [c.strip() for c in line.split(",")])
            for lineno, line in lines if line and not line.startswith(skip)]


def _numbers(path, lineno, line, cells, count: int, expected: str) -> list:
    """cells as count floats; anything else raises, naming the file and line."""
    if len(cells) == count:
        try:
            return [float(c) for c in cells]
        except ValueError:
            pass
    raise ValueError(f"{path} line {lineno}: expected {expected}, got {line!r}")


def load_crosstalk_csv(path) -> CrosstalkMatrix:
    """Read a crosstalk matrix from CSV: header 'line,<labels...>', one row per line."""
    labels = []
    rows = []
    header = None
    for lineno, line, cells in _data_lines(path):
        if header is None:
            header = cells[1:]
            continue
        labels.append(cells[0])
        rows.append(_numbers(path, lineno, line, cells[1:], len(header),
                             f"a label and {len(header)} numbers"))
    if header is None or not rows:
        raise ValueError(f"no crosstalk data found in {path}")
    if labels != header:
        raise ValueError(f"{path}: crosstalk CSV row labels do not match header order")
    try:
        return CrosstalkMatrix(matrix=np.array(rows), labels=tuple(labels))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_transfer_csv(path) -> TransferTable:
    """Read a transfer table from CSV with columns mod_freq_ghz,amplitude_ratio."""
    rows = [_numbers(path, lineno, line, cells, 2, "mod_freq_ghz,amplitude_ratio")
            for lineno, line, cells in _data_lines(path, skip=("#", "mod_freq"))]
    if not rows:
        raise ValueError(f"no transfer data found in {path}")
    freqs, ratios = np.array(rows).T
    try:
        return TransferTable(mod_freqs=freqs, ratios=ratios)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
