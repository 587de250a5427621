"""Mode-sum time-domain model of the hybridized cavity-waveguide spectrum:
round-trip revivals, packet shape, free-spectral-range jitter dephasing, and
the thermal intensity-correlation curve g2(dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import write_rows


class WaveguideError(ValueError):
    pass


@dataclass(frozen=True)
class ModeSpectrum:
    """Hybridized mechanical modes: angular frequencies, complex amplitudes,
    and one uniform energy damping rate gamma = 1/T1."""

    omega: np.ndarray          # rad/s
    amplitude: np.ndarray      # complex
    gamma: float = 0.0         # 1/s

    def __post_init__(self):
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        object.__setattr__(self, "amplitude", np.asarray(self.amplitude, dtype=complex))
        if self.omega.shape != self.amplitude.shape or self.omega.ndim != 1:
            raise WaveguideError("omega and amplitude must be 1-D and equal length")
        if len(self.omega) < 2:
            raise WaveguideError("need at least 2 modes")
        if not np.sum(np.abs(self.amplitude) ** 2) > 0:
            raise WaveguideError("total spectral weight must be > 0")
        if self.gamma < 0:
            raise WaveguideError("gamma must be >= 0")

    @property
    def weights(self) -> np.ndarray:
        w = np.abs(self.amplitude) ** 2
        return w / w.sum()

    @property
    def mean_fsr(self) -> float:
        return float(np.mean(np.diff(np.sort(self.omega)))) / (2.0 * math.pi)


@dataclass(frozen=True)
class FsrStatistics:
    mean_fsr: float            # Hz
    std_fsr: float             # Hz
    n_modes: int = 12

    def __post_init__(self):
        if self.mean_fsr <= 0:
            raise WaveguideError("mean FSR must be > 0")
        if self.std_fsr < 0:
            raise WaveguideError("FSR std must be >= 0")
        if self.n_modes < 2:
            raise WaveguideError("need at least 2 modes")


def synthetic_spectrum(
    n_modes: int,
    fsr_hz: float,
    center_hz: float = 5.154e9,
    gamma: float = 0.0,
    envelope: str = "equal",
    envelope_sigma_hz: float | None = None,
) -> ModeSpectrum:
    """Evenly spaced synthetic spectrum.  ``envelope`` shapes |A_k|: ``equal``
    or ``gaussian`` (weight falls off over envelope_sigma_hz around the
    center, mirroring the peaked hybridized spectra of real devices)."""
    if n_modes < 2:
        raise WaveguideError(f"n_modes must be >= 2, got {n_modes}")
    k = np.arange(n_modes) - (n_modes - 1) / 2.0
    freqs = center_hz + k * fsr_hz
    if envelope == "equal":
        amps = np.ones(n_modes)
    elif envelope == "gaussian":
        if not envelope_sigma_hz or envelope_sigma_hz <= 0:
            raise WaveguideError("gaussian envelope needs envelope_sigma_hz > 0")
        amps = np.exp(-((k * fsr_hz) ** 2) / (4.0 * envelope_sigma_hz**2))
    else:
        raise WaveguideError(f"envelope must be 'equal' or 'gaussian', got {envelope!r}")
    return ModeSpectrum(omega=2.0 * math.pi * freqs, amplitude=amps.astype(complex),
                        gamma=gamma)


def sample_jittered_spectrum(stats: FsrStatistics, rng: np.random.Generator,
                             center_hz: float = 5.154e9, gamma: float = 0.0) -> ModeSpectrum:
    """Spectrum whose consecutive spacings are i.i.d. Gaussian around the mean
    FSR (frequencies follow the cumulative sum, i.e. a random walk)."""
    spacings = rng.normal(stats.mean_fsr, stats.std_fsr, size=stats.n_modes - 1)
    freqs = np.concatenate([[0.0], np.cumsum(spacings)])
    freqs += center_hz - freqs.mean()
    return ModeSpectrum(omega=2.0 * math.pi * freqs,
                        amplitude=np.ones(stats.n_modes, dtype=complex), gamma=gamma)


# ---------------------------------------------------------------------------


def mode_sum_envelope(spectrum: ModeSpectrum, times: Sequence[float]) -> np.ndarray:
    """Normalized population P(t) = |b(t)|^2 / |b(0)|^2 of the mode sum
    b(t) = sum_k A_k exp(-i w_k t - gamma t / 2)."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or np.any(np.diff(t) < 0):
        raise WaveguideError("time grid must be 1-D and sorted")
    phases = np.exp(-1j * np.outer(t, spectrum.omega))
    b = phases @ spectrum.amplitude
    p = np.abs(b) ** 2 * np.exp(-spectrum.gamma * t)
    b0 = np.abs(spectrum.amplitude.sum()) ** 2
    if b0 == 0:
        raise WaveguideError("b(0) vanishes; amplitudes sum to zero")
    return p / b0


def g2_tau_curve(spectrum: ModeSpectrum, delays: Sequence[float]) -> np.ndarray:
    """Thermal intensity correlation g2(dt) = 1 + |g1(dt)|^2 with the field
    correlation g1(dt) = sum_k w_k exp(-i w_k dt - gamma dt) over the
    normalized spectral weights (Siegert relation for a stationary thermal
    field)."""
    dt = np.asarray(delays, dtype=float)
    w = spectrum.weights
    g1 = np.exp(-1j * np.outer(dt, spectrum.omega)) @ w
    g1 = g1 * np.exp(-spectrum.gamma * np.abs(dt))
    return 1.0 + np.abs(g1) ** 2


def extract_round_trip(delays: Sequence[float], g2: Sequence[float],
                       min_peak: float = 1.2) -> tuple[float, float]:
    """Round-trip time and zero-delay packet width from a g2(dt) curve.

    The round trip is the first off-zero local maximum of g2 above
    ``min_peak``, refined with a 3-point parabola (ties take the earliest
    grid point).  The packet width is the FWHM of the dt = 0 peak of g2 - 1.
    """
    dt = np.asarray(delays, dtype=float)
    y = np.asarray(g2, dtype=float)
    if dt.shape != y.shape or dt.ndim != 1:
        raise WaveguideError("delays and g2 must be 1-D and equal length")
    # FWHM of the zero-delay peak of g2 - 1
    excess = y - 1.0
    if excess[0] <= 0:
        raise WaveguideError("curve must start on the zero-delay peak")
    half = excess[0] / 2.0
    below = np.flatnonzero(excess < half)
    if len(below) == 0:
        raise WaveguideError("zero-delay peak never decays below half maximum")
    i = below[0]
    # linear interpolation of the half crossing; symmetric peak assumed
    frac = (excess[i - 1] - half) / (excess[i - 1] - excess[i])
    half_width = dt[i - 1] + frac * (dt[i] - dt[i - 1])
    fwhm = 2.0 * half_width

    # first local maximum after the curve has left the central peak
    best = None
    for j in range(i + 1, len(y) - 1):
        if y[j] >= y[j - 1] and y[j] > y[j + 1] and y[j] >= min_peak:
            best = j
            break
    if best is None:
        raise WaveguideError("no revival peak above %.2f found" % min_peak)
    # 3-point parabolic refinement
    y0, y1, y2 = y[best - 1], y[best], y[best + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    step = dt[best] - dt[best - 1]
    tau = dt[best] + shift * step
    return float(tau), float(fwhm)


def revival_peak_heights(spectrum: ModeSpectrum, n_revivals: int,
                         oversample: int = 64) -> np.ndarray:
    """Height of the population envelope around each expected revival (search
    window of one mean FSR period around m / FSR)."""
    period = 1.0 / spectrum.mean_fsr
    heights = []
    for m in range(1, n_revivals + 1):
        t = np.linspace((m - 0.5) * period, (m + 0.5) * period, oversample)
        heights.append(mode_sum_envelope(spectrum, t).max())
    return np.array(heights)


# ---------------------------------------------------------------------------
# file I/O: two/three-column text (frequency Hz, amplitude[, phase])


def load_spectrum(path: str | Path, gamma: float = 0.0) -> ModeSpectrum:
    data = np.loadtxt(path, ndmin=2)
    if data.shape[1] not in (2, 3):
        raise WaveguideError("spectrum file needs 2 or 3 columns")
    amps = data[:, 1].astype(complex)
    if data.shape[1] == 3:
        amps = amps * np.exp(1j * data[:, 2])
    return ModeSpectrum(omega=2.0 * math.pi * data[:, 0], amplitude=amps, gamma=gamma)


def save_curve(path: str | Path, x: Sequence[float], y: Sequence[float],
               header: str = "") -> None:
    """Two ``%.18e`` columns after a ``# `` header, the bytes of
    ``np.savetxt(path, np.column_stack([x, y]), header=header)``."""
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header.replace("\n", "\n# ") + "\n")
        write_rows(fh, "%.18e %.18e\n", *np.column_stack([x, y]).T)
