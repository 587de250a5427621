"""Estimators and fits: g2 correlations, CHSH quantities, the visibility
witness, sideband-asymmetry thermometry, lifetime and phase-calibration
fits.  Every estimator returns an AnalysisResult carrying a one-standard-
deviation uncertainty, a method tag and a digest of its inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import OutcomeDistribution


class AnalysisError(ValueError):
    pass


def _digest(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class AnalysisResult:
    value: float
    sigma: float
    method: str
    inputs_digest: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.sigma < 0:
            raise AnalysisError("sigma must be >= 0")

    def __str__(self):
        return f"{self.value:.6g} ± {self.sigma:.2g} [{self.method}]"


@dataclass(frozen=True)
class CoincidenceTable:
    """Counts n_kl of trials where write detector k and read detector l each
    clicked alone, plus the singles and the trial count.  Counts may be
    expected values (floats) when built from an exact distribution."""

    counts: Mapping[tuple[int, int], float]
    write_singles: Mapping[int, float]
    read_singles: Mapping[int, float]
    trials: float

    def __post_init__(self):
        for v in list(self.counts.values()) + list(self.write_singles.values()) \
                + list(self.read_singles.values()):
            if v < 0:
                raise AnalysisError("counts must be >= 0")
        for (k, l), v in self.counts.items():
            if v > min(self.write_singles[k], self.read_singles[l]) + 1e-9:
                raise AnalysisError("coincidences exceed singles")

    @property
    def total_coincidences(self) -> float:
        return sum(self.counts.values())


def _source(dist: OutcomeDistribution, trials: float,
            counts: np.ndarray | None) -> np.ndarray:
    """Pattern counts in distribution order: sampled ``counts``, or the
    expected counts ``p * trials`` of an exact run."""
    return counts if counts is not None else dist.probabilities * trials


def coincidences_from_distribution(
    dist: OutcomeDistribution,
    write_channels: tuple[str, str],
    read_channels: tuple[str, str],
    trials: float = 1.0,
    counts: np.ndarray | None = None,
) -> CoincidenceTable:
    """Tabulate n_kl from a joint pattern distribution (or sampled pattern
    counts): exactly one write-side click on detector k and exactly one
    read-side click on detector l."""
    source = _source(dist, trials, counts)
    w = [dist.clicked(c) for c in write_channels]
    r = [dist.clicked(c) for c in read_channels]
    w_only = [w[0] & ~w[1], w[1] & ~w[0]]
    r_only = [r[0] & ~r[1], r[1] & ~r[0]]
    n = {(k, l): float(source[w_only[k - 1] & r_only[l - 1]].sum())
         for k in (1, 2) for l in (1, 2)}
    return CoincidenceTable(
        counts=n,
        write_singles={k: float(source[w[k - 1]].sum()) for k in (1, 2)},
        read_singles={k: float(source[r[k - 1]].sum()) for k in (1, 2)},
        trials=trials)


def overlap_table(dist: OutcomeDistribution, trials: float = 1.0,
                  counts: np.ndarray | None = None) -> CoincidenceTable:
    """Coincidence table of the write and read overlap windows."""
    return coincidences_from_distribution(
        dist, ("write-overlap:1", "write-overlap:2"), ("read-overlap:1", "read-overlap:2"),
        trials=trials, counts=counts)


def window_g2(dist: OutcomeDistribution, write_window: str, read_window: str,
              trials: float = 1.0, counts: np.ndarray | None = None) -> AnalysisResult:
    """Cross correlation between any click in a write window and any click
    in a read window (both detectors of each window)."""
    source = _source(dist, trials, counts)
    w = dist.clicked(f"{write_window}:1") | dist.clicked(f"{write_window}:2")
    r = dist.clicked(f"{read_window}:1") | dist.clicked(f"{read_window}:2")
    # .item() keeps sampled totals exact Python ints
    return g2_cross(source[w].sum().item(), source[r].sum().item(),
                    source[w & r].sum().item(), trials)


def exact(res: AnalysisResult) -> AnalysisResult:
    """``res`` as computed from the expected counts of an exact
    distribution: the value stands, and there is no counting error."""
    return replace(res, sigma=0.0, method=res.method.split("/")[0] + "/exact")


# ---------------------------------------------------------------------------
# correlation estimators


def g2_cross(write_singles: float, read_singles: float, coincidences: float,
             trials: float) -> AnalysisResult:
    """Normalized cross correlation g2 = N_c N / (N_w N_r) with Poisson error
    propagation."""
    if trials <= 0:
        raise AnalysisError("trials must be > 0")
    digest = _digest("g2", write_singles, read_singles, coincidences, trials)
    if write_singles <= 0 or read_singles <= 0:
        return AnalysisResult(math.nan, 0.0, "g2-cross/poisson", digest,
                              flags=("undefined: zero singles",))
    value = coincidences * trials / (write_singles * read_singles)
    if coincidences <= 0:
        return AnalysisResult(0.0, math.nan, "g2-cross/poisson", digest,
                              flags=("no coincidences",))
    rel = math.sqrt(1.0 / coincidences + 1.0 / write_singles + 1.0 / read_singles)
    return AnalysisResult(value, value * rel, "g2-cross/poisson", digest)


def correlation_E(table: CoincidenceTable) -> AnalysisResult:
    """E = (n11 + n22 - n12 - n21) / total with multinomial error."""
    n = table.counts
    total = table.total_coincidences
    digest = _digest("E", sorted((f"{k}", v) for k, v in n.items()))
    if total <= 0:
        raise AnalysisError("correlation_E: no coincidences")
    value = (n[(1, 1)] + n[(2, 2)] - n[(1, 2)] - n[(2, 1)]) / total
    sigma = math.sqrt(max(1.0 - value**2, 0.0) / total)
    return AnalysisResult(value, sigma, "E/multinomial", digest)


def chsh_S(e_values: Sequence[AnalysisResult]) -> AnalysisResult:
    """S = |E(a,b) - E(a',b) + E(a,b') + E(a',b')| in that argument order."""
    if len(e_values) != 4:
        raise AnalysisError("chsh_S needs exactly four correlation coefficients")
    signs = (1.0, -1.0, 1.0, 1.0)
    value = abs(sum(s * e.value for s, e in zip(signs, e_values)))
    sigma = math.sqrt(sum(e.sigma**2 for e in e_values))
    return AnalysisResult(value, sigma, "chsh/4-setting",
                          _digest("S", [(e.value, e.sigma) for e in e_values]))


def visibility(e_results: Sequence[AnalysisResult]) -> AnalysisResult:
    """V = max|E| over the measured points.  The fitted sinusoid amplitude
    is ``fit_sinusoid_and_choose_phases(...).amplitude``."""
    if not e_results:
        raise AnalysisError("empty sweep")
    best = max(e_results, key=lambda e: abs(e.value))
    return AnalysisResult(abs(best.value), best.sigma, "visibility/max|E|",
                          _digest("V", [(e.value, e.sigma) for e in e_results]))


def witness_R(v: float | AnalysisResult, g2_ee: float | AnalysisResult,
              g2_ll: float | AnalysisResult, n_sigma: float = 3.0) -> AnalysisResult:
    """Visibility-based entanglement witness R = (1 - V)(1 + gbar)/2 with
    gbar the mean of the two same-bin cross correlations.

    A classical (separable) source obeys V <= (gbar - 1)/(gbar + 1) and hence
    R >= 1; entanglement is flagged when R + n_sigma * sigma < 1.
    """
    def split(x):
        return (x.value, x.sigma) if isinstance(x, AnalysisResult) else (float(x), 0.0)
    v, sv = split(v)
    gee, see = split(g2_ee)
    gll, sll = split(g2_ll)
    if not 0.0 <= v <= 1.0:
        raise AnalysisError("V must be in [0, 1]")
    if gee <= 0 or gll <= 0:
        raise AnalysisError("g2 values must be > 0")
    gbar = 0.5 * (gee + gll)
    sg = 0.5 * math.hypot(see, sll)
    value = 0.5 * (1.0 - v) * (1.0 + gbar)
    sigma = math.hypot(0.5 * (1.0 + gbar) * sv, 0.5 * (1.0 - v) * sg)
    flags = []
    if value + n_sigma * sigma < 1.0:
        flags.append(f"entangled at {n_sigma:g} sigma")
    return AnalysisResult(value, sigma, "witness-R/(1-V)(1+g)/2",
                          _digest("R", v, gee, gll), flags=tuple(flags))


# ---------------------------------------------------------------------------
# thermometry and lifetime


def nth_from_asymmetry(rate_stokes: float, rate_antistokes: float,
                       sigma_stokes: float = 0.0,
                       sigma_antistokes: float = 0.0) -> AnalysisResult:
    """Thermal occupancy from the Stokes/anti-Stokes click-rate asymmetry at
    equal pulse energy: rates scale as (n+1) and n, so n = r_AS/(r_S - r_AS)."""
    digest = _digest("nth", rate_stokes, rate_antistokes)
    if rate_antistokes < 0 or rate_stokes <= 0:
        raise AnalysisError("rates must be positive (Stokes) and non-negative")
    if rate_antistokes >= rate_stokes:
        return AnalysisResult(math.nan, 0.0, "nth/sideband-asymmetry", digest,
                              flags=("non-physical: anti-Stokes >= Stokes",))
    diff = rate_stokes - rate_antistokes
    value = rate_antistokes / diff
    # first-order propagation of independent rate errors
    d_as = rate_stokes / diff**2
    d_s = -rate_antistokes / diff**2
    sigma = math.hypot(d_as * sigma_antistokes, d_s * sigma_stokes)
    return AnalysisResult(value, sigma, "nth/sideband-asymmetry", digest)


def fit_exponential(times: Sequence[float], values: Sequence[float],
                    window_start: float = 1e-6,
                    sigmas: Sequence[float] | None = None) -> AnalysisResult:
    """Least-squares a*exp(-t/T1) on points past window_start (the early
    points carry delayed heating and are excluded by default), by variable
    projection: for a fixed T1 the best amplitude is linear in the data, so
    only T1 is searched, on a log grid and then by bisecting the derivative
    of the projected residual.  T1's sigma is the least-squares one:
    absolute with ``sigmas``, and scaled by chi^2/dof without them."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    sel = t >= window_start
    if sel.sum() < 4:
        raise AnalysisError("need at least 4 points beyond the fit window start")
    t, y = t[sel], y[sel]
    w = np.ones_like(y) if sigmas is None else np.asarray(sigmas, dtype=float)[sel] ** -2.0
    digest = _digest("T1", t.tolist(), y.tolist())
    if np.ptp(y) <= 0 or y.min() < 0 or np.ptp(t) <= 0:
        return AnalysisResult(math.inf, math.inf, "T1/exp-fit", digest,
                              flags=("degenerate: no decay",))
    s = t - t.min()  # times from the first point, so exp(-s/T1) <= 1

    def projected(t1):
        """The residual at the best amplitude for each T1, and a number
        with the sign of minus its T1 derivative."""
        e = np.exp(-s / np.asarray(t1)[..., None])
        p, q = (w * e * y).sum(-1), (w * e * e).sum(-1)
        descent = q * (w * s * e * y).sum(-1) - p * (w * s * e * e).sum(-1)
        return (w * y * y).sum() - p * p / q, descent

    grid = s.max() * np.geomspace(1e-4, 1e4, 161)
    residual, descent = projected(grid)
    k = int(np.argmin(residual))
    if not 0 < k < len(grid) - 1 or not descent[k - 1] > 0 > descent[k + 1]:
        return AnalysisResult(math.nan, math.nan, "T1/exp-fit", digest,
                              flags=("fit did not converge",))
    lo, hi = grid[k - 1], grid[k + 1]
    while lo < (t1 := math.sqrt(lo * hi)) < hi:
        if projected(t1)[1] > 0:
            lo = t1
        else:
            hi = t1
    e = np.exp(-s / t1)
    a = (w * e * y).sum() / (w * e * e).sum()
    # Fisher matrix of (amplitude at t.min(), T1); T1's variance is the same
    # in any parametrisation of the amplitude
    d_t1 = a * e * s / t1**2
    f_aa, f_at, f_tt = (w * e * e).sum(), (w * e * d_t1).sum(), (w * d_t1 * d_t1).sum()
    var = f_aa / (f_aa * f_tt - f_at**2)
    if sigmas is None:
        var *= (w * (y - a * e) ** 2).sum() / (len(y) - 2)
    err = math.sqrt(var) if var >= 0 else math.inf
    flags = () if math.isfinite(err) else ("fit did not converge",)
    return AnalysisResult(t1, err, "T1/exp-fit", digest, flags=flags)


# ---------------------------------------------------------------------------
# phase calibration


@dataclass(frozen=True)
class SweepPoint:
    phi_w: float
    phi_r: float
    e_value: float
    sigma: float = 0.0


@dataclass(frozen=True)
class CalibrationResult:
    phi_0: float
    phi_0_sigma: float
    amplitude: float
    amplitude_sigma: float
    offset: float
    chsh_settings: tuple[tuple[float, float], ...]
    expected_S: float
    fit_residual_rms: float


#: fewest sweep points the three-parameter calibration fit takes
MIN_CALIBRATION_POINTS = 6


def fit_sinusoid_and_choose_phases(points: Sequence[SweepPoint]) -> CalibrationResult:
    """Joint sinusoidal fit E = -A sin(phi_w + phi_r - phi_0) + c over the
    sweep curves, then the CHSH settings that maximize S on the fitted model.

    The fit is linear in (A sin phi_0, A cos phi_0, c), so it needs no
    iteration; phi_0 is reported as the zero crossing with negative slope.
    The maximum needs none either: it is S = 2 sqrt(2) A + 2|c| at the ideal
    points phi_0 + pi/4 and phi_0 - pi/4 against {0, pi/2}, shifted by pi
    when c > 0.
    """
    if len(points) < MIN_CALIBRATION_POINTS:
        raise AnalysisError(f"need {MIN_CALIBRATION_POINTS} sweep points per calibration")
    x = np.array([p.phi_w + p.phi_r for p in points])
    y = np.array([p.e_value for p in points])
    w = np.array([1.0 / p.sigma**2 if p.sigma > 0 else 1.0 for p in points])
    # E = alpha cos(x) + beta sin(x) + c  with alpha = A sin(phi_0) etc.
    design = np.column_stack([np.cos(x), np.sin(x), np.ones_like(x)])
    wd = design * w[:, None]
    coef, *_ = np.linalg.lstsq(wd.T @ design, wd.T @ y, rcond=None)
    alpha, beta, c = coef
    amplitude = math.hypot(alpha, beta)
    phi_0 = math.atan2(alpha, -beta) % (2.0 * math.pi)
    resid = y - design @ coef
    dof = max(len(points) - 3, 1)
    rms = float(np.sqrt(np.mean(resid**2)))
    # parameter covariance from the normal equations
    scale = float(resid @ (w * resid) / dof)
    cov = np.linalg.inv(wd.T @ design) * scale
    var_alpha, var_beta = cov[0, 0], cov[1, 1]
    amp_sigma = math.sqrt(max(
        (alpha**2 * var_alpha + beta**2 * var_beta) / max(amplitude**2, 1e-30), 0.0))
    phi_sigma = math.sqrt(max(
        (beta**2 * var_alpha + alpha**2 * var_beta) / max(amplitude**4, 1e-30), 0.0))
    if amplitude < 3.0 * rms:
        raise AnalysisError(
            f"degenerate fit: amplitude {amplitude:.3g} below 3x residual rms {rms:.3g}")

    # at the unshifted ideal points the four E terms sum to -2 sqrt(2) A + 2c;
    # a shift of pi flips the sign of every A term
    shift = math.pi if c > 0 else 0.0
    a, ap = phi_0 + math.pi / 4 + shift, phi_0 - math.pi / 4 + shift
    b, bp = 0.0, math.pi / 2
    return CalibrationResult(
        phi_0=phi_0, phi_0_sigma=phi_sigma,
        amplitude=amplitude, amplitude_sigma=amp_sigma, offset=float(c),
        chsh_settings=((a, b), (ap, b), (a, bp), (ap, bp)),
        expected_S=2.0 * math.sqrt(2.0) * amplitude + 2.0 * abs(float(c)),
        fit_residual_rms=rms)
