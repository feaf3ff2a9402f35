"""Limit generating functions and invariant measures.

Positive-recurrent regime (gamma > 0): P(t; s) converges to

    U(s) = exp( integral_s^1 g(u)/f(u) du ),

whose coefficients u_j form the invariant distribution.  Transient regime
(gamma < 0, mu = 2*delta - nu > 0, C_ell/C_L = |gamma|): exp(T(t)) P(t; s)
converges to

    pi(s) = exp( (1-s)^(-|gamma|) ) * B(s),
    B(s)  = exp( integral_s^1 [ g/f + |gamma| (1-u)^(-1-|gamma|) ] du ),

whose coefficients pi_j form an invariant measure.  Both coefficient
sequences are recovered by circle inversion, with a direct power-series
recurrence available for the stable families as a second, independent
route (and for tail accounting: the coefficient tails are heavy, e.g.
u_j ~ const * j^(-1-gamma), so truncated sums converge slowly and the
normalization checks must account for the missing tail explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelError, PreconditionError
from .inversion import (CoefficientSeries, circle_points,
                        coefficients_from_samples, complete_circle,
                        sample_count)
from .kernel import (gf_integral_to_one, regularized_integral_to_one,
                     transition_rows, transition_probs)
from .laws import ModelSpec, _signed_binomials


def compute_U(model: ModelSpec, s, rtol: float = 1e-10):
    """Invariant-distribution generating function U(s), gamma > 0 only."""
    val, _ = gf_integral_to_one(model, s, rtol=rtol)
    return np.exp(val)


def compute_B(model: ModelSpec, s, rtol: float = 1e-10):
    """Bounded factor B(s) of the transient limit (regularized integral)."""
    val, _ = regularized_integral_to_one(model, s, rtol=rtol)
    return np.exp(val)


def log_pi(model: ModelSpec, s, rtol: float = 1e-10):
    """log pi(s) = (1-s)^(-|gamma|) + log B(s), kept in log space."""
    return _log_pi_and_error(model, s, rtol)[0]


def _log_pi_and_error(model: ModelSpec, s, rtol: float):
    """log pi(s) with the quadrature error estimate of log B(s)."""
    reg, err = regularized_integral_to_one(model, s, rtol=rtol)
    w0 = 1.0 - np.asarray(s, dtype=complex if np.iscomplexobj(s) else float)
    return w0 ** (-abs(model.gamma)) + reg, err


def compute_pi(model: ModelSpec, s, rtol: float = 1e-10):
    """Transient limit generating function pi(s) (raw scale)."""
    return np.exp(log_pi(model, s, rtol=rtol))


def series_coefficients(model: ModelSpec, kind: str, J: int) -> np.ndarray:
    """Coefficients of U (kind="distribution") or pi (kind="measure") by the
    exponential-of-series recurrence, for canonical offspring families.

    With h(s) = sum h_k s^k the exponent of the limit function, the
    coefficients of exp(h) satisfy  m_n = (1/n) sum_{k=1..n} k h_k m_{n-k}.
    Requires offspring kappa = 0 (otherwise no elementary exponent exists).
    """
    if not model.has_closed_form or model.offspring.kappa:
        raise ModelError("the coefficient recurrence needs canonical offspring "
                         "paired with a stable immigration law")
    c, d = model.offspring.scale, model.immigration.scale
    kap = model.immigration.kappa
    gamma, mu = model.gamma, model.mu
    h = np.zeros(J + 1)
    if kind == "distribution":
        if not gamma > 0:
            raise PreconditionError("distribution coefficients need gamma > 0")
        h += -(d / (c * gamma)) * _signed_binomials(gamma, J)
        if kap:
            h += -(d * kap / (c * mu)) * _signed_binomials(mu, J)
    elif kind == "measure":
        model.require_transient_limit()
        h += _signed_binomials(-abs(gamma), J)
        if kap:
            h += -(abs(gamma) * kap / mu) * _signed_binomials(mu, J)
    else:
        raise ModelError(f"unknown kind {kind!r}")
    m = np.zeros(J + 1)
    m[0] = np.exp(h[0])
    kh = np.arange(J + 1) * h
    for n in range(1, J + 1):
        m[n] = np.dot(kh[1:n + 1], m[n - 1::-1][:n]) / n
    return m


@dataclass
class InvariantMeasure:
    """Extracted coefficients of U or pi with extraction error accounting."""

    kind: str                     # "distribution" | "measure"
    series: CoefficientSeries
    tail_estimate: Optional[float] = None   # sum_{j>J} m_j (distribution only)
    meta: dict = field(default_factory=dict)

    @property
    def coefficients(self) -> np.ndarray:
        return self.series.values

    @property
    def partial_sum(self) -> float:
        return self.series.total

    def normalization_defect(self) -> Optional[float]:
        """|partial sum + tail - 1| for distributions, None for raw measures."""
        if self.kind != "distribution" or self.tail_estimate is None:
            return None
        return abs(self.partial_sum + self.tail_estimate - 1.0)


def extract_measure(model: ModelSpec, kind: str = "auto", J_out: int = 512,
                    r: float = 0.9, M: int = 16384, rtol: float = 1e-10) -> InvariantMeasure:
    """Circle-inversion extraction of the invariant coefficients.

    Coefficients are reported raw (no clamping); negative entries within the
    reported noise floor are extraction noise, not signal.  For heavy-tail
    accuracy at large j prefer a radius from ``inversion.suggest_radius``.
    """
    if kind == "auto":
        kind = "distribution" if model.gamma > 0 else "measure"
    s_half = circle_points(r, M, half=True)
    if kind == "distribution":
        if not model.gamma > 0:
            raise PreconditionError("distribution extraction needs gamma > 0")
        log_vals, err = gf_integral_to_one(model, s_half, rtol=rtol)
    elif kind == "measure":
        log_vals, err = _log_pi_and_error(model, s_half, rtol)
    else:
        raise ModelError(f"unknown kind {kind!r}")
    samples = complete_circle(np.exp(np.atleast_1d(log_vals)), M)
    series = coefficients_from_samples(samples, r, J_out, clamp=False,
                                       meta={"kind": kind, "quad_error": err,
                                             "M": M})
    tail = None
    if kind == "distribution" and model.has_closed_form and not model.offspring.kappa:
        exact = series_coefficients(model, "distribution", J_out)
        tail = float(1.0 - exact.sum())
    return InvariantMeasure(kind=kind, series=series, tail_estimate=tail,
                            meta={"J_out": J_out, "r": r, "M": M,
                                  "gamma": model.gamma})


@dataclass
class InvarianceReport:
    """Residuals of  m_j = sum_i m_i p_ij(tau)  over j."""

    tau: float
    residuals: np.ndarray
    max_residual: float
    argmax_j: int
    components: dict

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def check_invariance(measure: InvariantMeasure, model: ModelSpec, tau: float,
                     j_max: Optional[int] = None, r: float = 0.9,
                     M: Optional[int] = None, rtol: float = 1e-10,
                     method: str = "auto") -> InvarianceReport:
    """Apply the transition semigroup at lag tau to the measure coefficients
    and report |sum_{i<=I} m_i p_ij(tau) - m_j| for j <= j_max (default I/2).

    The i-truncation error is sum_{i>I} m_i p_ij(tau); for j far below I it
    is negligible because a large population cannot collapse quickly, and
    the report carries the remaining accounted error sources separately.
    """
    m = measure.coefficients
    I = m.size - 1
    if j_max is None:
        j_max = I // 2
    if M is None:
        M = sample_count(j_max, 1024)
    rows = transition_rows(model, I, tau, J_out=j_max, r=r, M=M, rtol=rtol,
                           method=method)
    predicted = m @ rows.values
    residuals = np.abs(predicted - m[:j_max + 1])
    worst = int(np.argmax(residuals))
    mass = float(np.sum(np.abs(m)))
    components = {
        "row_aliasing": float(np.max(rows.aliasing_bounds)) * mass,
        "row_noise": float(np.max(rows.noise_floor())) * mass,
        "measure_noise": float(np.max(measure.series.coefficient_bound()[:j_max + 1])),
        "measure_tail": measure.tail_estimate,
        "quad_error": rows.quad_error,
    }
    return InvarianceReport(tau=tau, residuals=residuals,
                            max_residual=float(residuals[worst]),
                            argmax_j=worst, components=components)


@dataclass
class RatioLimitTable:
    """upsilon_j(t) = p_0j(t) / p_00(t) over a time grid, with targets."""

    t_grid: np.ndarray
    ratios: np.ndarray            # shape (len(t_grid), j_max+1)
    targets: Optional[np.ndarray]
    stabilization: np.ndarray     # max_j |row_k - row_{k-1}|

    def final_deviation(self) -> Optional[np.ndarray]:
        if self.targets is None:
            return None
        return np.abs(self.ratios[-1] - self.targets)


def limit_ratios(model: ModelSpec, j_max: int, J_rec: int = 4096) -> np.ndarray:
    """Normalized limit ratios m_j/m_0 (u for gamma > 0, pi for gamma < 0)."""
    kind = "distribution" if model.gamma > 0 else "measure"
    if model.has_closed_form and not model.offspring.kappa:
        m = series_coefficients(model, kind, j_max)
    else:
        m = extract_measure(model, kind=kind, J_out=j_max).coefficients
    return m / m[0]


def ratio_limits(model: ModelSpec, j_max: int, t_grid, r: float = 0.9,
                 M: Optional[int] = None, rtol: float = 1e-10,
                 method: str = "auto") -> RatioLimitTable:
    """Strong-ratio-limit table: rows p_0j(t)/p_00(t) along the grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ModelError("t_grid must be increasing")
    if M is None:
        M = sample_count(j_max, 1024)
    rows = []
    for t in t_grid:
        series = transition_probs(model, 0, float(t), j_max, r=r, M=M,
                                  rtol=rtol, method=method, clamp=False)
        p = series.values
        if p[0] <= 1e-300:
            raise ModelError(f"p_00({t:g}) below the numeric floor")
        rows.append(p / p[0])
    ratios = np.array(rows)
    stab = np.array([np.max(np.abs(ratios[k] - ratios[k - 1]))
                     for k in range(1, ratios.shape[0])])
    targets = None
    try:
        targets = limit_ratios(model, j_max)
    except (ModelError, PreconditionError):
        pass
    return RatioLimitTable(t_grid=t_grid, ratios=ratios, targets=targets,
                           stabilization=stab)


def measure_csv(measure: InvariantMeasure, header: Optional[dict] = None) -> str:
    """Comma-separated (j, m_j, bound) rows with a comment header block."""
    lines = []
    info = {"kind": measure.kind}
    info.update(measure.meta)
    info.update(header or {})
    for key in sorted(info):
        lines.append(f"# {key} = {info[key]}")
    lines.append("j,m_j,bound")
    bounds = measure.series.coefficient_bound()
    for j, (v, b) in enumerate(zip(measure.coefficients, bounds)):
        lines.append(f"{j},{v:.17g},{b:.3g}")
    return "\n".join(lines) + "\n"
