"""Limit generating functions and invariant measures.

Positive-recurrent regime (gamma > 0): P(t; s) converges to

    U(s) = exp( integral_s^1 g(u)/f(u) du ),

whose coefficients u_j form the invariant distribution.  Transient regime
(gamma < 0, mu = 2*delta - nu > 0, C_ell/C_L = |gamma|): exp(T(t)) P(t; s)
converges to

    pi(s) = exp( (1-s)^(-|gamma|) ) * B(s),
    B(s)  = exp( integral_s^1 [ g/f + |gamma| (1-u)^(-1-|gamma|) ] du ),

whose coefficients pi_j form an invariant measure.  Both logarithms come
from the one primitive :func:`mbpilab.kernel.log_limit`, which reads the
regime from the sign of gamma; the invariance check evaluates it at
F(tau; s) as well, so its prediction needs no truncation of the measure.
Both coefficient sequences are recovered by circle inversion, with a
direct power-series recurrence available for the stable families as a
second, independent route (and for tail accounting:
the coefficient tails are heavy, e.g. u_j ~ const * j^(-1-gamma), so
truncated sums converge slowly and the normalization checks must account
for the missing tail explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ModelError, PreconditionError
from .inversion import (CoefficientSeries, circle_points,
                        coefficients_from_samples, complete_circle,
                        sample_count)
from .kernel import compute_P_grid, log_limit, transition_grid
from .laws import ModelSpec, signed_binomials


def series_coefficients(model: ModelSpec, kind: str, J: int) -> np.ndarray:
    """Coefficients of U (kind="distribution") or pi (kind="measure") by the
    exponential-of-series recurrence, for canonical offspring families.

    With h(s) = sum h_k s^k the exponent of the limit function, the
    coefficients of exp(h) satisfy  m_n = (1/n) sum_{k=1..n} k h_k m_{n-k}.
    Requires offspring kappa = 0 (otherwise no elementary exponent exists).
    """
    if not model.canonical:
        raise ModelError("the coefficient recurrence needs canonical offspring "
                         "paired with a stable immigration law")
    c, d = model.offspring.scale, model.immigration.scale
    kap = model.immigration.kappa
    gamma, mu = model.gamma, model.mu
    h = np.zeros(J + 1)
    if kind == "distribution":
        if not gamma > 0:
            raise PreconditionError("distribution coefficients need gamma > 0")
        h += -(d / (c * gamma)) * signed_binomials(gamma, J)
        if kap:
            h += -(d * kap / (c * mu)) * signed_binomials(mu, J)
    elif kind == "measure":
        model.require_transient_limit()
        h += signed_binomials(-abs(gamma), J)
        if kap:
            h += -(abs(gamma) * kap / mu) * signed_binomials(mu, J)
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


def extract_measure(model: ModelSpec, J_out: int = 512, r: float = 0.9,
                    M: int = 16384) -> InvariantMeasure:
    """Circle-inversion extraction of the invariant coefficients: of U (kind
    "distribution") for gamma > 0, of pi (kind "measure") for gamma < 0.

    Coefficients are reported raw (no clamping); negative entries within the
    reported noise floor are extraction noise, not signal.  For heavy-tail
    accuracy at large j prefer a radius from ``inversion.suggest_radius``.
    """
    kind = "distribution" if model.gamma > 0 else "measure"
    s_half = circle_points(r, M, half=True)
    log_vals, err = log_limit(model, 1.0 - s_half)
    samples = complete_circle(np.exp(np.atleast_1d(log_vals)), M)
    series = coefficients_from_samples(samples, r, J_out, clamp=False,
                                       meta={"kind": kind, "quad_error": err,
                                             "M": M})
    tail = None
    if kind == "distribution" and model.canonical:
        exact = series_coefficients(model, "distribution", J_out)
        tail = float(1.0 - exact.sum())
    return InvariantMeasure(kind=kind, series=series, tail_estimate=tail,
                            meta={"J_out": J_out, "r": r, "M": M,
                                  "gamma": model.gamma})


@dataclass
class InvarianceReport:
    """Residuals of  m_j = sum_i m_i p_ij(tau)  over j."""

    tau: float
    predicted: np.ndarray         # sum_i m_i p_ij(tau), j = 0..j_max
    truncated: np.ndarray         # sum_{i<=I} m_i p_ij(tau), j = 0..j_max
    residuals: np.ndarray
    max_residual: float
    argmax_j: int
    components: dict

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol


def check_invariance(measure: InvariantMeasure, model: ModelSpec, tau: float,
                     j_max: Optional[int] = None) -> InvarianceReport:
    """Apply the transition semigroup at lag tau to the measure coefficients
    and report |sum_i m_i p_ij(tau) - m_j| for j <= j_max (default I/2).

    By the branching property the sum has the generating function
    P(tau; s) * m(F(tau; s)), where m is the limit generating function
    (U for gamma > 0, pi for gamma < 0).  P and F come from one
    :func:`compute_P_grid` call and log m(F) from one :func:`log_limit`
    call, so one circle inversion of the product predicts every
    coefficient, at any lag.  The same inversion takes the product with the
    truncated m_I(z) = sum_{i<=I} m_i z^i (by Horner over the extracted
    coefficients): the report keeps that sum as ``truncated`` and its
    largest departure from the prediction as the component
    ``i_truncation``, the part of sum_{i>I} m_i p_ij(tau) the extracted
    coefficients leave out.  The other components are the extraction's
    error sources; ``quad_error`` adds the estimates of log P and log m(F).
    """
    m = measure.coefficients
    I = m.size - 1
    if j_max is None:
        j_max = I // 2
    r, M = 0.9, sample_count(j_max, 1024)
    s_half = circle_points(r, M, half=True)
    logp, R, err = compute_P_grid(model, s_half, [tau])
    log_mF, limit_err = log_limit(model, R[0])
    F = s_half if tau == 0 else 1.0 - R[0]
    m_of_F = np.zeros_like(F)
    for coefficient in m[::-1]:
        m_of_F = m_of_F * F + coefficient
    P = np.exp(logp[0])
    half = np.stack([P * np.exp(log_mF), P * m_of_F])
    both = coefficients_from_samples(complete_circle(half, M), r, j_max)
    prediction, truncated = both.row(0), both.values[1]
    residuals = np.abs(prediction.values - m[:j_max + 1])
    worst = int(np.argmax(residuals))
    components = {
        "prediction_aliasing": float(prediction.aliasing_bound),
        "prediction_noise": float(np.max(prediction.noise_floor())),
        "measure_noise": float(np.max(measure.series.coefficient_bound()[:j_max + 1])),
        "measure_tail": measure.tail_estimate,
        "i_truncation": float(np.max(np.abs(prediction.values - truncated))),
        "quad_error": err + limit_err,
    }
    return InvarianceReport(tau=tau, predicted=prediction.values,
                            truncated=truncated, residuals=residuals,
                            max_residual=float(residuals[worst]),
                            argmax_j=worst, components=components)


@dataclass
class RatioLimitTable:
    """upsilon_j(t) = p_0j(t) / p_00(t) over a time grid, with targets."""

    t_grid: np.ndarray
    ratios: np.ndarray            # shape (len(t_grid), j_max+1)
    targets: Optional[np.ndarray]
    stabilization: np.ndarray     # max_j |row_k - row_{k-1}|


def limit_ratios(model: ModelSpec, j_max: int) -> np.ndarray:
    """Normalized limit ratios m_j/m_0 (u for gamma > 0, pi for gamma < 0)."""
    if model.canonical:
        kind = "distribution" if model.gamma > 0 else "measure"
        m = series_coefficients(model, kind, j_max)
    else:
        m = extract_measure(model, J_out=j_max).coefficients
    return m / m[0]


def ratio_limits(model: ModelSpec, j_max: int, t_grid,
                 method: str = "auto") -> RatioLimitTable:
    """Strong-ratio-limit table: rows p_0j(t)/p_00(t) along the grid, from
    one :func:`transition_grid` call."""
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ModelError("t_grid must be increasing")
    p = transition_grid(model, [0], t_grid, j_max, M=sample_count(j_max, 1024),
                        method=method).values[:, 0]
    low = np.flatnonzero(p[:, 0] <= 1e-300)
    if low.size:
        raise ModelError(f"p_00({t_grid[low[0]]:g}) below the numeric floor")
    ratios = p / p[:, :1]
    stab = np.max(np.abs(np.diff(ratios, axis=0)), axis=1)
    targets = None
    try:
        targets = limit_ratios(model, j_max)
    except (ModelError, PreconditionError):
        pass
    return RatioLimitTable(t_grid=t_grid, ratios=ratios, targets=targets,
                           stabilization=stab)


def measure_csv(measure: InvariantMeasure) -> str:
    """Comma-separated (j, m_j, bound) rows with a comment header block."""
    lines = []
    info = {"kind": measure.kind}
    info.update(measure.meta)
    for key in sorted(info):
        lines.append(f"# {key} = {info[key]}")
    lines.append("j,m_j,bound")
    bounds = measure.series.coefficient_bound()
    for j, (v, b) in enumerate(zip(measure.coefficients, bounds)):
        lines.append(f"{j},{v:.17g},{b:.3g}")
    return "\n".join(lines) + "\n"
