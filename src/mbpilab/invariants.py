"""Limit generating functions and invariant measures.

Positive-recurrent regime (gamma > 0): P(t; s) converges to

    U(s) = exp( integral_s^1 g(u)/f(u) du ),

whose coefficients u_j form the invariant distribution.  Transient regime
(gamma < 0, mu = 2*delta - nu > 0, C_ell/C_L = |gamma|): exp(T(t)) P(t; s)
converges to

    pi(s) = exp( (1-s)^(-|gamma|) ) * B(s),
    B(s)  = exp( integral_s^1 [ g/f + |gamma| (1-u)^(-1-|gamma|) ] du ),

whose coefficients pi_j form an invariant measure.  Both logarithms come
from the one primitive :func:`mbpilab.kernel.log_limit`, the potential h,
in every regime its closed power terms (:attr:`ModelSpec.potential_terms`)
plus one integral where the offspring tail function has a remainder; the
invariance check evaluates it at F(tau; s) as well, so its prediction needs
no truncation of the measure.  Both coefficient sequences are recovered by
circle inversion; for canonical models a direct power-series recurrence on
the same closed terms gives them a second time.  The coefficient tails are
heavy (u_j ~ const * j^(-1-gamma)), so truncated sums converge slowly, and
the normalization check takes the missing tail from the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelError, NumericsError, PreconditionError
from .inversion import (CoefficientSeries, circle_points,
                        coefficients_from_samples, sample_count)
from .kernel import flow_error, flow_on_grid, log_limit
from .laws import ModelSpec, series_value, signed_binomials


def series_coefficients(model: ModelSpec, kind: str, J: int) -> np.ndarray:
    """Coefficients of U (kind="distribution") or pi (kind="measure") by the
    exponential-of-series recurrence, for canonical offspring families.

    The exponent is the limit's potential h, here its closed terms alone
    (:attr:`ModelSpec.potential_terms`): h(s) = sum beta/e (1-s)**e, whose
    coefficients are beta/e times signed_binomials(e, J).  The coefficients
    of exp(h) satisfy  m_n = (1/n) sum_{k=1..n} k h_k m_{n-k}.  Requires
    offspring kappa = 0 (otherwise h has a non-elementary remainder).
    """
    if not model.canonical:
        raise ModelError("the coefficient recurrence needs canonical offspring "
                         "paired with a stable immigration law")
    if kind == "distribution":
        if not model.gamma > 0:
            raise PreconditionError("distribution coefficients need gamma > 0")
    elif kind == "measure":
        model.require_transient_limit()
    else:
        raise ModelError(f"unknown kind {kind!r}")
    h = sum(beta / e * signed_binomials(e, J) for beta, e in model.potential_terms)
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
    "distribution") for gamma > 0, of pi (kind "measure") for gamma < 0,
    from exp(log_limit) sampled on the half circle |s| = r.

    Coefficients are reported raw (no clamping); negative entries within the
    reported noise floor are extraction noise, not signal.  For heavy-tail
    accuracy at large j prefer a radius from ``inversion.suggest_radius``.
    The error of log m on the circle is not kept here; :func:`check_invariance`
    reports :func:`log_limit`'s estimate as ``quad_error``.
    """
    kind = "distribution" if model.gamma > 0 else "measure"
    log_vals, _ = log_limit(model, 1.0 - circle_points(r, M))
    series = coefficients_from_samples(np.exp(np.atleast_1d(log_vals)), r, J_out)
    tail = None
    if kind == "distribution" and model.canonical:
        exact = series_coefficients(model, "distribution", J_out)
        tail = float(1.0 - exact.sum())
    return InvariantMeasure(kind=kind, series=series, tail_estimate=tail)


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


def check_invariance(measure: InvariantMeasure, model: ModelSpec,
                     tau: float) -> InvarianceReport:
    """Apply the transition semigroup at lag tau to the measure coefficients
    and report |sum_i m_i p_ij(tau) - m_j| for j <= I // 2, I the measure's
    last index.

    By the branching property the sum has the generating function
    P(tau; s) * m(F(tau; s)), where m is the limit generating function
    (U for gamma > 0, pi for gamma < 0).  F comes from one
    :func:`flow_on_grid` call, and h(1 - s) and h(F) = log m(F) from two
    :func:`log_limit` calls (three potentials per invariant task, with the
    extraction's); log P = h(s) - h(F), 0 where F = s, as
    :func:`mbpilab.kernel.compute_P_grid` takes it.  One circle inversion
    of the product on the half circle |s| = 0.9 predicts every coefficient,
    at any lag.  The same inversion takes the product with the truncated
    m_I(z) = sum_{i<=I} m_i z^i (the extracted coefficients summed by
    :func:`mbpilab.laws.series_value`): the report keeps that sum as
    ``truncated`` and its largest departure from the prediction as the
    component ``i_truncation``, the part of sum_{i>I} m_i p_ij(tau) the
    extracted coefficients leave out, plus the roundoff of m_I(F) that the
    inversion amplifies by r**(-j).  The other components are the
    extraction's error sources; ``quad_error`` adds the estimates of log P
    (h(s)'s and h(F)'s, plus :func:`mbpilab.kernel.flow_error`) and of
    log m(F), in that order.
    The prediction is taken as exp(log P + log m(F)), one exponent, which
    stays finite at long transient lags where P underflows and m(F)
    overflows.

    log P is h(s) - h(F) for the h that :func:`log_limit` returns, so the
    prediction is m(s) up to roundoff and the verdict checks the two
    inversions and the i-truncation, not the kernel's log P.  For
    gamma < 0 it raises NumericsError where F(tau; s) rounds to 1 on the
    check circle, since log pi diverges there.
    """
    m = measure.coefficients
    j_max = (m.size - 1) // 2
    r, M = 0.9, sample_count(j_max, 1024)
    s_half = circle_points(r, M)
    R = flow_on_grid(model, s_half, [tau], "auto", 1e-10)[0]
    if model.gamma < 0 and not R.all():
        raise NumericsError(f"F(tau; s) rounds to 1 on the check circle at "
                            f"tau = {tau:g}, where log pi diverges")
    w = 1.0 - s_half
    h_s, err_s = log_limit(model, w)
    log_mF, err_F = log_limit(model, R)
    logp = np.where(w == R, 0.0, h_s - log_mF)
    F = s_half if tau == 0 else 1.0 - R
    half = np.stack([np.exp(logp + log_mF), np.exp(logp) * series_value(m, F)])
    both = coefficients_from_samples(half, r, j_max)
    prediction, truncated = both.row(0), both.values[1]
    residuals = np.abs(prediction.values - m[:j_max + 1])
    worst = int(np.argmax(residuals))
    components = {
        "prediction_aliasing": float(prediction.aliasing_bound),
        "prediction_noise": float(np.max(prediction.noise_floor())),
        "measure_noise": float(np.max(measure.series.coefficient_bound()[:j_max + 1])),
        "measure_tail": measure.tail_estimate,
        "i_truncation": float(np.max(np.abs(prediction.values - truncated))),
        "quad_error": (float(err_s + err_F) + flow_error(model, tau, "auto", 1e-10)
                       + err_F),
    }
    return InvarianceReport(tau=tau, predicted=prediction.values,
                            truncated=truncated, residuals=residuals,
                            max_residual=float(residuals[worst]),
                            argmax_j=worst, components=components)

