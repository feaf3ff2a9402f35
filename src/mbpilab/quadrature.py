"""Gauss-Kronrod panel quadrature with global adaptive refinement.

Two engines are provided on top of the classical (G7, K15) pair:

* ``doubling_quadrature`` -- composite K15 on 1, 2, 4, ... equal panels,
  accepted on its own embedded |K15 - G7| estimate, doubling the panel
  count only when that estimate misses the tolerance (or until two
  successive levels agree); every accepted error is floored at QUADPACK's
  roundoff bound 50 eps resabs.  Memory stays O(batch), which makes it the
  right engine for integrands evaluated simultaneously at many circle
  points.  It is the one engine the lab computes with.
* ``adaptive_quadrature`` -- a worst-panel-first refinement loop, kept as
  an independent reference for the tests' oracles.

Each call of either engine reports once to ``telemetry``: ``quad.calls``,
``quad.panels``, ``quad.levels`` (levels evaluated, or bisections),
``quad.integrand_values`` (nodes times batch width) and the gauge
``quad.max_error``.

Integrand contract: ``fun(x)`` receives a 1-d array of nodes and returns an
array of shape ``(len(x),)`` or ``(len(x), batch)``; values may be complex.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import telemetry
from .errors import NumericsError

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: QUADPACK's qk15
# tables (Piessens et al., 1983) of the nonnegative nodes, descending to 0,
# and their weights, to 33 digits so that each constant is the correctly
# rounded double and the rule's moments are right to a few ulp (15-digit
# constants left sum(_WK) short of 2 by 6e-15, biasing every panel).
_XK_POS = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK_POS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG_POS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])
_XK = np.concatenate((-_XK_POS[:-1], _XK_POS[::-1]))
_WK = np.concatenate((_WK_POS[:-1], _WK_POS[::-1]))
_GIDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.concatenate((_WG_POS[:-1], _WG_POS[::-1]))
# QUADPACK's roundoff floor on an accepted error, in units of resabs
_ROUNDOFF = 50 * np.finfo(float).eps


def kronrod_rule():
    """Return (nodes, kronrod_weights, gauss_indices, gauss_weights) on [-1, 1]."""
    return _XK.copy(), _WK.copy(), _GIDX.copy(), _WG.copy()


def _eval_panel(fun, lo, hi):
    """K15 sum over one panel, its per-entry |K15 - G7| and the K15 sum of
    |f| (QUADPACK's resabs); the (15, batch) integrand array is freed on
    return.  The sums are einsum reductions, not matrix products, so that
    they stay off threaded BLAS."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = np.asarray(fun(mid + half * _XK))
    if fx.ndim == 1:
        fx = fx[:, None]
    i15 = half * np.einsum("k,kb->b", _WK, fx)
    i7 = half * np.einsum("k,kb->b", _WG, fx[_GIDX])
    return i15, np.abs(i15 - i7), half * np.einsum("k,kb->b", _WK, np.abs(fx))


def _report(panels, levels, width, err):
    telemetry.add("quad.calls")
    telemetry.add("quad.panels", panels)
    telemetry.add("quad.levels", levels)
    telemetry.add("quad.integrand_values", _XK.size * panels * width)
    telemetry.peak("quad.max_error", err)


def adaptive_quadrature(fun, a, b, rtol=1e-10, max_panels=4096,
                        initial_panels=8):
    """Integrate ``fun`` over [a, b] by worst-panel bisection.

    Returns ``(value, error_estimate)`` where ``value`` has the batch shape
    of the integrand (length 1 for a 1-d integrand).  Raises
    :class:`NumericsError` when the panel cap is hit before the tolerance
    is met.  No computation of the lab calls it: it stays as a second,
    differently refined engine that the tests' oracles check
    :func:`doubling_quadrature`'s results against, and because the
    benchmark's tracer binds it.
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    edges = np.linspace(a, b, initial_panels + 1)
    heap = []
    total = None
    counter = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err, _ = _eval_panel(fun, lo, hi)
        total = val if total is None else total + val
        heapq.heappush(heap, (-float(np.max(err)), counter, lo, hi, val))
        counter += 1
    bisections = 0
    while True:
        err_total = -sum(item[0] for item in heap)
        scale = max(float(np.max(np.abs(total))), 1e-300)
        if err_total <= rtol * scale:
            _report(len(heap) + bisections, bisections, total.size, err_total)
            return total, err_total
        if len(heap) >= max_panels:
            _report(len(heap) + bisections, bisections, total.size, err_total)
            raise NumericsError(
                f"quadrature did not reach rtol={rtol:g} within "
                f"{max_panels} panels (err={err_total:.3g}, scale={scale:.3g})")
        _, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, erl, _ = _eval_panel(fun, lo, mid)
        right, erh, _ = _eval_panel(fun, mid, hi)
        bisections += 1
        total = total - val + left + right
        heapq.heappush(heap, (-float(np.max(erl)), counter, lo, mid, left))
        counter += 1
        heapq.heappush(heap, (-float(np.max(erh)), counter, mid, hi, right))
        counter += 1


def _composite(fun, a, b, n_panels):
    """Composite K15 sum over ``n_panels`` equal panels with the per-entry
    sums of the panels' |K15 - G7| and resabs."""
    edges = np.linspace(a, b, n_panels + 1)
    sums = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts = _eval_panel(fun, lo, hi)
        sums = parts if sums is None else [x + y for x, y in zip(sums, parts)]
    return sums


def doubling_quadrature(fun, a, b, rtol=1e-10, n0=1):
    """Composite K15 integration on n0, 2 n0, ... equal panels.  Memory is
    O(batch).

    A level is accepted when, for every batch entry, its embedded estimate
    (the sum over panels of |K15 - G7|) is at most ``rtol * |K15|`` (with a
    floor of 1e-300).  Otherwise the panel count doubles, and a level is
    also accepted when it agrees with the one before to the same tolerance,
    the difference then standing as the estimate.  Either estimate can
    undercut the level's own roundoff, so it is floored at QUADPACK's bound
    50 eps resabs (resabs the K15 sum of |f|); the error returned is the
    largest floored estimate.  So an integrand that cancels past
    resabs / |value| ~ rtol / (50 eps) fails every level.  Raises
    :class:`NumericsError` when neither test passes within 13 doublings (up
    to 8192 n0 panels).
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    n, prev, panels = n0, None, 0
    for level in range(1, 15):
        cur, est, resabs = _composite(fun, a, b, n)
        panels += n
        tol = 1e-300 + rtol * np.maximum(np.abs(cur), 1e-300)
        floor = _ROUNDOFF * resabs
        err = np.maximum(est, floor)
        if prev is not None and not np.all(err <= tol):
            err = np.maximum(np.abs(cur - prev), floor)
        if np.all(err <= tol):
            _report(panels, level, cur.size, float(np.max(err)))
            return cur, float(np.max(err))
        prev, n = cur, 2 * n
    _report(panels, level, cur.size, float(np.max(err)))
    raise NumericsError(
        f"doubling quadrature stalled at {n // 2} panels (error estimate "
        f"{float(np.max(err / tol)):.3g} x tolerance)")
