"""Gauss-Kronrod panel quadrature with global adaptive refinement.

Two engines are provided on top of the classical (G7, K15) pair:

* ``adaptive_quadrature`` -- a worst-panel-first refinement loop, meant for
  scalar or small-batch integrands.
* ``doubling_quadrature`` -- composite K15 with panel doubling until two
  successive levels agree; memory stays O(batch), which makes it the right
  engine for integrands evaluated simultaneously at many circle points.

Integrand contract: ``fun(x)`` receives a 1-d array of nodes and returns an
array of shape ``(len(x),)`` or ``(len(x), batch)``; values may be complex.
"""

from __future__ import annotations

import heapq

import numpy as np

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


def kronrod_rule():
    """Return (nodes, kronrod_weights, gauss_indices, gauss_weights) on [-1, 1]."""
    return _XK.copy(), _WK.copy(), _GIDX.copy(), _WG.copy()


def _eval_panel(fun, lo, hi):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = np.asarray(fun(mid + half * _XK))
    if fx.ndim == 1:
        fx = fx[:, None]
    i15 = half * (_WK @ fx)
    i7 = half * (_WG @ fx[_GIDX])
    err = float(np.max(np.abs(i15 - i7)))
    return i15, err


def adaptive_quadrature(fun, a, b, rtol=1e-10, atol=0.0, max_panels=4096,
                        initial_panels=8):
    """Integrate ``fun`` over [a, b] by worst-panel bisection.

    Returns ``(value, error_estimate)`` where ``value`` has the batch shape
    of the integrand (scalars come back as 0-d via ``value[0]`` being the
    single entry of a length-1 array).  Raises :class:`NumericsError` when
    the panel cap is hit before the tolerance is met.
    """
    if not b > a:
        raise ValueError("integration interval must have b > a")
    edges = np.linspace(a, b, initial_panels + 1)
    heap = []
    total = None
    counter = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _eval_panel(fun, lo, hi)
        total = val if total is None else total + val
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1
    while True:
        err_total = -sum(item[0] for item in heap)
        scale = max(float(np.max(np.abs(total))), 1e-300)
        if err_total <= max(atol, rtol * scale):
            return total, err_total
        if len(heap) >= max_panels:
            raise NumericsError(
                f"quadrature did not reach rtol={rtol:g} within "
                f"{max_panels} panels (err={err_total:.3g}, scale={scale:.3g})")
        _, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, erl = _eval_panel(fun, lo, mid)
        right, erh = _eval_panel(fun, mid, hi)
        total = total - val + left + right
        heapq.heappush(heap, (-erl, counter, lo, mid, left))
        counter += 1
        heapq.heappush(heap, (-erh, counter, mid, hi, right))
        counter += 1


def _composite(fun, a, b, n_panels):
    edges = np.linspace(a, b, n_panels + 1)
    total = None
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = _eval_panel(fun, lo, hi)
        total = val if total is None else total + val
    return total


def doubling_quadrature(fun, a, b, rtol=1e-10, atol=1e-300, n0=8,
                        max_doublings=10):
    """Composite K15 integration, doubling the panel count until two levels
    agree to ``rtol`` per batch entry.  Memory is O(batch)."""
    if not b > a:
        raise ValueError("integration interval must have b > a")
    prev = _composite(fun, a, b, n0)
    n = n0
    for _ in range(max_doublings):
        n *= 2
        cur = _composite(fun, a, b, n)
        diff = np.abs(cur - prev)
        tol = atol + rtol * np.maximum(np.abs(cur), 1e-300)
        if np.all(diff <= tol):
            return cur, float(np.max(diff))
        prev = cur
    raise NumericsError(
        f"doubling quadrature stalled at {n} panels "
        f"(max rel diff {float(np.max(diff / tol)):.3g} x tolerance)")
