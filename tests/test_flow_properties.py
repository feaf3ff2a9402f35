"""Property tests of the backward flow: the semigroup identity, the closed
forms of the stable families, the fixed point at s = 1 and the
Chapman-Kolmogorov identity of P, on drawn points (the draws are fixed by
the profile in conftest.py)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbpilab import compute_P_grid, exact_R, solve_F, stable_model

# complex |s| <= 0.95, and times log-uniform in [1e-2, 1e3]
points = st.builds(lambda rho, theta: rho * np.exp(1j * theta),
                   st.floats(0.0, 0.95), st.floats(-np.pi, np.pi))
times = st.floats(-2.0, 3.0).map(lambda x: 10.0 ** x)


@pytest.fixture(scope="module")
def g025_J200():
    """The truncated laws of g025 at J = 200: the flow of their series."""
    return stable_model(nu=0.5, c=1.0, delta=0.75, d=0.25, J=200).truncated()


def _semigroup_residual(model, method, s, t1, t2):
    """|R(t1+t2; s) - R(t2; F(t1; s))| / |R(t1+t2; s)|.  The restart point
    enters as s = 1 - R(t1; s), which costs eps/|R| of R: under 1e-10 on
    these draws."""
    whole = solve_F(model, t1 + t2, s, method=method)
    inner = 1.0 - solve_F(model, t1, s, method=method)
    split = solve_F(model, t2, inner, method=method)
    return abs(whole - split) / abs(whole)


@pytest.mark.parametrize("name, method", [("g025", "quad"), ("gneg", "quad"),
                                          ("g025_pert_off", "quad"),
                                          pytest.param("g025_J200", "quad",
                                                       id="g025_J200-series")])
def test_flow_semigroup(name, method, request):
    model = request.getfixturevalue(name)

    @given(s=points, t1=times, t2=times)
    def check(s, t1, t2):
        assert _semigroup_residual(model, method, s, t1, t2) <= 1e-9

    check()


@pytest.mark.parametrize("name", ["g025", "gneg", "g025_pert_off"])
def test_ode_matches_closed_form(name, request):
    model = request.getfixturevalue(name)

    @given(s=points, t=times)
    def check(s, t):
        ode = solve_F(model, t, s, method="quad", rtol=1e-13)
        exact = exact_R(model.offspring, t, s)
        assert abs(ode - exact) <= 1e-12 * abs(exact)

    check()


@pytest.mark.parametrize("truncated, method",
                         [pytest.param(False, "quad", id="quad"),
                          pytest.param(True, "quad", id="series"),
                          pytest.param(False, "closed", id="closed")])
def test_fixed_point_stays_exact(g025, truncated, method):
    model = g025.truncated() if truncated else g025

    @given(t=times, others=st.lists(points, max_size=3))
    def check(t, others):
        R = solve_F(model, t, np.array([1.0] + others), method=method)
        assert R[0] == 0.0
        assert np.all(R[1:] != 0.0)

    check()


@pytest.mark.parametrize("method", ["auto", "quad"])
@pytest.mark.parametrize("name", ["g025", "gneg_pert"])
def test_chapman_kolmogorov(name, method, request):
    # P(t1+t2; s) = P(t1; s) P(t2; F(t1; s)), with log P to within the
    # errors compute_P_grid reports plus the rounding of the restart point:
    # F = 1 - R(t1; s) is only good to an absolute eps, which
    # log P(t2; .) amplifies by its slope, about gamma R**(gamma-1) on the
    # closed route (without it the closed route misses by up to 3.4x on
    # these draws).  The slope is measured by a step of eps.
    model = request.getfixturevalue(name)
    eps = np.finfo(float).eps

    @given(s=st.builds(lambda rho, theta: rho * np.exp(1j * theta),
                       st.floats(0.0, 0.9), st.floats(-np.pi, np.pi)),
           t1=st.floats(-1.0, 3.0).map(lambda x: 10.0 ** x),
           t2=st.floats(-1.0, 3.0).map(lambda x: 10.0 ** x))
    def check(s, t1, t2):
        whole, _, whole_err = compute_P_grid(model, [s], [t1 + t2], method=method)
        first, R, first_err = compute_P_grid(model, [s], [t1], method=method)
        F = 1.0 - R[0, 0]
        second, _, second_err = compute_P_grid(model, [F], [t2], method=method)
        nudged, _, _ = compute_P_grid(model, [F + eps], [t2], method=method)
        tol = (whole_err + first_err + second_err
               + abs(nudged[0, 0] - second[0, 0]))
        assert abs(whole[0, 0] - (first[0, 0] + second[0, 0])) <= tol

    check()
