import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbpilab import ModelError
from mbpilab.inversion import (circle_points, coefficients_from_samples,
                               complete_circle, sample_count,
                               suggest_radius)


def test_circle_points_layout():
    pts = circle_points(0.5, 8)
    assert pts.size == 8
    assert pts[0] == pytest.approx(0.5)
    assert np.allclose(np.abs(pts), 0.5)
    half = circle_points(0.5, 8, half=True)
    assert half.size == 5
    full = complete_circle(half, 8)
    assert np.allclose(full, pts)


def test_circle_points_validation():
    with pytest.raises(ModelError):
        circle_points(0.0, 8)
    with pytest.raises(ModelError):
        circle_points(0.5, 12)


def test_geometric_series_recovery():
    # G(s) = 1/(1 - 0.5 s): coefficients 0.5**j
    r, M, J = 0.9, 512, 64
    samples = 1.0 / (1.0 - 0.5 * circle_points(r, M))
    series = coefficients_from_samples(samples, r, J)
    expected = 0.5 ** np.arange(J + 1)
    err = np.abs(series.values - expected)
    assert np.all(err <= series.coefficient_bound() + 1e-15)
    assert err[:20].max() < 1e-12


def test_exponential_series_recovery():
    import math
    r, M, J = 0.8, 256, 24
    samples = np.exp(circle_points(r, M))
    series = coefficients_from_samples(samples, r, J)
    expected = 1.0 / np.array([math.factorial(j) for j in range(J + 1)],
                              dtype=float)
    assert np.allclose(series.values, expected, atol=1e-12)


def test_aliasing_bound_covers_exact_alias():
    # geometric coefficients q**j with M small enough that aliasing is visible
    q, r, J = 0.8, 0.9, 8
    M = 32
    samples = 1.0 / (1.0 - q * circle_points(r, M))
    series = coefficients_from_samples(samples, r, J)
    expected = q ** np.arange(J + 1)
    # exact alias of p_j is sum_m q**(j+mM) r**(mM)
    exact_alias = expected * (q * r) ** M / (1.0 - (q * r) ** M)
    err = np.abs(series.values - expected)
    assert np.all(err <= series.aliasing_bound + series.noise_floor() + 1e-15)
    assert np.all(exact_alias <= series.aliasing_bound)


def test_clamping_records_magnitude():
    r, M = 0.9, 256
    pts = circle_points(r, M)
    samples = 1.0 - 0.5 * pts + 0.25 * pts ** 2   # coefficient -0.5 at j=1
    raw = coefficients_from_samples(samples, r, 8, clamp=False)
    clamped = coefficients_from_samples(samples, r, 8, clamp=True)
    assert raw.values.min() == pytest.approx(-0.5, abs=1e-12)
    assert clamped.values.min() == 0.0
    assert clamped.values[1] == 0.0
    assert clamped.clamp_magnitude == pytest.approx(0.5, abs=1e-12)


def test_noise_floor_validated_against_recurrence(g025):
    # heavy-tailed invariant coefficients: beyond the radius-supported index
    # the extraction is noise; within it the bound must hold
    from mbpilab import extract_measure, series_coefficients
    exact = series_coefficients(g025, "distribution", 256)
    measure = extract_measure(g025, J_out=256, r=0.9, M=4096)
    err = np.abs(measure.coefficients - exact)
    bound = measure.series.coefficient_bound()
    valid = measure.series.validity_index(1e-9)
    assert 100 <= valid < 256
    assert np.all(err[:valid + 1] <= np.maximum(bound[:valid + 1], 1e-9))
    # beyond twice the validity index the raw values are provably junk
    assert err[valid * 3 // 2:].max() > 1e-9


_BOUNDS = ("aliasing_bound", "noise_scale", "clamp_magnitude", "imag_residual")


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
@pytest.mark.parametrize("clamp", [False, True])
def test_batched_inversion_matches_rows(batch, clamp):
    """Leading batch axes are inverted row by row: values and every bound
    equal the single-row calls exactly."""
    r, M, J = 0.85, 64, 12
    rng = np.random.default_rng(7)
    coef = rng.uniform(-0.2, 1.0, batch + (20,))
    s_half = circle_points(r, M, half=True)
    half = np.polynomial.polynomial.polyval(s_half, np.moveaxis(coef, -1, 0))
    full = complete_circle(half, M)
    series = coefficients_from_samples(full, r, J, clamp=clamp)
    assert full.shape == batch + (M,) and series.values.shape == batch + (J + 1,)
    for idx in np.ndindex(*batch):
        one_full = complete_circle(half[idx], M)
        assert np.array_equal(full[idx], one_full)
        one = coefficients_from_samples(one_full, r, J, clamp=clamp)
        row = series.row(idx)
        assert np.array_equal(row.values, one.values)
        for name in _BOUNDS:
            assert np.array_equal(getattr(row, name), getattr(one, name)), name
            assert np.shape(getattr(series, name)) == batch
        assert np.array_equal(series.noise_floor()[idx], one.noise_floor())
        assert np.array_equal(row.coefficient_bound(), one.coefficient_bound())


@given(coef=st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
                     min_size=1, max_size=4),
       r=st.floats(0.5, 0.95), log2_M=st.integers(6, 9))
def test_round_trip_within_coefficient_bound(coef, r, log2_M):
    """Nonnegative polynomials of degree < M, sampled on the half circle and
    inverted as one batch, come back within coefficient_bound()."""
    M = 2 ** log2_M
    J = M // 4
    exact = np.zeros((len(coef), J + 1))
    for k, c in enumerate(coef):
        exact[k, :min(len(c), J + 1)] = c[:J + 1]
    width = max(len(c) for c in coef)
    padded = np.array([c + [0.0] * (width - len(c)) for c in coef])
    half = np.polynomial.polynomial.polyval(circle_points(r, M, half=True),
                                            padded.T)
    series = coefficients_from_samples(complete_circle(half, M), r, J)
    for k in range(len(coef)):
        row = series.row(k)
        assert np.all(np.abs(row.values - exact[k]) <= row.coefficient_bound())


def test_suggest_radius_supports_target(g025):
    from mbpilab import extract_measure, series_coefficients
    r = suggest_radius(512, 2 ** 14)
    assert 0.9 < r < 0.995
    exact = series_coefficients(g025, "distribution", 512)
    measure = extract_measure(g025, J_out=512, r=r, M=2 ** 14)
    assert np.max(np.abs(measure.coefficients - exact)) <= 1e-9


def test_suggest_radius_rejects_impossible():
    with pytest.raises(ModelError):
        suggest_radius(20000, 2 ** 16)   # r ~ 0.9992 > 0.995


def test_sample_count_smallest_power_of_two():
    assert [sample_count(J) for J in (0, 1, 2, 3, 255, 256)] == [
        4, 8, 16, 16, 1024, 2048]
    assert sample_count(16, 256) == 256 and sample_count(256, 1024) == 2048
    assert sample_count(64, 1000) == 1024
