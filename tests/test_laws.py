import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mbpilab import (ModelError, ModelSpec, PreconditionError,
                     make_stable_immigration, make_stable_offspring,
                     validate_law)
from mbpilab.laws import (CRIT_TOL, MASS_TOL, immigration_from_coefficients,
                          offspring_from_coefficients, series_value)
from mbpilab.rvcalc import sv_constant

from oracles import binom_coeff, polyval_series


def test_offspring_canonical_coefficients():
    law = make_stable_offspring(0.5, 1.0, J=2000)
    # a_2 and beyond are untouched by re-balancing.
    assert law.coefficients[0] == pytest.approx(1.0, abs=1e-15)
    assert law.coefficients[2] == pytest.approx(0.375, abs=1e-14)
    # a_1 absorbs the criticality correction, small at J = 2000.
    assert law.coefficients[1] == pytest.approx(-1.5, abs=1e-4)
    for j in (3, 7, 50):
        assert law.coefficients[j] == pytest.approx(binom_coeff(1.5, j), rel=1e-12)


def test_offspring_scale():
    law = make_stable_offspring(0.5, 2.0, J=100)
    assert law.coefficients[0] == pytest.approx(2.0, abs=1e-15)


def test_offspring_rebalanced_sums_vanish():
    law = make_stable_offspring(0.5, 1.0, J=2000)
    a = law.coefficients
    assert abs(math.fsum(a)) <= 1e-12
    assert abs(math.fsum(j * v for j, v in enumerate(a))) <= 1e-9


def test_offspring_truncation_residual_shrinks_with_J():
    # raw (pre-balance) tail mass is the series tail, decaying like J**-(1+nu)
    tails = [make_stable_offspring(0.5, 1.0, J=J).series_tail_bound
             for J in (100, 1000, 10000)]
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] < 1e-3


def test_immigration_canonical_coefficients():
    law = make_stable_immigration(0.75, 0.25, J=2000)
    b = law.coefficients
    assert b[0] == pytest.approx(-0.25, abs=1e-15)
    assert b[1] == pytest.approx(0.1875, abs=1e-15)
    # b_2 = d * delta * (1 - delta) / 2
    assert b[2] == pytest.approx(0.0234375, abs=1e-15)
    assert abs(math.fsum(b)) <= 1e-12


def test_immigration_linear_coefficient_is_d_delta():
    law = make_stable_immigration(0.5, 1.0, J=50)
    assert law.coefficients[1] == pytest.approx(0.5, abs=1e-14)


def test_index_domain_rejected():
    with pytest.raises(ModelError):
        make_stable_offspring(1.0, 1.0)
    with pytest.raises(ModelError):
        make_stable_offspring(0.0, 1.0)
    with pytest.raises(ModelError):
        make_stable_immigration(1.0, 1.0)


def test_perturbation_sign_break_rejected():
    # 2*nu > 1: the heavy perturbation branch flips a_3 negative
    with pytest.raises(ModelError):
        make_stable_offspring(0.75, 1.0, kappa=1.0)
    # 2*delta > 1 similarly for immigration
    with pytest.raises(ModelError):
        make_stable_immigration(0.75, 0.25, kappa=1.0)
    # boundary case 2*nu = 1 is a polynomial perturbation, always sign-safe
    law = make_stable_offspring(0.5, 1.0, kappa=3.0, J=200)
    assert validate_law(law).ok


def test_validate_canonical_passes():
    law = make_stable_offspring(0.5, 1.0, J=2000)
    report = validate_law(law)
    assert report.ok
    mass = next(c for c in report.checks if c.name == "mass_balance")
    assert mass.residual <= 1e-6


def _with_coefficient(law, index, value):
    """A copy of ``law``'s truncated law with one coefficient replaced."""
    coefficients = law.coefficients.copy()
    coefficients[index] = value
    return dataclasses.replace(law.truncated(), coefficients=coefficients)


def test_a_law_given_another_spec_builds_its_own_series():
    # dataclasses.replace reads the old law's series and hands it over; a
    # law with a truncation order drops it and builds its own from its spec
    law = dataclasses.replace(make_stable_offspring(0.5, 1.0, J=50),
                              sv_spec=sv_constant(2.0))
    assert law.coefficients[0] == 2.0
    y = np.linspace(0.0, 1.0, 11)
    assert (np.max(np.abs(law.truncated().gf_at_one_minus(y) - law.gf_at_one_minus(y)))
            <= law.series_tail_bound)


@pytest.mark.parametrize("name", ["g025", "gneg", "gneg_pert", "g025_pert_off"])
def test_truncated_model_is_the_bare_series(name, request):
    model = request.getfixturevalue(name)
    bare = model.truncated()
    assert (bare.nu, bare.delta) == (model.nu, model.delta)
    assert not bare.has_closed_form and bare.C_ratio is None
    for law, cut in ((model.offspring, bare.offspring),
                     (model.immigration, bare.immigration)):
        assert type(cut) is type(law) and cut.index == law.index
        assert cut.coefficients.tobytes() == law.coefficients.tobytes()
        assert not cut.closed_form and cut.sv_spec is None
        assert cut.series_tail_bound == 0.0


def test_validate_flags_injected_negative_coefficient():
    law = _with_coefficient(make_stable_offspring(0.5, 1.0, J=100), 2, -0.1)
    report = validate_law(law)
    bad = {c.name: c.passed for c in report.checks}
    assert not bad["sign_pattern"]
    assert not report.ok


def test_validate_flags_broken_criticality():
    law = _with_coefficient(make_stable_offspring(0.5, 1.0, J=100), 1, -1.4)
    report = validate_law(law)
    bad = {c.name: c.passed for c in report.checks}
    assert not bad["criticality"]


def test_gf_closed_form_values():
    off = make_stable_offspring(0.5, 1.0, J=100)
    assert off.gf(1.0) == pytest.approx(0.0, abs=1e-15)
    assert off.gf(0.5) == pytest.approx(0.5 ** 1.5, abs=1e-15)
    imm = make_stable_immigration(0.75, 0.25, J=100)
    assert imm.truncated().gf(0.0) == pytest.approx(-0.25, abs=1e-12)


def test_gf_outside_disc_rejected():
    law = make_stable_offspring(0.5, 1.0, J=50)
    with pytest.raises(ModelError):
        law.gf(1.2)
    with pytest.raises(ModelError):
        law.gf(1.0 + 0.5j)


def test_series_matches_closed_form_within_tail_bound(rng):
    for law in (make_stable_offspring(0.5, 1.0, J=2000),
                make_stable_offspring(0.45, 0.7, kappa=0.5, J=2000),
                make_stable_immigration(0.75, 0.25, J=2000),
                make_stable_immigration(0.6, 0.5, kappa=0.3, J=2000)):
        s = rng.uniform(0.0, 1.0, size=100)
        closed = law.gf(s)
        series = law.truncated().gf(s)
        assert np.max(np.abs(closed - series)) <= law.series_tail_bound


@pytest.mark.parametrize("n_coef", [2, 3, 63, 64, 65, 2001])
def test_series_mode_matches_horner_oracle(n_coef, rng):
    # Blocked evaluation against a plain Horner loop: every coefficient
    # block split (K = 1, 2 with a short tail, 32), point blocks split
    # (255, 257, 1025 points), |z| <= 1 with z = +-1, real and complex z.
    c = rng.uniform(-1.0, 1.0, size=n_coef)
    law = (immigration_from_coefficients if n_coef == 2
           else offspring_from_coefficients)(c)
    tol = 1e-13 * np.sum(np.abs(c))
    for shape in [(), (1,), (255,), (257,), (1025,), (15, 257), (15, 1025)]:
        z = (np.sqrt(rng.uniform(0.0, 1.0, size=shape))
             * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=shape)))
        if shape:
            z.flat[0], z.flat[-1] = 1.0, -1.0
        for points in (z, np.real(z)):
            got = law.gf(points)
            want = polyval_series(c, points)
            assert np.shape(got) == np.shape(want)
            assert np.iscomplexobj(got) == np.iscomplexobj(want)
            assert np.max(np.abs(got - want)) <= tol
            y = 1.0 - points
            got = law.gf_at_one_minus(y)
            assert np.max(np.abs(got - polyval_series(c, 1.0 - y))) <= tol
    assert law.gf(1.0) == pytest.approx(np.sum(c), abs=tol)
    assert law.gf(0) == c[0]


def test_series_value_sums_any_real_coefficients(rng):
    # the laws' blocked Horner, public for sums that are no law's, such as
    # the invariance check's truncated measure: a list of coefficients of
    # any signs, one point or a batch, within a few ulps of a plain loop
    c = rng.uniform(-1.0, 1.0, size=257)
    z = 0.9 * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=513))
    tol = 1e-13 * np.sum(np.abs(c))
    got = series_value(c.tolist(), z)
    assert got.shape == z.shape
    assert np.max(np.abs(got - polyval_series(c, z))) <= tol
    assert series_value(c, 0.5) == pytest.approx(polyval_series(c, 0.5), abs=tol)


def test_coefficient_positivity_across_indices(rng):
    for nu in rng.uniform(0.05, 0.95, size=5):
        law = make_stable_offspring(float(nu), 1.0, J=300)
        assert np.all(law.coefficients[2:] > 0)


def test_model_spec_requires_nonzero_gamma():
    off = make_stable_offspring(0.5, 1.0, J=100)
    imm = make_stable_immigration(0.5, 0.25, J=100)
    with pytest.raises(PreconditionError):
        ModelSpec(off, imm)


def test_transient_limit_precondition(gneg, g025):
    gneg.require_transient_limit()
    with pytest.raises(PreconditionError):
        g025.require_transient_limit()
    bad = ModelSpec(gneg.offspring, make_stable_immigration(0.5, 0.3, J=100))
    with pytest.raises(PreconditionError):
        bad.require_transient_limit()


def test_coefficients_from_text():
    law = offspring_from_coefficients([1.0, -1.5, 0.375, 0.125], nu=0.5)
    assert law.truncation_order == 3
    report = validate_law(law)
    assert not report.ok  # sums do not balance for this short list


_BAD = [math.nan, math.inf, -math.inf]


@given(nu=st.one_of(st.floats(0.0, 1.0), st.sampled_from(_BAD + [-0.5, 1.5])),
       c=st.one_of(st.floats(1e-3, 1e7), st.sampled_from(_BAD + [0.0, -1.0])),
       kappa=st.one_of(st.floats(0.0, 10.0), st.sampled_from(_BAD + [-1.0])),
       J=st.integers(0, 300))
def test_stable_laws_balanced_or_refused(nu, c, kappa, J):
    # Both built-in families, with nu standing in for delta and c for d:
    # construction either gives a law conservative to rounding (the
    # offspring law also critical), relative to its scale max(1, sum |a_j|),
    # or refuses with a ModelError, never anything else.
    for make in (make_stable_offspring, make_stable_immigration):
        try:
            law = make(nu, c, kappa, J)
        except ModelError:
            continue
        a = law.coefficients
        scale = max(1.0, math.fsum(np.abs(a)))
        assert abs(math.fsum(a)) <= MASS_TOL * scale
        if make is make_stable_offspring:
            drift = math.fsum(j * aj for j, aj in enumerate(a))
            assert abs(drift) <= CRIT_TOL * scale
        report = validate_law(law)
        passed = {check.name: check.passed for check in report.checks}
        assert passed["mass_balance"] and passed.get("criticality", True)


def test_validate_law_tolerance_follows_the_scale():
    # critical to rounding at c = 1e7 (drift 1.4e-9, 4e-17 of sum |a_j|)
    law = make_stable_offspring(0.3, 1e7, J=3)
    assert validate_law(law).ok
    # a drift of 1e-6 of the scale is still refused
    a = law.coefficients.copy()
    shift = 1e-6 * np.abs(a).sum()
    a[2] += shift
    a[0] -= shift
    report = validate_law(offspring_from_coefficients(a, nu=0.3))
    passed = {check.name: check.passed for check in report.checks}
    assert passed["mass_balance"] and not passed["criticality"]


# Each distinct law of the four benchmark models at truncation 2000, pinned
# by a digest of its coefficients, its closed form at 1 - Y and its series
# tail bound: any change of the binomial expansion, the re-balance or the
# closed form's floating-point operations changes one.
_Y = np.array([1e-12, 1e-6, 0.3, 1.0])
GOLDEN_LAWS = [
    (make_stable_offspring, (0.5, 1.0, 0.0), "69bfd6d1ba533e58"),     # g025
    (make_stable_immigration, (0.75, 0.25, 0.0), "5f3ab7a234562568"),  # g025
    (make_stable_offspring, (0.75, 1.0, 0.0), "81edaf1261479de6"),    # gneg
    (make_stable_immigration, (0.5, 0.25, 0.0), "ad9f704c28e1643c"),   # gneg
    (make_stable_immigration, (0.5, 0.25, 1.0), "1129834e68889b7e"),   # gneg_pert
    (make_stable_offspring, (0.5, 1.0, 1.0), "d054586c296f7696"),     # g025_pert_off
]


@pytest.mark.parametrize("make,args,digest", GOLDEN_LAWS)
def test_stable_laws_pinned(make, args, digest):
    law = make(*args, J=2000)
    data = (law.coefficients.tobytes() + law.gf_at_one_minus(_Y).tobytes()
            + np.float64(law.series_tail_bound).tobytes())
    assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_truncation_order_and_closed_form_follow_the_fields():
    law = make_stable_immigration(0.5, 0.25, J=40)
    assert law.truncation_order == 40 and law.closed_form
    assert "coefficients" not in vars(law)  # J is read without the series
    bare = offspring_from_coefficients([0.5, -1.0, 0.5])
    assert bare.truncation_order == 2 and not bare.closed_form
    # coefficients stay an init keyword; the derived properties are not, and
    # the closed form's scale and kappa are views of the tail spec
    assert type(law)(coefficients=law.coefficients).truncation_order == 40
    assert (law.scale, law.kappa) == (0.25, 0.0) and (bare.scale, bare.kappa) == (None, 0.0)
    for derived in ("truncation_order", "closed_form", "scale", "kappa"):
        with pytest.raises(TypeError):
            type(law)(coefficients=law.coefficients, **{derived: 3})


def test_sign_safe_laws_build_on_first_read():
    # With every branch exponent SHIFT+index and SHIFT+2*index at most
    # SHIFT+1, each term of the expansion has the role's sign and the
    # re-balance keeps it: such a law defers its series to the first read,
    # which never refuses.  Above 1/2 a perturbed law is checked at once.
    indices = (1e-3, 0.25, math.nextafter(0.5, 0.0), 0.5, 0.75, 0.999)
    for make, shift in ((make_stable_offspring, 1), (make_stable_immigration, 0)):
        for index in indices:
            for kappa in (0.0, 1e-9, 1.0, 10.0, 1e6):
                if kappa and index > 0.5:
                    continue
                for J in [*range(shift + 1, 41), 200, 2000]:
                    law = make(index, 1.0, kappa, J)
                    assert "coefficients" not in vars(law)
                    report = validate_law(law)
                    sign = next(c for c in report.checks if c.name == "sign_pattern")
                    assert sign.passed, (make.__name__, index, kappa, J)
        for J in (40, 2000):
            with pytest.raises(ModelError, match="sign pattern"):
                make(0.75, 1.0, 1.0, J)
