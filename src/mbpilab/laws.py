"""Offspring and immigration intensity laws: one class of law, two roles.

An offspring law is a sequence a_0..a_J with a_0 > 0, a_1 < 0, a_j >= 0
otherwise, zero total mass (sum a_j = 0) and zero drift (sum j*a_j = 0);
its generating function is f(s) = sum a_j s^j.  An immigration law has
b_0 < 0, b_j >= 0 for j >= 1 and zero total mass; g(s) = sum b_j s^j.
One frozen dataclass carries either.  Its role subclasses, BranchingLaw (f)
and ImmigrationLaw (g), only fix the sign SIGN (+1, -1) and the offset
SHIFT (1, 0): the position of the negative coefficient and the highest
order of the moments that vanish.  A law with a tail spec
c*(1 + kappa*x**(-theta)) (:class:`mbpilab.rvcalc.SlowlyVaryingSpec`) and
a truncation order has the closed form

    SIGN * c * ((1-s)**(SHIFT+index) + kappa*(1-s)**(SHIFT+index+theta)),

whose tail function is that spec; the built-in stable families are f with
index nu and scale c, g with index delta and scale d, both with
theta = index.  Coefficients come from the generalized binomial expansion,
truncated at order J; the residual mass is folded into the last coefficient
and, for f, the drift into a_1, so the truncated law is exactly
conservative and f exactly critical.  A stable law builds that truncated
series on the first read of its coefficients (the kernel, rate, lemma and
invariant computations run on the closed form and never read it), except
where the re-balance can break the sign pattern: with kappa > 0 and
index + theta > 1 the (1-s)**(SHIFT+index+theta) branch has negative
terms, so construction builds and checks the series at once.  A law
evaluates its closed form where it has one, else its series; truncated()
gives the bare law of its series, the law the simulator draws from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError, NumericsError, PreconditionError
from .rvcalc import RVContext, SlowlyVaryingSpec, sv_constant, sv_perturbed

DEFAULT_TRUNCATION = 2000
MASS_TOL = 1e-9
CRIT_TOL = 1e-9


def signed_binomials(alpha: float, J: int) -> np.ndarray:
    """Return (-1)**j * binom(alpha, j) for j = 0..J via the stable recurrence."""
    out = [1.0] * (J + 1)
    v = 1.0  # a Python float makes the same IEEE operations as numpy's
    for j in range(J):
        v = v * (j - alpha) / (j + 1.0)
        out[j + 1] = v
    return np.array(out)


# Blocked Horner evaluation of the truncated series: coefficient k*_POWERS + m
# multiplies z**m * (z**_POWERS)**k.  _POINTS bounds the points per block,
# which keeps the (_POWERS, points) power table at 256 KiB.
_POWERS = 64
_POINTS = 256


def _series_value(coefficients: np.ndarray, z):
    """sum_j c_j z**j by blocked Horner, for z of any array shape.

    Per block of points: the powers z**0..z**63 by repeated doubling, one
    real matrix product each for their real and imaginary parts against the
    (K, 64) coefficient matrix (a complex-by-real product leaves BLAS), and
    K - 1 Horner steps in z**64.  For |z| <= 1 it agrees with a plain Horner
    loop to within a few ulps of sum |c_j|.
    """
    z = np.asarray(z)
    flat = z.astype(complex if np.iscomplexobj(z) else float).ravel()
    K = -(-coefficients.size // _POWERS)
    padded = np.zeros(K * _POWERS)
    padded[:coefficients.size] = coefficients
    C = padded.reshape(K, _POWERS)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _POINTS):
        w = flat[lo:lo + _POINTS]
        powers = np.empty((_POWERS, w.size), dtype=flat.dtype)
        powers[0] = 1.0
        h = 1
        while h < _POWERS:              # rows h..2h-1 are rows 0..h-1 times z**h
            np.multiply(powers[:h], w, out=powers[h:2 * h])
            w = w * w
            h *= 2
        if np.iscomplexobj(powers):
            blocks = np.empty((K, w.size), dtype=complex)
            blocks.real = C @ np.ascontiguousarray(powers.real)
            blocks.imag = C @ np.ascontiguousarray(powers.imag)
        else:
            blocks = C @ powers
        acc = blocks[K - 1].copy()
        for k in range(K - 2, -1, -1):  # w is now z**64
            acc *= w
            acc += blocks[k]
        out[lo:lo + _POINTS] = acc
    return out.reshape(z.shape)[()]


class _Truncated:
    """A field of a law that a stable law fills from its truncated series.

    A value given at construction is kept unless the law has a truncation
    order.  Then (a stable law) the first read builds the series from its
    spec, which sets both such fields, and every later read returns it."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, law, owner=None):
        if law is None:
            return None  # the dataclass default: not given
        if self.name not in law.__dict__:
            law._truncate()
        return law.__dict__[self.name]

    def __set__(self, law, value):
        if value is not None:
            law.__dict__[self.name] = value


@dataclass(frozen=True)
class _IntensityLaw:
    """An intensity law: its coefficients, tail index (nu or delta), tail
    spec, series tail bound and, for a law with a closed form, truncation
    order J.  The closed form is the spec's (see the module docstring); a
    stable law's ``coefficients`` and ``series_tail_bound`` are built from
    it on first read (see :meth:`_truncate`)."""

    coefficients: np.ndarray = _Truncated()
    index: Optional[float] = None
    sv_spec: Optional[SlowlyVaryingSpec] = None
    series_tail_bound: float = _Truncated()
    truncation: Optional[int] = None

    @property
    def scale(self) -> Optional[float]:
        """The closed form's scale (c or d), the spec's c; None for none."""
        return self.sv_spec.c if self.closed_form else None

    @property
    def kappa(self) -> float:
        """The closed form's perturbation weight, the spec's kappa."""
        return self.sv_spec.kappa if self.closed_form else 0.0

    @property
    def truncation_order(self) -> int:
        """J; a stable law reads it from its field and builds no series."""
        if self.truncation is None:
            return self.coefficients.size - 1
        return self.truncation

    @property
    def closed_form(self) -> bool:
        return self.truncation is not None

    def __post_init__(self):
        # drop series fields handed over (dataclasses.replace reads them from
        # the law it copies): a law with a truncation order builds its own
        if self.closed_form:
            self.__dict__.pop("coefficients", None)
            self.__dict__.pop("series_tail_bound", None)

    def truncated(self):
        """The bare law of its coefficients and index: no spec, no closed form."""
        return self._from_coefficients(self.coefficients, self.index)

    def gf(self, z):
        """Evaluate the generating function at z, |z| <= 1: the closed form
        where the law carries one, else the sum of its coefficients."""
        if np.any(np.abs(np.asarray(z)) > 1.0 + 1e-12):
            raise ModelError("generating functions are only evaluated for |z| <= 1")
        if self.closed_form:
            return self._closed_gf_one_minus(1.0 - np.asarray(z))
        return _series_value(self.coefficients, z)

    def gf_at_one_minus(self, y):
        """Evaluate the generating function at 1 - y.  The closed form takes
        y directly, the numerically safe way near the fixed point (y -> 0)."""
        if self.closed_form:
            return self._closed_gf_one_minus(np.asarray(y))
        return self.gf(1.0 - np.asarray(y))

    def _closed_gf_one_minus(self, y):
        sv = self.sv_spec
        val = y ** (self.SHIFT + self.index)
        if sv.kappa:
            val = val + sv.kappa * y ** (self.SHIFT + (self.index + sv.exponent))
        return self.SIGN * sv.c * val

    @classmethod
    def _stable(cls, index: float, scale: float, kappa: float, J: int):
        """The stable law of the role, truncated at J and re-balanced (on
        the first read of its coefficients; see the module docstring)."""
        role, idx, finite = cls.ROLE, cls.INDEX, ("mean", "variance")[cls.SHIFT]
        if not 0.0 < index < 1.0:
            raise ModelError(f"{role} tail index {idx} must lie in (0, 1); the "
                             f"finite-{finite} boundary {idx} = 1 is unsupported")
        if not 0 < scale < math.inf:
            raise ModelError(f"{role} scale {cls.SCALE} must be positive and finite")
        if not 0 <= kappa < math.inf:
            raise ModelError("perturbation weight kappa must be nonnegative and finite")
        J, k = int(J), cls.SHIFT
        if J < k + 1:
            raise ModelError(f"{role} truncation order must be at least {k + 1}")
        spec = sv_perturbed(scale, kappa, index) if kappa else sv_constant(scale)
        law = cls(index=index, sv_spec=spec, truncation=J)
        if spec.kappa and index + spec.exponent > 1.0:
            # Only a branch exponent SHIFT + index + theta above SHIFT + 1
            # has negative terms that can break the sign pattern: check now.
            law._truncate()
        return law

    def _truncate(self) -> None:
        """Build and keep the stable law's truncated, re-balanced
        coefficients and its series tail bound: the size of the mass s0 the
        truncation cut plus those of the corrections to a_J and a_SHIFT.
        A series that overflows raises NumericsError."""
        k, J, index, sv = self.SHIFT, self.truncation, self.index, self.sv_spec
        sign_scale = self.SIGN * sv.c
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                a = sign_scale * signed_binomials(k + index, J)
                if sv.kappa:
                    a = a + sign_scale * sv.kappa * signed_binomials(
                        k + (index + sv.exponent), J)
                s0 = math.fsum(a.tolist())
                d_last, d_neg = -s0, 0.0
                if k:  # f is critical too: a_J and a_1 take the mass and the drift
                    s1 = math.fsum((np.arange(J + 1) * a).tolist())
                    d_last = (s0 - s1) / (J - 1.0)
                    d_neg = -s0 - d_last
                a[J] += d_last
                a[k] += d_neg
            tail = abs(s0) + abs(d_neg) + abs(d_last)
        except (OverflowError, ValueError):  # fsum met inf - inf or overflowed
            tail = math.inf
        if not (math.isfinite(tail) and np.all(np.isfinite(a))):
            raise NumericsError(f"the {self.ROLE} series truncated at J = {J} overflows "
                                f"at {self.SCALE} = {sv.c:g}")
        if a[k] >= 0 or np.any(a[:k] <= 0) or np.any(a[k + 1:] < 0):
            raise ModelError("sign pattern broken after truncation adjustment; kappa is "
                             f"too large for the (1-s)**({k + (index + sv.exponent):g}) branch")
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "series_tail_bound", tail)

    @classmethod
    def _from_coefficients(cls, coefficients, index):
        a = np.asarray(list(coefficients), dtype=float)
        if a.size < cls.SHIFT + 2:
            raise ModelError(f"an {cls.ROLE} law needs at least coefficients "
                             f"{cls.SYMBOL}_0..{cls.SYMBOL}_{cls.SHIFT + 1}")
        return cls(coefficients=a, index=index, series_tail_bound=0.0)


class BranchingLaw(_IntensityLaw):
    """The offspring law f: a_0 > 0, a_1 < 0, zero mass and drift."""

    SIGN, SHIFT = 1.0, 1
    ROLE, SYMBOL, INDEX, SCALE = "offspring", "a", "nu", "c"

    @property
    def nu(self) -> Optional[float]:
        return self.index


class ImmigrationLaw(_IntensityLaw):
    """The immigration law g: b_0 < 0, zero mass."""

    SIGN, SHIFT = -1.0, 0
    ROLE, SYMBOL, INDEX, SCALE = "immigration", "b", "delta", "d"

    @property
    def delta(self) -> Optional[float]:
        return self.index


def make_stable_offspring(nu: float, c: float, kappa: float = 0.0,
                          J: int = DEFAULT_TRUNCATION) -> BranchingLaw:
    """Truncated, re-balanced coefficients of c((1-s)^(1+nu) + kappa(1-s)^(1+2nu))."""
    return BranchingLaw._stable(nu, c, kappa, J)


def make_stable_immigration(delta: float, d: float, kappa: float = 0.0,
                            J: int = DEFAULT_TRUNCATION) -> ImmigrationLaw:
    """Truncated, re-balanced coefficients of -d((1-s)^delta + kappa(1-s)^(2delta))."""
    return ImmigrationLaw._stable(delta, d, kappa, J)


def offspring_from_coefficients(coefficients: Sequence[float],
                                nu: Optional[float] = None) -> BranchingLaw:
    return BranchingLaw._from_coefficients(coefficients, nu)


def immigration_from_coefficients(coefficients: Sequence[float],
                                  delta: Optional[float] = None) -> ImmigrationLaw:
    return ImmigrationLaw._from_coefficients(coefficients, delta)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass
class ValidationReport:
    law_kind: str
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"[{self.law_kind}]"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.name:<16} {status}  residual={c.residual:.3e}"
                         + (f"  {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def validate_law(law) -> ValidationReport:
    """Report-only validation of the intensity constraints.  Mass balance
    and criticality are judged relative to the law's scale max(1, sum |a_j|),
    as the rounding of the re-balanced coefficients grows with it."""
    if not isinstance(law, (BranchingLaw, ImmigrationLaw)):
        raise ModelError(f"cannot validate object of type {type(law).__name__}")
    a, k, x = law.coefficients, law.SHIFT, law.SYMBOL
    scale = max(1.0, math.fsum(np.abs(a)))
    checks = [CheckResult(f"{x}{j}_positive", bool(a[j] > 0), float(-min(a[j], 0.0)))
              for j in range(k)]
    checks.append(CheckResult(f"{x}{k}_negative", bool(a[k] < 0), float(max(a[k], 0.0))))
    worst = float(np.min(a[k + 1:])) if a.size > k + 1 else 0.0
    checks.append(CheckResult("sign_pattern", bool(worst >= 0), abs(min(worst, 0.0)),
                              detail=f"{x}_j >= 0 for j >= {k + 1}"))
    mass = math.fsum(a)
    checks.append(CheckResult("mass_balance", abs(mass) <= MASS_TOL * scale, abs(mass)))
    if k:
        drift = math.fsum(j * aj for j, aj in enumerate(a))
        checks.append(CheckResult("criticality", abs(drift) <= CRIT_TOL * scale, abs(drift)))
    return ValidationReport(law.ROLE, checks)


@dataclass(frozen=True)
class ModelSpec:
    """An offspring/immigration pair plus the derived indices.

    gamma = delta - nu separates the positive-recurrent (gamma > 0) and
    transient (gamma < 0) regimes; gamma = 0 is a different process and is
    rejected.  mu = 2*delta - nu controls the transient-case rate.
    """

    offspring: BranchingLaw
    immigration: ImmigrationLaw

    def __post_init__(self):
        if self.offspring.nu is None or self.immigration.delta is None:
            raise ModelError("ModelSpec needs laws with declared tail indices")
        if self.gamma == 0.0:
            raise PreconditionError("gamma = delta - nu = 0 is out of scope")

    @property
    def nu(self) -> float:
        return self.offspring.nu

    @property
    def delta(self) -> float:
        return self.immigration.delta

    @property
    def gamma(self) -> float:
        return self.immigration.delta - self.offspring.nu

    @property
    def mu(self) -> float:
        return 2.0 * self.immigration.delta - self.offspring.nu

    @property
    def C_ratio(self) -> Optional[float]:
        """C = C_ell/C_L, the ratio of the tail functions' limits; None
        unless both laws carry tail specs."""
        L, ell = self.offspring.sv_spec, self.immigration.sv_spec
        return None if L is None or ell is None else ell.c / L.c

    @property
    def potential_terms(self) -> tuple:
        """The closed power terms (beta, e) of the potential h, w = 1 - s:
        g's tail terms over f's leading power C_L y**(1+nu), beta = -C at
        e = gamma and beta = -C kappa_ell at e = gamma + theta_ell (mu for
        the stable law) when kappa_ell != 0.  Each adds beta w**e/e to h
        (beta log w at e = 0); what f's own remainder adds is not closed."""
        C, ell = self.C_ratio, self.immigration.sv_spec
        terms = ((-C, self.gamma),)
        return terms + ((-C * ell.kappa, self.gamma + ell.exponent),) if ell.kappa else terms

    @property
    def has_closed_form(self) -> bool:
        return self.offspring.closed_form and self.immigration.closed_form

    @property
    def canonical(self) -> bool:
        """Both laws stable and the offspring law unperturbed (kappa = 0):
        the case with elementary closed forms for log P, U and pi."""
        return self.has_closed_form and not self.offspring.sv_spec.kappa

    def truncated(self) -> ModelSpec:
        """The model of the laws' truncated series, which the simulator draws from."""
        return ModelSpec(self.offspring.truncated(), self.immigration.truncated())

    def context(self) -> RVContext:
        if self.offspring.sv_spec is None or self.immigration.sv_spec is None:
            raise ModelError("both laws must carry slowly varying specs")
        return RVContext(nu=self.nu, delta=self.delta,
                         L=self.offspring.sv_spec, ell=self.immigration.sv_spec)

    def require_transient_limit(self) -> None:
        """Raise unless gamma < 0, mu > 0 and C_ell/C_L = |gamma| (to 1e-9)."""
        if not self.gamma < 0:
            raise PreconditionError("transient-limit computations need gamma < 0")
        if not self.mu > 0:
            raise PreconditionError("transient-limit computations need mu = 2*delta - nu > 0")
        cr = self.C_ratio
        if cr is None:
            raise PreconditionError("laws without limit constants cannot satisfy C = |gamma|")
        if abs(cr - abs(self.gamma)) > 1e-9:
            raise PreconditionError(
                f"C_ell/C_L = {cr:.12g} differs from |gamma| = {abs(self.gamma):.12g}; "
                "the transient limit requires exact equality (pair d/c = |gamma|)")


def stable_model(nu: float, c: float, delta: float, d: float,
                 kappa_offspring: float = 0.0, kappa_immigration: float = 0.0,
                 J: int = DEFAULT_TRUNCATION) -> ModelSpec:
    """Convenience constructor for the built-in family pair."""
    return ModelSpec(make_stable_offspring(nu, c, kappa_offspring, J),
                     make_stable_immigration(delta, d, kappa_immigration, J))


FAMILY_NOTES = """\
Built-in law families
=====================

stable-offspring(nu, c, kappa=0, truncation=2000)
    f(s) = c*((1-s)**(1+nu) + kappa*(1-s)**(1+2*nu)),  0 < nu < 1
    Critical, conservative; offspring tail function L(x) = c*(1+kappa*x**-nu),
    the power form c*(1+kappa*x**-theta) with theta = nu.
    Satisfies: offspring-tail(nu); L(x) = c + O(alpha(x)) with remainder
    alpha(x) = x**-nu (exactly constant L, no remainder, when kappa = 0).

stable-immigration(delta, d, kappa=0, truncation=2000)
    g(s) = -d*((1-s)**delta + kappa*(1-s)**(2*delta)),  0 < delta < 1
    Immigration tail function ell(x) = d*(1+kappa*x**-delta), theta = delta.
    Satisfies: immigration-tail(delta); ell(x) = d + O(beta(x)) with remainder
    beta(x) = x**-delta (exactly constant ell when kappa = 0).

Pairings
--------
gamma = delta - nu.  gamma > 0: positive-recurrent regime (invariant
distribution U).  gamma < 0: transient regime; the scaled limit measure
requires mu = 2*delta - nu > 0 and the exact pairing d/c = |gamma|.
gamma = 0 is a different process and is rejected.

Truncation folds residual mass into the last coefficient and re-balances
the linear term, so every generated law is exactly conservative (and the
offspring law exactly critical) at machine precision.
"""
