"""Power-series coefficient recovery from values on a circle |s| = r < 1.

With samples V_k = G(r * exp(2*pi*i*k/M)) the discrete transform gives

    hat_g_j = (1/M) * sum_k V_k * exp(-2*pi*i*j*k/M) = sum_m g_{j+mM} r^{mM+j},

so g_j = hat_g_j / r**j up to an aliasing term bounded by
max|G| * r**M / (1-r).  Floating point adds a second, usually dominant,
error source: roundoff of size ~eps*max|G| in the samples is amplified by
r**(-j), which caps the largest trustworthy index for a given radius.  The
series object reports both bounds; ``suggest_radius`` inverts the noise
bound for callers that need many coefficients.

Callers sample G at k = 0..M/2 only; :func:`coefficients_from_samples`
fills in V_{M-k} = conj(V_k), which holds for real coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import telemetry
from .errors import ModelError

NOISE_FACTOR = 16.0  # empirical safety multiple of eps, validated in tests


def sample_count(J_out: int, minimum: int = 4) -> int:
    """Smallest power of two M with M >= 4 * (J_out + 1) and M >= minimum."""
    M = 4
    while M < max(4 * (J_out + 1), minimum):
        M *= 2
    return M


def circle_points(r: float, M: int) -> np.ndarray:
    """Half-circle sample points r*exp(2*pi*i*k/M), k = 0..M/2."""
    if not 0.0 < r < 1.0:
        raise ModelError("inversion radius must lie in (0, 1)")
    if M < 4 or (M & (M - 1)) != 0:
        raise ModelError("sample count M must be a power of two, M >= 4")
    return r * np.exp(2j * np.pi * np.arange(M // 2 + 1) / M)


@dataclass
class CoefficientSeries:
    """Extracted coefficients plus the error accounting of the extraction.

    A batched extraction keeps its leading batch axes in ``values`` and in
    every bound; :meth:`row` takes out one entry.  :meth:`coefficient_bound`
    gives the bound per coefficient; :attr:`total` reads a single row."""

    values: np.ndarray            # real coefficients, last axis j = 0..J_out
    radius: float
    aliasing_bound: float         # max|G| * r**M / (1 - r)
    noise_scale: float            # NOISE_FACTOR * eps * max|G| / sqrt(M)
    clamp_magnitude: float = 0.0  # largest negative entry removed by clamping
    imag_residual: float = 0.0    # max |Im| discarded when taking real parts

    def row(self, index) -> "CoefficientSeries":
        """The series of one entry (or sub-batch) of a batched extraction;
        ``index`` runs over the batch axes."""
        return replace(self, values=self.values[index],
                       aliasing_bound=self.aliasing_bound[index],
                       noise_scale=self.noise_scale[index],
                       clamp_magnitude=self.clamp_magnitude[index],
                       imag_residual=self.imag_residual[index])

    def noise_floor(self) -> np.ndarray:
        """Roundoff amplification bound per coefficient index."""
        idx = np.arange(self.values.shape[-1])
        return np.multiply.outer(self.noise_scale, self.radius ** (-idx.astype(float)))

    def coefficient_bound(self) -> np.ndarray:
        """Total per-coefficient error bound: aliasing, the roundoff floor
        and the rounding of the coefficient itself (eps * |m_j|)."""
        return (self.noise_floor() + np.expand_dims(self.aliasing_bound, -1)
                + np.finfo(float).eps * np.abs(self.values))

    @property
    def total(self) -> float:
        return float(self.values.sum())


def coefficients_from_samples(samples: np.ndarray, r: float, J_out: int,
                              clamp: bool = False) -> CoefficientSeries:
    """Invert samples at the half circle k = 0..M/2 of :func:`circle_points`
    (last axis; leading axes are a batch, each entry inverted on its own) to
    coefficients 0..J_out; M, a power of two >= 4, is read from the length.
    Reports ``inversion.calls`` (one per batch entry),
    ``inversion.fft_points`` (batch entries times M) and ``inversion.M``
    (the largest M) to the run's telemetry."""
    half = np.asarray(samples, dtype=complex)
    M = 2 * (half.shape[-1] - 1)
    if M < 4 or (M & (M - 1)) != 0:
        raise ModelError(f"expected M/2 + 1 samples for a power of two M >= 4; "
                         f"got {half.shape[-1]}")
    if M < 4 * J_out:
        raise ModelError(f"need M >= 4*J_out; got M={M}, J_out={J_out}")
    full = np.concatenate([half, np.conj(half[..., M // 2 - 1:0:-1])], axis=-1)
    telemetry.add("inversion.calls", full.size // M)
    telemetry.add("inversion.fft_points", full.size)
    telemetry.peak("inversion.M", M)
    j = np.arange(J_out + 1)
    raw = np.fft.fft(full)[..., :J_out + 1] / M * r ** (-j.astype(float))
    maxabs = np.max(np.abs(full), axis=-1)
    aliasing = maxabs * r ** M / (1.0 - r)
    noise = NOISE_FACTOR * np.finfo(float).eps * maxabs / np.sqrt(M)
    vals = np.real(raw)
    imag_residual = np.max(np.abs(np.imag(raw)), axis=-1)
    clamp_mag = np.zeros(full.shape[:-1])
    if clamp:
        clamp_mag = np.maximum(clamp_mag, -np.min(vals, axis=-1))
        vals = np.maximum(vals, 0.0)
    return CoefficientSeries(values=vals, radius=r, aliasing_bound=aliasing,
                             noise_scale=noise, clamp_magnitude=clamp_mag[()],
                             imag_residual=imag_residual)


def suggest_radius(J_out: int, M: int) -> float:
    """Radius whose roundoff floor at index J_out stays below 1e-10.

    Assumes samples of magnitude ~1.  Raises when no radius in
    (0.5, 0.995] satisfies both the noise and aliasing requirements with
    the given M.
    """
    target = 1e-10
    noise = NOISE_FACTOR * np.finfo(float).eps / np.sqrt(M)
    if J_out <= 0:
        return 0.9
    r = float((noise / target) ** (1.0 / J_out))
    r = max(r, 0.5)
    if r > 0.995:
        raise ModelError(
            f"no radius supports {J_out + 1} coefficients at target {target:g} "
            f"in double precision with M={M}; reduce J_out")
    if r ** M / (1.0 - r) > target:
        raise ModelError(f"M={M} too small: aliasing exceeds target at r={r:.4f}")
    return r
