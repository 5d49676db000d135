"""Exponential space-time weight family and derived coefficient functions.

The weights blow up near the final time, so every evaluator here works with
the *inverse* weights only: exponents are clamped so that values underflow
cleanly to exactly 0 instead of overflowing.  All evaluators are pure and
vectorized over numpy arrays of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Exponents below this underflow to exactly zero instead of raising.
EXP_CLAMP = -700.0
# Largest exponent accepted when a non-inverted weight value is required.
EXP_MAX = 700.0


@dataclass(frozen=True)
class WeightSet:
    """Geometry, horizon and constants defining the weight family.

    The spatial profile is a bump over the rectangle (0,L1)x(0,L2), equal to
    1 at the anchor point and 0 on the boundary; the anchor must lie strictly
    inside the domain (and inside the control region, which callers check).
    The shift constants c_a, c_b place the bump's critical point exactly at
    the anchor.  K2 must exceed the bump maximum 1, so that the exponent
    chi is positive everywhere and the weight blows up at T.
    """

    L1: float
    L2: float
    T: float
    anchor: tuple[float, float]
    K1: float = 1.0
    K2: float = 2.0

    def __post_init__(self):
        a, b = self.anchor
        if not (0.0 < a < self.L1 and 0.0 < b < self.L2):
            raise ValueError("anchor must lie strictly inside the domain")
        if self.K1 <= 0.0 or self.K2 <= 1.0:
            raise ValueError("K1 must be positive and K2 greater than 1 "
                             "(the bump maximum)")
        if self.T <= 0.0:
            raise ValueError("horizon T must be positive")

    @property
    def c_a(self) -> float:
        a = self.anchor[0]
        return a - (self.L1 - 2.0 * a) / (2.0 * a * (self.L1 - a))

    @property
    def c_b(self) -> float:
        b = self.anchor[1]
        return b - (self.L2 - 2.0 * b) / (2.0 * b * (self.L2 - b))

    # -- spatial bump profile -------------------------------------------

    def _factors(self, x1, x2):
        """One-dimensional factors u1(x1), u2(x2) and their derivatives.

        The profile is separable: chi0 = u1(x1) u2(x2) / (u1(a) u2(b)) with
        u(s) = s(L-s) exp(-(s-c)^2).
        """
        c_a, c_b = self.c_a, self.c_b
        e1 = np.exp(-((x1 - c_a) ** 2))
        e2 = np.exp(-((x2 - c_b) ** 2))
        f1 = x1 * (self.L1 - x1)
        f2 = x2 * (self.L2 - x2)
        df1 = self.L1 - 2.0 * x1
        df2 = self.L2 - 2.0 * x2
        u1 = f1 * e1
        u2 = f2 * e2
        du1 = (df1 - 2.0 * (x1 - c_a) * f1) * e1
        du2 = (df2 - 2.0 * (x2 - c_b) * f2) * e2
        d2u1 = (-2.0 - 2.0 * f1 - 4.0 * (x1 - c_a) * df1
                + 4.0 * (x1 - c_a) ** 2 * f1) * e1
        d2u2 = (-2.0 - 2.0 * f2 - 4.0 * (x2 - c_b) * df2
                + 4.0 * (x2 - c_b) ** 2 * f2) * e2
        return u1, du1, d2u1, u2, du2, d2u2

    def _denominator(self) -> float:
        a, b = self.anchor
        u1, _, _, u2, _, _ = self._factors(np.float64(a), np.float64(b))
        return float(u1 * u2)

    def _profile(self, x):
        """Bump profile value, gradient (..., 2) and Laplacian at x."""
        x = np.asarray(x, dtype=float)
        u1, du1, d2u1, u2, du2, d2u2 = self._factors(x[..., 0], x[..., 1])
        den = self._denominator()
        val = u1 * u2 / den
        grad = np.stack([du1 * u2, u1 * du2], axis=-1) / den
        lap = (d2u1 * u2 + u1 * d2u2) / den
        return val, grad, lap

    def chi0(self, x):
        """Bump profile value; in [0, 1] on the closed rectangle."""
        return self._profile(x)[0]

    def chi0_derivs(self, x):
        """Closed-form gradient (…, 2) and Laplacian of the bump profile."""
        return self._profile(x)[1:]

    def chi(self, x):
        """Spatial weight exponent: value, gradient (…, 2) and Laplacian.

        chi = K1 (e^{K2} - e^{chi0}) is positive as long as K2 exceeds the
        bump maximum (=1); decreasing in chi0, so smallest at the anchor.
        """
        c0, g0, l0 = self._profile(x)
        e0 = np.exp(c0)
        val = self.K1 * (np.exp(self.K2) - e0)
        grad = -self.K1 * e0[..., None] * g0
        lap = -self.K1 * e0 * (l0 + np.einsum("...i,...i->...", g0, g0))
        return val, grad, lap

    # -- inverse time weights --------------------------------------------

    def inv_weight(self, i, x, t):
        """Inverse weight value(s) at (x, t) for index i in {'-', 0}.

        '-' gives exp(-chi/(T-t)); 0 gives it times the extra power
        (T-t)^(-3/2).  Continuous on [0, T] with value 0 at t = T (the
        exponential dominates every power); never forms the un-inverted
        weight.
        """
        chi, _, _ = self.chi(np.asarray(x, dtype=float))
        return self.inv_weight_of_chi(i, chi, t)

    def inv_weight_of_chi(self, i, chi, t):
        """inv_weight from precomputed exponent values chi = chi(x)[0]."""
        if i not in ("-", 0):
            raise ValueError("weight index must be '-' or 0")
        t = np.asarray(t, dtype=float)
        chi, t = np.broadcast_arrays(chi, t)
        tau = self.T - t
        out = np.zeros(tau.shape, dtype=float)
        ok = tau > 0.0
        if np.any(ok):
            expo = -chi[ok] / tau[ok]
            live = expo >= EXP_CLAMP
            if np.any(live):
                val = np.exp(expo[live])
                if i == 0:
                    val = val * tau[ok][live] ** -1.5
                tmp = np.zeros(expo.shape)
                tmp[live] = val
                out[ok] = tmp
        return out if out.ndim else float(out)

    def hatted_coeff_arrays(self, x, t):
        """Coefficient groups of the normalized constraint form at (x, t).

        Returns (c_mass, c_grad, c_time) where c_grad has a trailing length-2
        axis and c_time >= 0 vanishes as t -> T; t = T is rejected (the mass
        coefficient is singular there, and quadrature never samples it).
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(t >= self.T):
            raise ValueError("coefficients are singular at t = T")
        chi, gchi, lchi = self.chi(x)
        tau = self.T - t
        sq = np.sqrt(tau)
        c_time = tau * sq
        c_grad = 2.0 * sq[..., None] * gchi
        c_mass = sq * (-1.5 + lchi) + (chi + np.einsum("...i,...i->...", gchi, gchi)) / sq
        return c_mass, c_grad, c_time

    def rho0_at_start(self, x):
        """The one non-inverted evaluation: (T)^{3/2} exp(chi/T) at t = 0.

        Finite for any admissible configuration; range-checked so a bad
        (K1, K2, T) combination fails loudly instead of overflowing.
        """
        chi, _, _ = self.chi(np.asarray(x, dtype=float))
        expo = chi / self.T
        if np.any(expo > EXP_MAX):
            raise ValueError("weight at t=0 out of floating-point range; "
                             "check K1, K2 and T")
        return self.T ** 1.5 * np.exp(expo)
