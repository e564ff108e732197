"""Dimension functions for Hausdorff contents and measures.

A dimension function h is continuous, nondecreasing, with h(0+) = 0.  All
evaluation here is parameterized by L = ln(1/t) (so t itself never has to be
representable):

* ``EtaProfile``: h(t) = 2^{-eta(t)} where eta is piecewise linear in ln t
  with eta(delta_k) = k for the level scales delta_k of a gamma model.  This
  makes every level-k basic interval cost exactly 2^{-k}.

* ``LogPower``: h = h0^alpha of the logarithmic-measure function
  h0(t) = 1/ln(1/t), with exponent alpha(t) = alpha0, alpha0 +/- eps_m(t) or
  1 - eps_m(t), where eps_m(t) = 1/log_(m)(1/t) is an m-fold iterated
  logarithm (m >= 3; for m in {1, 2} the perturbation is equivalent to no
  perturbation at all).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, HorizonError, ParameterError
from .gamma import GammaModel, _float_or_inf, profile as make_profile

LN2 = math.log(2.0)


def _iterated_log(x, times: int):
    for _ in range(times):
        x = np.log(x)
    return x


class EtaProfile:
    """h(t) = 2^{-eta(t)}, eta piecewise linear in ln t with eta(delta_k) = k."""

    def __init__(self, model: GammaModel):
        if not isinstance(model, GammaModel):
            raise ParameterError("EtaProfile needs a gamma model")
        prof = self.profile = make_profile(model)
        k_hi = prof.model.k_max
        # L_k = ln(1/delta_k), exact fractions rounded once
        self._L = np.array([_float_or_inf(v) for v in prof.ln_inv_deltas])
        if self._L[-1] == math.inf:
            k = int(np.argmax(self._L == math.inf))
            raise HorizonError(f"eta needs ln(1/delta_k) as a double, and it "
                               f"has none at k={k}; --k-max must be below {k}")
        self._k = np.arange(k_hi + 1, dtype=float)
        self.lnt_min = 0.0
        self.lnt_max = float(self._L[-1])

    def eta_ln(self, lnt):
        """eta at L = ln(1/t); scalar or array.

        Below the horizon scale the last segment's slope continues eta (a
        clipped piece of a deepest-level atom is shorter than the atom), so h
        stays defined and strictly monotone there.
        """
        lnt_arr = np.asarray(lnt, dtype=float)
        if np.any(lnt_arr < -1e-9):
            raise DomainError("eta needs t <= 1 (ln(1/t) >= 0)")
        out = np.interp(lnt_arr, self._L, self._k)
        slope = (self._k[-1] - self._k[-2]) / (self._L[-1] - self._L[-2])
        out = np.where(lnt_arr > self._L[-1],
                       self._k[-1] + (lnt_arr - self._L[-1]) * slope, out)
        return float(out) if np.isscalar(lnt) or lnt_arr.ndim == 0 else out

    def h_ln(self, lnt):
        return 2.0 ** (-self.eta_ln(lnt))

    def inverse_ln(self, ln_inv_tau: float) -> float:
        """L = ln(1/h^{-1}(tau)) given ln(1/tau); exact piecewise formula."""
        eta = ln_inv_tau / LN2
        if eta < 0 or eta > self._k[-1]:
            raise DomainError(f"tau outside the eta table range (eta={eta})")
        return float(np.interp(eta, self._k, self._L))


class LogPower:
    """h(t) = (ln 1/t)^(-alpha(t)) with a constant or slowly corrected exponent.

    ``eps_sign`` = 0 for alpha = alpha0; +1 / -1 for alpha0 +/- eps_m(t).  The
    classical logarithmic measure is alpha0 = 1, eps_sign = 0.  Outside the
    iterated-log domain (large t) the correction is frozen at its boundary
    value, which keeps h continuous and nondecreasing on all of (0, 1).

    The domain start, where eps_m first falls below its cap, is searched as a
    double L = ln(1/t) <= 1e300, so it exists only for a cap above
    1/log_(m-1)(1e300): 0.153 for m = 3, 0.533 for m = 4, and no cap <= 1
    for m >= 5.  Beyond that the constructor raises ParameterError, as for
    LogPower(0.5, 1, 4), LogPower(0.5, -1, 5) and LogPower(1.0, -1, 5).
    """

    def __init__(self, alpha0: float, eps_sign: int = 0, m: int = 3):
        if not 0.0 <= alpha0 <= 1.0:
            raise ParameterError("alpha0 must lie in [0, 1]")
        if eps_sign not in (-1, 0, 1):
            raise ParameterError("eps_sign must be -1, 0 or +1")
        if eps_sign != 0 and m < 3:
            raise ParameterError(
                "eps_m needs m >= 3: for m in {1,2} the result is equivalent "
                "to the unperturbed exponent")
        if eps_sign == 0 and alpha0 == 0.0:
            raise ParameterError("alpha identically zero is not a dimension function")
        self.alpha0 = float(alpha0)
        self.eps_sign = int(eps_sign)
        self.m = int(m)
        # keep eps below the admissibility caps: < 1 - alpha0 for +, < alpha0/2 for -
        self._eps_cap = 1.0
        if eps_sign > 0:
            self._eps_cap = min(self._eps_cap, (1.0 - alpha0) * 0.999999)
            if alpha0 >= 1.0:
                raise ParameterError("alpha0 + eps needs alpha0 < 1")
        if eps_sign < 0:
            if alpha0 == 1.0:
                self._eps_cap = min(self._eps_cap, 0.999999)
            else:
                self._eps_cap = min(self._eps_cap, alpha0 / 2 * 0.999999)
            if alpha0 <= 0.0:
                raise ParameterError("alpha0 - eps needs alpha0 > 0")
        self.lnt_min = self._solve_domain_start()

    # -- exponent ----------------------------------------------------------

    def _solve_domain_start(self) -> float:
        if self.eps_sign == 0:
            return 1.0  # h <= 1 needs ln(1/t) >= 1
        lo, hi = 2.0, 2.0
        while not (self._eps_raw(hi, self.m - 1) < self._eps_cap):
            hi *= 2.0
            if hi > 1e300:
                raise ParameterError(
                    f"eps_m cap {self._eps_cap:.6g} unreachable for "
                    f"m={self.m}: its domain start lies beyond ln(1/t) = "
                    f"1e300, which a double cannot hold")
        while hi - lo > 1e-9 * hi:
            mid = (lo + hi) / 2
            if self._eps_raw(mid, self.m - 1) < self._eps_cap:
                hi = mid
            else:
                lo = mid
        return max(hi, 1.0)

    def _eps_raw(self, x, logs: int):
        """1/log_(logs)(x), frozen at the cap where the log chain leaves
        (1/cap, inf); x = L with m-1 logs, or w = ln L with m-2."""
        with np.errstate(invalid="ignore", divide="ignore"):
            y = _iterated_log(np.asarray(x, dtype=float), logs)
            out = np.where(np.isfinite(y) & (y > 1.0 / self._eps_cap),
                           1.0 / np.maximum(y, 1e-300), self._eps_cap)
        return out

    def eps(self, lnt):
        """eps_m at L = ln(1/t), frozen at its cap outside the domain."""
        if self.eps_sign == 0:
            z = np.zeros_like(np.asarray(lnt, dtype=float))
            return float(z) if np.isscalar(lnt) else z
        out = self._eps_raw(lnt, self.m - 1)
        return float(out) if np.isscalar(lnt) or out.ndim == 0 else out

    def alpha_ln(self, lnt):
        return self.alpha0 + self.eps_sign * self.eps(lnt)

    # -- evaluation --------------------------------------------------------

    def h_ln(self, lnt):
        lnt_arr = np.asarray(lnt, dtype=float)
        if np.any(lnt_arr <= 0):
            raise DomainError("h needs t < 1 (ln(1/t) > 0)")
        out = lnt_arr ** (-self.alpha_ln(lnt_arr))
        return float(out) if np.isscalar(lnt) or lnt_arr.ndim == 0 else out

    def eta_ln(self, lnt):
        """-log2 h, comparable with EtaProfile.eta_ln."""
        lnt_arr = np.asarray(lnt, dtype=float)
        out = self.alpha_ln(lnt_arr) * np.log(lnt_arr) / LN2
        return float(out) if np.isscalar(lnt) or lnt_arr.ndim == 0 else out

    # -- inversion ---------------------------------------------------------

    def inverse_lnln(self, ln_inv_tau: float) -> float:
        """w = ln ln(1/h^{-1}(tau)) given ln(1/tau), by bisection.

        alpha(L) * ln L is strictly increasing in L on the domain, so the
        inverse is exact up to a relative tolerance of 1e-14.
        """
        if ln_inv_tau < 0:
            raise DomainError("need tau <= 1")
        target = float(ln_inv_tau)

        def g(w):
            # alpha as a function of w = ln L
            if self.eps_sign == 0:
                a = self.alpha0
            else:
                a = self.alpha0 + self.eps_sign * self._eps_raw(w, self.m - 2)
            return a * w - target

        lo = math.log(max(self.lnt_min, 1.0 + 1e-12))
        if g(lo) >= 0:
            lo = 1e-12
        hi = max(lo * 2, 4.0)
        while g(hi) < 0:
            hi *= 2.0
            if hi > 1e306:
                raise DomainError("inverse out of range")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * abs(hi):
                break
        return 0.5 * (lo + hi)

    def inverse_ln(self, ln_inv_tau: float) -> float:
        """L = ln(1/h^{-1}(tau)); may overflow to inf for tiny tau."""
        w = self.inverse_lnln(ln_inv_tau)
        return math.exp(w) if w < 709.0 else math.inf

    # -- classification ----------------------------------------------------

    @property
    def ep_case(self) -> str:
        """Closed-form extension-property verdict of the induced Cantor set.

        The k-th root of ln(1/h^{-1}(2^-k)) tends to 2^{1/alpha0} (infinity
        for alpha0 = 0); the induced set admits the extension operator exactly
        when that limit is 2.
        """
        if self.alpha0 == 1.0:
            return "yes"
        return "no"

    @property
    def root_limit(self) -> float:
        """lim_k (ln 1/h^{-1}(2^-k))^{1/k}."""
        if self.alpha0 == 0.0:
            return math.inf
        return 2.0 ** (1.0 / self.alpha0)

