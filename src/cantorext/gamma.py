"""Gamma-sequence families and their derived profiles.

A model is a sequence gamma = (gamma_k)_{k>=1} with 0 < gamma_k < 1/4.  It
drives the quadratic recursion r_0 = 1, r_s = gamma_s r_{s-1}^2 whose level
sets produce a Cantor-type set; the derived quantities are

    delta_s = gamma_1 * ... * gamma_s          (length scale of level s)
    B_k     = 2^{-k-1} * ln(1/delta_k)         (potential-theoretic weights)
    beta_k  = ln(B_k) / k                      (growth exponents)

The Robin constant of the set is sum_k B_k; the set is non-polar exactly when
that series converges.  Admissibility asks gamma_k <= 1/32 with a summable
tail; closed-form families whose formula exceeds 1/32 on a prefix get that
prefix clamped to exactly 1/32.

Each family is one entry of ``FAMILY_SPECS``: its parameters, its
ln(1/gamma_k) formula with the analytic tail, its polar verdict and its
extension-property verdict.  The verdicts encode the closed-form criterion for
each family: a weight sequence B_k that is monotone convergent, or divergent of
subexponential growth (beta_k -> 0), admits the extension operator; regular
sequences with beta_k -> beta > 0 and the irregular dip families do not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, takewhile
from typing import Callable, Optional, Sequence

import mpmath as mp

from .errors import HorizonError, ParameterError, ValidationError

LN32 = math.log(32.0)

POWER_LAW = "power_law"
EXPONENTIAL = "exponential"
DOUBLY_EXP = "doubly_exp"
EXAMPLE1 = "example1"
EXAMPLE2 = "example2"
EXAMPLE3 = "example3"
DELTA_FORM = "delta_form"
FROM_DIMENSION_FUNCTION = "from_dimension_function"
CUSTOM = "custom"

POLAR = "polar"
NONPOLAR = "nonpolar"
UNDETERMINED = "undetermined-at-horizon"


@dataclass(frozen=True)
class GammaModel:
    """A validated gamma sequence up to horizon ``k_max``.

    ``ln_inv_gamma[k-1]`` is ln(1/gamma_k) as an exact dyadic Fraction, so
    delta products stay exact in the log domain.  ``clamp_prefix`` is the
    number of leading indices overridden to gamma_k = 1/32; ``eq2_exceptions``
    lists indices deliberately left above 1/32 (only the delta-form family
    does this, to keep its B_k closed form exact).
    """

    family: str
    params: dict
    k_max: int
    ln_inv_gamma: tuple  # of Fraction
    clamp_prefix: int = 0
    eq2_exceptions: tuple = ()
    gamma_sum: float = 0.0  # sum_{k=1}^inf gamma_k (analytic tail included)
    meta: dict = field(default_factory=dict)

    def ln_inv_gamma_float(self, k: int) -> float:
        self._check_k(k)
        return float(self.ln_inv_gamma[k - 1])

    def _check_k(self, k: int):
        if not 1 <= k <= self.k_max:
            raise HorizonError(f"k={k} outside horizon 1..{self.k_max}")

    @property
    def c0(self) -> float:
        """The length-comparison constant exp(16 * sum gamma_k)."""
        return math.exp(16.0 * self.gamma_sum)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "params": {k: v for k, v in self.params.items() if not callable(v)},
            "k_max": self.k_max,
            "clamp_prefix": self.clamp_prefix,
            "eq2_exceptions": list(self.eq2_exceptions),
            "gamma_sum": self.gamma_sum,
            "c0": self.c0,
        }


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EPVerdict:
    ep: str      # "yes" | "no" | "undetermined"
    rule: str


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one gamma family.

    ``params`` maps each parameter to (type, default); ``build_model``
    converts every value with its type (None: kept as given), and the CLI
    passes the parameters whose flags are set.  ``formula(k_max, **params)``
    returns (stored params, ln_inv, tail, meta): ``ln_inv[k-1]`` is
    ln(1/gamma_k) as an exact Fraction, ``tail(p)`` the analytic
    sum_{k>p} gamma_k of the unclamped formula.  ``polar(params)`` is the
    polar verdict and ``ep(model, prof)`` the extension-property verdict with
    its rule.  With ``keep_prefix`` the indices where the formula exceeds 1/32
    stay as they are, listed in ``eq2_exceptions``; otherwise that prefix is
    clamped to exactly 1/32.
    """

    params: dict
    formula: Callable
    polar: Callable
    ep: Callable
    keep_prefix: bool = False


def _exp_tail(exps, s: float = 0.0) -> float:
    """s plus exp(-e) over ``exps``, summed in order."""
    for e in exps:
        s += math.exp(-e)
    return s


def _float_or_inf(q: Fraction, shift: int = 0) -> float:
    """q / 2^shift as a double, +-inf past the doubles (printed as null):
    one correctly rounded division of q's own terms, no gcd taken."""
    try:
        return q.numerator / (q.denominator << shift)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _listed_tail(ln_inv: list) -> Callable[[int], float]:
    """tail(p) = sum_{k>p} gamma_k over the formula's own list, leaving out
    each gamma_k below e^-700."""
    return lambda p: _exp_tail(v for v in map(_float_or_inf, ln_inv[p:])
                               if v < 700)


def _floats(values) -> list:
    """A list of floats from a sequence or a comma-separated string."""
    if isinstance(values, str):
        values = values.split(",")
    return [float(v) for v in values]


def _power_law(k_max: int, a: float):
    """gamma_k = k^-a, a > 1."""
    if a <= 1.0:
        raise ValidationError("power_law needs a > 1 for a summable tail")
    ln_inv = []
    for k in range(1, k_max + 1):
        v = a * math.log(k)
        if v == math.inf:
            raise ParameterError(f"power_law: a ln k has no double at k={k} "
                                 f"for --a {a}; lower --a, or --k-max below "
                                 f"{k}")
        ln_inv.append(Fraction(v))

    def tail(p):
        # the Hurwitz zeta sum_{k>p} k^-a is the tail itself: nothing cancels
        with mp.workprec(53):
            return float(mp.zeta(a, p + 1))

    return {"a": a}, ln_inv, tail, {}


def _exponential(k_max: int, a: float):
    """gamma_k = a^-k, a > 1."""
    if a <= 1.0:
        raise ValidationError("exponential needs a > 1")
    ln_inv = [Fraction(k) * Fraction(math.log(a)) for k in range(1, k_max + 1)]

    def tail(p):
        return a ** -(p + 1) / (1.0 - 1.0 / a)

    return {"a": a}, ln_inv, tail, {}


def _doubly_exp(k_max: int, a: float):
    """gamma_k = exp(-a^k), a > 1."""
    if a <= 1.0:
        raise ValidationError("doubly_exp needs a > 1")
    # a whole a gives exact powers a^k, carried from one k to the next
    whole, ln_inv, power = a == int(a), [], 1
    for k in range(1, k_max + 1):
        try:
            power = power * int(a) if whole else a ** k
            ln_inv.append(Fraction(power))
        except OverflowError:
            raise HorizonError(f"doubly_exp: a^k has no double at k={k} for "
                               f"a={a}; --k-max must be below {k}") from None

    def tail(p):
        # stops at the first a^k >= 700: an a^k of exactly 700 is left out
        return _exp_tail(takewhile(lambda e: e < 700,
                                   (a ** k for k in count(p + 1))))

    return {"a": a}, ln_inv, tail, {}


def _doubly_exp_ep(model: GammaModel, prof) -> EPVerdict:
    a = model.params["a"]
    if a <= 2.0:
        return EPVerdict("yes", f"B_k ~ (a/2)^k+1/(a-1) with a={a} <= 2: "
                                "monotone convergent or constant")
    return EPVerdict("no", f"beta_k -> ln(a/2) > 0 for a={a}: "
                           "regular, not of subexponential growth")


def _example1(k_max: int, B: float):
    """Constant weights: gamma_1 = exp(-4B), gamma_k = exp(-2^k B), B > 0.

    B >= ln(32)/4 leaves nothing to clamp.
    """
    if B <= 0:
        raise ParameterError("example1 needs B > 0")
    ln_inv = [Fraction(B) * (4 if k == 1 else 2 ** k) for k in range(1, k_max + 1)]

    def tail(p):
        return _exp_tail(takewhile(lambda e: e <= 700,
                                   (2 ** k * B for k in range(max(2, p + 1), 800))),
                         math.exp(-4.0 * B) if p < 1 else 0.0)

    return {"B": B}, ln_inv, tail, {}


def _kj_sequence(rule, k_max: int) -> list:
    """Dip positions k_1 < k_2 < ... up to k_max (plus one beyond, for sums)."""
    if callable(rule):
        out, j = [], 1
        while True:
            k = int(rule(j))
            out.append(k)
            if k > k_max:
                break
            j += 1
        return out
    return [int(k) for k in rule]


def _example2(k_max: int, variant: str, kj):
    """The dip family: quadratic decay with dips at k_j (``kj``: a rule
    j -> k_j or a list), A_j = 2^{k_j} (variant "A") or 2^{k_j - j} ("B")."""
    if variant not in ("A", "B"):
        raise ParameterError("example2 variant must be 'A' or 'B'")
    rule = kj
    kj = _kj_sequence(rule, k_max)
    if kj != sorted(set(kj)) or kj[0] < 1:
        raise ValidationError("example2 needs strictly increasing k_j >= 1")
    # A_j = 2^{k_j} (variant A) or 2^{k_j - j} (variant B), exact dyadics
    A = []
    for j, k in enumerate(kj, start=1):
        ex = k if variant == "A" else k - j
        A.append(Fraction(2) ** ex)
    dips = {k: A[j] - (A[j - 1] if j else 0) for j, k in enumerate(kj)}
    ln_inv = [Fraction(2 * math.log(k + 5)) + dips.get(k, 0)
              for k in range(1, k_max + 1)]

    def tail(p):
        # sum (k+5)^-2 minus the dip corrections (1 - eps_j)(k_j+5)^-2
        with mp.workprec(53):
            s = float(mp.polygamma(1, p + 6))
        for k, dA in dips.items():
            if k <= p:
                continue
            # compared exactly: float() of a dip past 2^1024 raises
            eps_j = math.exp(-float(dA)) if dA < 700 else 0.0
            s -= (1.0 - eps_j) * (k + 5) ** -2
        if callable(rule):
            j = len(kj) + 1
            while True:
                k = int(rule(j))
                if k > 10 ** 4:
                    break
                s -= (k + 5) ** -2
                j += 1
        return s

    meta = {"kj": kj, "A": A, "variant": variant}
    return {"variant": variant, "kj": kj}, ln_inv, tail, meta


def _example2_ep(model: GammaModel, prof: Optional[Profile]) -> EPVerdict:
    """"no" when the dip-family hypotheses hold at the horizon.

    Checks that k_{j+1}^2 / A_j is decreasing toward 0 and that each dip block
    satisfies B_{k_j} + ... + B_{k_{j+1}-1} < 3 B_{k_j} for the last few j in
    range.
    """
    if prof is None:
        prof = profile(model)
    kj = model.meta["kj"]
    A = model.meta["A"]
    ratios = []
    for j in range(1, len(kj)):
        if A[j - 1] > sys.float_info.max:
            break
        ratios.append(kj[j] ** 2 / float(A[j - 1]))
    shrinking = len(ratios) >= 2 and ratios[-1] < ratios[0] and ratios[-1] < 1.0
    block_ok = True
    checked = 0
    for j in range(len(kj) - 1, 0, -1):
        s, e = kj[j - 1], kj[j]
        if e > model.k_max or checked >= 2:
            continue
        block = math.fsum(prof.B[s:e])
        if not block < 3.0 * prof.B[s]:
            block_ok = False
        checked += 1
    detail = f"dip blocks verified for last {checked} j; k_{{j+1}}^2/A_j shrinking: {shrinking}"
    if shrinking and block_ok and checked > 0:
        return EPVerdict("no", "irregular dips: a fixed fraction of the Robin "
                               f"mass concentrates at single k ({detail})")
    return EPVerdict("undetermined", f"dip hypotheses failed at horizon ({detail})")


def _example3(k_max: int, m: int):
    """Iterated-log weights: B_k = exp(k / log_(m) k) on its increasing branch."""
    if m < 3:
        raise ParameterError("example3 needs m >= 3 (smaller m reduces to the logarithmic measure)")

    def log_iter(x: float, times: int) -> float:
        for _ in range(times):
            if x <= 0:
                return math.nan
            x = math.log(x)
        return x

    def B_of(k: int) -> float:
        d = log_iter(float(k), m)
        if not (d > 0) or k / d > 700.0:
            return math.nan
        return math.exp(k / d)

    # onset: first k on the increasing branch of k / log_(m) k
    k_start = None
    prev = math.nan
    for k in range(3, k_max + 5000):
        cur = B_of(k)
        if not math.isnan(cur) and not math.isnan(prev) and cur > prev:
            k_start = k
            break
        prev = cur
    if k_start is None or k_start > k_max:
        raise ValidationError(
            f"example3(m={m}): increasing branch starts beyond k_max={k_max}")
    ln_inv = []
    prev_lndelta = Fraction(0)
    for k in range(1, k_max + 1):
        if k < k_start:
            lndelta = Fraction(LN32) * k
        else:
            b = B_of(k)
            if math.isnan(b):
                raise HorizonError(
                    f"example3: B_{k} overflows doubles; lower k_max")
            lndelta = Fraction(b) * 2 ** (k + 1)
        ln_inv.append(lndelta - prev_lndelta)
        prev_lndelta = lndelta
    return {"m": m}, ln_inv, _listed_tail(ln_inv), {"m": m, "k_start": k_start}


def _delta_form(k_max: int, b: float):
    """delta_k = exp(-b^k) exactly, b > ln 4."""
    if b <= math.log(4.0):
        raise ValidationError("delta_form needs b > ln 4 so that gamma_1 < 1/4")
    bq = Fraction(b)
    # ln(1/delta_k) = b^k exactly: gamma_1 = e^-b, gamma_k = e^{-b^{k-1}(b-1)}
    ln_inv, power = [], 1     # power = b^(k - 1), carried
    for k in range(1, k_max + 1):
        ln_inv.append(bq if k == 1 else power * (bq - 1))
        power *= bq

    def tail(p):
        return _exp_tail(takewhile(lambda e: e <= 700,
                                   (b if k == 1 else b ** (k - 1) * (b - 1)
                                    for k in range(p + 1, 10 ** 4))))

    return {"b": b}, ln_inv, tail, {}


def _delta_form_ep(model: GammaModel, prof) -> EPVerdict:
    b = model.params["b"]
    if b <= 2.0:
        return EPVerdict("yes", f"B_k = (b/2)^k/2 with b={b} <= 2: monotone convergent")
    return EPVerdict("no", f"beta_k -> ln(b/2) > 0 for b={b}")


def _from_dimension_function(k_max: int, h):
    """gamma_k = h^{-1}(2^-k)/h^{-1}(2^{-k+1}) for a dimension function h."""
    if h is None or not hasattr(h, "inverse_ln"):
        raise ParameterError(
            "from_dimension_function needs h with an inverse_ln(ln_inv_tau) method")
    # L_k = ln(1/h^{-1}(2^-k)); L_0 from tau = 1
    L = [h.inverse_ln(k * math.log(2.0)) for k in range(k_max + 1)]
    if any(b <= a for a, b in zip(L, L[1:])):
        raise ValidationError("dimension function inverse is not expanding")
    ln_inv = [Fraction(L[k] - L[k - 1]) for k in range(1, k_max + 1)]
    return {"h": h}, ln_inv, _listed_tail(ln_inv), {"L": L}


def _from_dimension_function_ep(model: GammaModel, prof) -> EPVerdict:
    case = getattr(model.params["h"], "ep_case", None)
    if case == "yes":
        return EPVerdict("yes", "k-th root of ln(1/h^{-1}(2^-k)) tends to 2")
    if case == "no":
        return EPVerdict("no", "k-th root of ln(1/h^{-1}(2^-k)) does not tend to 2")
    return EPVerdict("undetermined", "dimension function outside the classified cases")


def _custom(k_max: int, gammas: list):
    """An explicit list; it must satisfy gamma_k <= 1/32 as given, and its
    length is the horizon.  Nothing is left to clamp, so the tail is only
    ever asked for p = 0."""
    if not gammas:
        raise ParameterError("custom needs a nonempty gamma list")
    for k, g in enumerate(gammas, start=1):
        if not 0.0 < g <= 1.0 / 32.0:
            raise ValidationError(
                f"custom: gamma_{k}={g} violates 0 < gamma <= 1/32 "
                "(declared-exact lists are not clamped)")
    ln_inv = [-Fraction(math.log(g)) for g in gammas]
    return {"gammas": gammas}, ln_inv, lambda p: math.fsum(gammas), {}


FAMILY_SPECS = {
    POWER_LAW: Family(
        {"a": (float, 2.0)}, _power_law,
        polar=lambda p: NONPOLAR,  # B_k decays geometrically in k
        ep=lambda model, prof: EPVerdict(
            "yes", "B_k ~ 2^-k-1 a k ln k is monotone convergent (to 0)")),
    EXPONENTIAL: Family(
        {"a": (float, 2.0)}, _exponential,
        polar=lambda p: NONPOLAR,
        ep=lambda model, prof: EPVerdict(
            "yes", "B_k ~ 2^-k-2 k^2 ln a is monotone convergent (to 0)")),
    DOUBLY_EXP: Family(
        {"a": (float, 2.0)}, _doubly_exp,
        polar=lambda p: NONPOLAR if p["a"] < 2.0 else POLAR,
        ep=_doubly_exp_ep),
    EXAMPLE1: Family(
        {"B": (float, 1.0)}, _example1,
        polar=lambda p: POLAR,  # constant weights, divergent Robin series
        ep=lambda model, prof: EPVerdict(
            "yes", "constant weights B_k = B are monotone convergent")),
    EXAMPLE2: Family(
        {"variant": (str, "A"), "kj": (None, lambda j: j * j)}, _example2,
        # variant A: B_{k_j} ~ 1/2 infinitely often; variant B: summable
        polar=lambda p: POLAR if p["variant"] == "A" else NONPOLAR,
        ep=_example2_ep),
    EXAMPLE3: Family(
        {"m": (int, 3)}, _example3,
        polar=lambda p: POLAR,  # B_k -> infinity
        ep=lambda model, prof: EPVerdict(
            "yes", "beta_k = 1/log_(m) k decreases to 0: "
                   "divergent of subexponential growth")),
    # keeps delta_k = exp(-b^k) exact: the sub-1/32 prefix is recorded, not clamped
    DELTA_FORM: Family(
        {"b": (float, 2.0)}, _delta_form,
        polar=lambda p: NONPOLAR if p["b"] < 2.0 else POLAR,
        ep=_delta_form_ep, keep_prefix=True),
    FROM_DIMENSION_FUNCTION: Family(
        {"h": (None, None)}, _from_dimension_function,
        # h >= h_0 puts the set in the finite-logarithmic-measure zone
        polar=lambda p: POLAR,
        ep=_from_dimension_function_ep),
    CUSTOM: Family(
        {"gammas": (_floats, ())}, _custom,
        polar=lambda p: UNDETERMINED,
        ep=lambda model, prof: EPVerdict(
            "undetermined", "custom sequence: finite data cannot decide a limit")),
}

FAMILIES = tuple(FAMILY_SPECS)


def family_spec(family: str) -> Family:
    """The table entry of a family; ParameterError for an unknown name."""
    spec = FAMILY_SPECS.get(family)
    if spec is None:
        raise ParameterError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return spec


def build_model(family: str, k_max: int = 40, **params) -> GammaModel:
    """Build and validate a gamma model of one of FAMILIES.

    Each family's parameters, their types and defaults are declared in
    FAMILY_SPECS; parameters it does not declare are ignored, and a float
    parameter must be finite.  Where the formula exceeds 1/32 on a prefix,
    that prefix is clamped to exactly 1/32 (or, with ``keep_prefix``,
    recorded in ``eq2_exceptions``), and admissibility is checked.
    """
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    spec = family_spec(family)
    kw = {}
    for name, (kind, default) in spec.params.items():
        value = params.get(name, default)
        kw[name] = value if kind is None else kind(value)
        if kind is float and not math.isfinite(kw[name]):
            raise ParameterError(
                f"{family}: parameter {name} must be finite, got {kw[name]}")
    stored, ln_inv, tail, meta = spec.formula(k_max, **kw)
    k_max = len(ln_inv)
    ln32 = Fraction(LN32)
    violations = [k for k in range(1, k_max + 1) if ln_inv[k - 1] < ln32]
    exceptions: tuple = ()
    prefix = 0
    if violations:
        if spec.keep_prefix:
            for k in violations:
                if ln_inv[k - 1] <= 0 or float(ln_inv[k - 1]) < math.log(4.0):
                    raise ValidationError(
                        f"{family}: gamma_{k} >= 1/4, construction undefined")
            exceptions = tuple(violations)
        else:
            prefix = max(violations)
            if violations != list(range(1, prefix + 1)):
                raise ValidationError(
                    f"{family}: gamma exceeds 1/32 at non-prefix indices {violations}")
            if prefix >= k_max:
                raise ValidationError(
                    f"{family}: no finite clamp prefix makes gamma_k <= 1/32 by k={k_max}")
            for k in range(1, prefix + 1):
                ln_inv[k - 1] = ln32
    gamma_sum = prefix / 32.0 + tail(prefix)
    try:
        math.exp(16.0 * gamma_sum)
    except OverflowError:
        flags = ", ".join(f"--{name}" for name, (kind, _) in
                          spec.params.items() if kind is not None)
        raise ParameterError(
            f"{family}: C0 = exp(16 sum gamma_k) has no double for sum "
            f"gamma_k = {gamma_sum:.6g}; change {flags}") from None
    return GammaModel(family=family, params=stored, k_max=k_max,
                      ln_inv_gamma=tuple(ln_inv), clamp_prefix=prefix,
                      eq2_exceptions=exceptions, gamma_sum=gamma_sum,
                      meta=meta)


def classify_ep(model: GammaModel, prof: Optional[Profile] = None) -> EPVerdict:
    """Closed-form extension-property verdict for the built-in families.

    The uniform-smallness condition on the weights B_k is a limit statement,
    undecidable from a finite horizon, so verdicts come only from per-family
    closed forms; custom sequences get "undetermined".
    """
    return FAMILY_SPECS[model.family].ep(model, prof)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Derived sequences of a model up to its horizon.

    Index convention: entry k is the k-th term; ln_inv_deltas[0] = 0
    (delta_0 = 1) and B[0] = beta[0] = nan (the weights start at k = 1).
    """

    model: GammaModel
    ln_inv_deltas: tuple  # exact Fraction ln(1/delta_k), len k_max+1
    B: tuple      # float, len k_max+1, [0] = nan
    beta: tuple   # float, len k_max+1, [0] = nan
    robin_partial: tuple  # float, len k_max+1, [0] = 0
    polar_verdict: str

    def ln_inv_delta(self, k: int) -> Fraction:
        """ln(1/delta_k) as an exact Fraction, k = 0..k_max."""
        if not 0 <= k <= self.model.k_max:
            raise HorizonError(f"k={k} outside horizon 0..{self.model.k_max}")
        return self.ln_inv_deltas[k]


def profile(model: GammaModel) -> Profile:
    """delta/B/beta/Robin sequences, exact in the log domain."""
    cum = Fraction(0)
    sums = [cum]
    B, beta, robin = [math.nan], [math.nan], [0.0]
    acc = 0.0
    for k in range(1, model.k_max + 1):
        cum += model.ln_inv_gamma[k - 1]
        sums.append(cum)
        b = _float_or_inf(cum, k + 1)
        B.append(b)
        beta.append(math.log(b) / k if 0 < b < math.inf else math.nan)
        acc += b
        robin.append(acc)
    return Profile(model=model, ln_inv_deltas=tuple(sums), B=tuple(B),
                   beta=tuple(beta), robin_partial=tuple(robin),
                   polar_verdict=FAMILY_SPECS[model.family].polar(model.params))


# ---------------------------------------------------------------------------
# finite-horizon condition diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRow:
    s: int
    n: int
    ratio_uniform: float        # B_{s+n} / sum_{k=s}^{s+n} B_k
    block_lhs: float            # B_{s+n-m} + ... + B_{s+n}
    block_rhs: float            # eps * (B_s + ... + B_{s+n-m-1})
    block_holds: bool
    recent_lhs: float           # B_{s+n}
    recent_rhs: float           # eps * (B_{s+n-m} + ... + B_{s+n-1})
    recent_holds: bool
    product_margin_scaled: float  # sum_{i=1..m} B_{s+n-i} - 2M B_{s+n}
    product_holds: bool
    consistent: bool


@dataclass(frozen=True)
class DiagnosticsReport:
    eps: float
    m: int
    M: float
    rows: tuple
    all_consistent: bool
    heuristic: bool = False  # custom sequences: finite data, no closed form


def condition_diagnostics(prof: Profile, s_grid: Sequence[int],
                          n_grid: Sequence[int], eps: float,
                          m: int) -> DiagnosticsReport:
    """Evaluate the finite-horizon forms of the uniform-smallness conditions.

    For each grid point (s, n) the report carries the uniform ratio
    B_{s+n}/sum, the block and most-recent-window inequalities at (eps, m),
    and the delta-product inequality at exponent M = 1/(2 eps),
    prod_{i=1..m} delta_{s+n-i}^{2^{i-1}} < delta_{s+n}^M, i.e.
    sum_{i=1..m} B_{s+n-i} > 2 M B_{s+n}.  Each is decided once, exactly, on
    B_k = ln(1/delta_k) / 2^{k+1} with eps taken as the rational value of
    its double; the sums are reported rounded to doubles, +-inf past them.
    The ``consistent`` flag asserts the provable pointwise implications of
    the uniform inequality by the recent-window and the block ones; it is a
    cross-check of the implementation, not of the model.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError("the diagnostics need a finite eps > 0, "
                             f"got {eps}")
    if m < 0:
        raise ParameterError("m must be >= 0")
    e = Fraction(eps)
    M = 1 / (2 * e)
    k_max, L = prof.model.k_max, prof.ln_inv_deltas
    rows = []
    for s in s_grid:
        for n in n_grid:
            if s < 1 or n < 0:
                raise ParameterError(f"grid point (s={s}, n={n}) needs "
                                     "s >= 1 and n >= 0")
            if s + n > k_max:
                raise HorizonError(f"grid point (s={s}, n={n}) beyond horizon {k_max}")
            if m > n:
                raise ParameterError(f"window m={m} exceeds n={n}")
            # B_s, ..., B_{s+n}
            B = [L[k] / 2 ** (k + 1) for k in range(s, s + n + 1)]
            last, total = B[n], sum(B)
            window = sum(B[n - m:n])
            block_lhs = window + last
            block_rhs = e * sum(B[:n - m])
            recent_rhs = e * window
            margin = window - 2 * M * last
            uniform_holds = last < e * total
            recent_holds = last < recent_rhs
            block_holds = block_lhs < block_rhs
            rows.append(DiagnosticsRow(
                s=s, n=n, ratio_uniform=float(last / total),
                block_lhs=_float_or_inf(block_lhs),
                block_rhs=_float_or_inf(block_rhs),
                block_holds=block_holds,
                recent_lhs=_float_or_inf(last),
                recent_rhs=_float_or_inf(recent_rhs),
                recent_holds=recent_holds,
                product_margin_scaled=_float_or_inf(margin),
                product_holds=margin > 0,
                # pointwise implications (hold for any B >= 0)
                consistent=uniform_holds or not (recent_holds or block_holds)))
    return DiagnosticsReport(eps=eps, m=m, M=float(M), rows=tuple(rows),
                             all_consistent=all(r.consistent for r in rows),
                             heuristic=(prof.model.family == CUSTOM))
