"""One-dimensional laws with exact tail-probability and truncated-moment oracles.

Every distribution here answers three queries exactly (to ~1e-12 absolute):

* ``survival(t)``       -- P(|X| > t)
* ``trunc_moment(M, r)`` -- E(X^r 1{|X| <= M}) for r in {1, 2}
* ``tau_integral(M)``    -- integral_0^M t * P(|X| > t) dt

The last one is what makes the Feller relation between the normalized
truncated second moment and the tail functional checkable to 1e-9 without
any step-size dependence: for step-function survivals the integrand is
piecewise linear, so the integral is a finite sum of trapezoid pieces;
for the inverse-law tail it has a closed form.

The heavy-tailed integer law (``HeavyLogLaw``) answers all three in O(1)
time and fixed memory at any level M.  Its series are read from one head
table over k = 2..4096, summed once at import, and beyond it from
Euler-Maclaurin closed forms in E1(log x), li(x) and log log x; the tail
mass is summed directly, never as the series total minus a prefix, and
``tau_integral`` is built from the survival alone.  Against mpmath the
series agree to below 3e-15 relative for M up to 1e15, and the Feller
residual stays below 1e-15 there.  Sampling and the comonotone pair oracle
read the same head table, the conditional CDF 1 - T(k)/T(1) for k <= 4096
(within 7e-17 of mpmath), and the tail beyond it, which a draw bisects; a
guide table of 2^13 buckets finds most draws' place in the head.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, groupby

import numpy as np


class UnsupportedOracleError(Exception):
    """The requested exact computation is not available for this law."""


class Scratch:
    """Work buffers of ``size`` entries that the inverse-CDF kernels reuse
    from one call to the next, one per dtype (a bool mask, an intp index),
    each made on first use and lent as a view of the shape asked for.  A
    sampling loop makes one per call, so its chunks allocate no array of
    their size."""

    def __init__(self, size: int):
        self.size, self._buffers = size, {}

    def view(self, dtype, shape) -> np.ndarray:
        buf = self._buffers.get(dtype)
        if buf is None:
            buf = self._buffers[dtype] = np.empty(self.size, dtype=dtype)
        return buf[:math.prod(shape)].reshape(shape)


def _buffers(u, out, scratch):
    """``u`` as a float array, ``out`` and ``scratch``, each made when None."""
    u = np.asarray(u, dtype=float)
    return (u, np.empty(u.shape) if out is None else out,
            Scratch(u.size) if scratch is None else scratch)


class Distribution:
    """Base class; subclasses provide exact oracles and inverse-CDF sampling."""

    def survival(self, t: float) -> float:
        raise NotImplementedError

    def trunc_moment(self, M: float, order: int) -> float:
        raise NotImplementedError

    def trunc_moments(self, M: np.ndarray, order: int) -> np.ndarray:
        """``trunc_moment`` at every level of the float array ``M``, bit for
        bit."""
        return np.array([self.trunc_moment(m, order) for m in M.tolist()],
                        dtype=float)

    def band_moment(self, a: float, b: float, order: int) -> float:
        """E(X^order 1{a < |X| <= b})."""
        if b <= a:
            return 0.0
        return self.trunc_moment(b, order) - self.trunc_moment(a, order)

    def tau_integral(self, M: float) -> float:
        raise NotImplementedError

    def quantile_array(self, u: np.ndarray, out: np.ndarray | None = None,
                       scratch: Scratch | None = None) -> np.ndarray:
        """The law's values at the uniforms ``u``, written into ``out`` (a
        C-contiguous float array of u's shape, allocated when None) and
        returned; ``scratch`` lends the kernel its work buffers."""
        raise NotImplementedError

    # optional analytic facts consumed by the condition checkers ---------

    def tau_envelope(self):
        """Optional (description, fn) with M*survival(M) <= fn(M), fn -> 0."""
        return None

    def tau_positive_limsup(self):
        """Optional (description, value) with limsup_M M*survival(M) >= value > 0."""
        return None


class FiniteDiscrete(Distribution):
    """Finitely many atoms (value, probability); probabilities sum to one."""

    def __init__(self, atoms):
        atoms = [(float(v), float(p)) for v, p in atoms if p != 0.0]
        if not atoms:
            raise ValueError("need at least one atom with positive mass")
        for v, p in atoms:
            if not math.isfinite(v) or not math.isfinite(p):
                raise ValueError(f"atom ({v!r}, {p!r}) is not finite")
            if p < 0.0:
                raise ValueError("negative probability")
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        # canonical order: increasing |value|, negative sign first on ties
        atoms.sort(key=lambda vp: (abs(vp[0]), vp[0]))
        self.atoms = tuple(atoms)
        self._values = np.array([v for v, _ in self.atoms])
        self._cum = np.cumsum([p for _, p in self.atoms])
        self._cum[-1] = 1.0
        # the oracles read Python lists: a bisection and a few float
        # operations cost less than one numpy call on a few-atom array.
        # Per atom: |value| and the terms p * v and p * v^2 of the moments
        self._abs = [abs(v) for v, _ in self.atoms]
        self._terms = {1: [p * v for v, p in self.atoms],
                       2: [p * (v * v) for v, p in self.atoms]}
        # per distinct |value| a, increasing: a and P(|X| > a), the masses
        # of the larger |values| added from the largest down
        self._levels, masses = [], []
        for a, group in groupby(self.atoms, key=lambda vp: abs(vp[0])):
            mass = 0.0
            for _, p in group:
                mass += p
            self._levels.append(a)
            masses.append(mass)
        self._beyond = list(accumulate(masses[:0:-1]))[::-1] + [0.0]
        # largest |value| carrying mass
        self.max_abs_value = self._levels[-1]

    def survival(self, t: float) -> float:
        if t < 0:
            return 1.0
        i = bisect_right(self._levels, t)
        return self._beyond[i - 1] if i else 1.0

    def trunc_moment(self, M: float, order: int) -> float:
        terms = self._terms.get(order)
        if terms is None:
            raise UnsupportedOracleError(f"order {order}")
        return math.fsum(terms[:bisect_right(self._abs, M)])

    def tau_integral(self, M: float) -> float:
        # the survival is constant between consecutive |values|
        if M <= 0:
            return 0.0
        total, lo, s = 0.0, 0.0, self.survival(0.0)
        for a, beyond in zip(self._levels, self._beyond):
            if a >= M:
                break
            total += s * (a * a - lo * lo) / 2.0
            lo, s = a, beyond
        return total + s * (M * M - lo * lo) / 2.0

    def quantile_array(self, u, out=None, scratch=None):
        # the atom index is the count of cumulative masses below the last
        # that are <= u; one comparison pass per atom counts it about six
        # times faster than a binary search per value on the few-atom
        # tables the models use, at a cost that grows with the atom count.
        # ``take`` gathers from an intp index without a buffered copy; a
        # fancy index or a narrower index type converts it first.  With one
        # atom cum[0] is 1, above every u, and ``clip`` would keep index 0
        u, out, scratch = _buffers(u, out, scratch)
        idx = scratch.view(np.intp, u.shape)
        np.greater_equal(u, self._cum[0], out=idx, casting="unsafe")
        if len(self._cum) > 2:
            mask = scratch.view(bool, u.shape)
            for c in self._cum[1:-1]:
                np.add(idx, np.greater_equal(u, c, out=mask), out=idx)
        return np.take(self._values, idx, out=out, mode="clip")

    def tau_envelope(self):
        b = self.max_abs_value

        def env(M):
            return 0.0 if M >= b else M

        return (f"bounded support |X| <= {b:g}: tau(M) = 0 for M >= {b:g}", env)


class Pareto1(Distribution):
    """Positive law with P(X > t) = min(1, scale/t): the inverse-law tail.

    Supported on [scale, oo); the canonical heavy tail with
    M * P(X > M) = scale for every M >= scale, so the weak-L1 condition
    fails for it by a constant margin.
    """

    def __init__(self, scale: float = 1.0):
        if not 0 < scale < math.inf:
            raise ValueError(
                f"scale must be positive and finite, not {scale!r}")
        self.scale = float(scale)

    def survival(self, t: float) -> float:
        if t <= self.scale:
            return 1.0
        return self.scale / t

    def trunc_moment(self, M: float, order: int) -> float:
        s = self.scale
        if M < s:
            return 0.0
        if order == 1:
            return s * math.log(M / s)
        if order == 2:
            return s * (M - s)
        raise UnsupportedOracleError(f"order {order}")

    def trunc_moments(self, M, order):
        s, above = self.scale, np.maximum(M, self.scale)
        if order == 1:
            # libm's log per level: numpy's may differ in the last bit
            out = s * np.fromiter(map(math.log, (above / s).tolist()), float,
                                  len(M))
        elif order == 2:
            out = s * (above - s)
        else:
            raise UnsupportedOracleError(f"order {order}")
        return np.where(M < s, 0.0, out)

    def tau_integral(self, M: float) -> float:
        s = self.scale
        if M <= s:
            return M * M / 2.0
        return s * s / 2.0 + s * (M - s)

    def quantile_array(self, u, out=None, scratch=None):
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape) if out is None else out
        return np.divide(self.scale, np.subtract(1.0, u, out=out), out=out)

    def tau_positive_limsup(self):
        return (
            f"M * P(X > M) = {self.scale:g} for every M >= {self.scale:g}",
            self.scale,
        )


# --------------------------------------------------------------------------
# The heavy-tailed integer law P(|X| = k) proportional to 1/(k^2 log k)
# --------------------------------------------------------------------------
#
# With h(k) = 1/(k^2 log k), every oracle of the law reads one of four
# series at an integer m >= 0:
#
#   T(m) = sum_{k > m} h(k)                  -> survival
#   A(m) = sum_{2 <= k <= m} 1/log k         -> trunc_moment(., 2)
#   B(m) = sum_{2 <= k <= m} 1/(k log k)     -> trunc_moment(., 1)
#   G(m) = sum_{0 <= k < m} (2k + 1) T(k)    -> tau_integral
#
# where T(0) = T(1) is the whole series.  G is built from T alone, never
# from A: the Feller relation between tau_integral and trunc_moment is what
# the tails stage certifies, so it must not hold by construction.
#
# Up to _HEAD_K the four series are read from one table summed at import.
# Beyond it each is a closed form from the Euler-Maclaurin formula with two
# correction terms; the first term left out is about 1e-16 relative at _HEAD_K:
#
#   T(x) = E1(log x) - h/2 - h'/12,     since int_x^oo h = E1(log x)
#   A(m) = A(K) + P_A(m) - P_A(K),      P_A = li(x) + g/2 + g'/12,  g = 1/log x
#   B(m) = B(K) + P_B(m) - P_B(K),      P_B = log log x + b/2 + b'/12,
#                                       b = 1/(x log x)
#   G(m) = G(K) + P_G(m) - P_G(K),      P_G = F - f/2 + f'/12,
#                                       f = (2x + 1) T(x),
#   F = int f = (x^2 + x + 1/3) E1(log x) + li(x) - (2x + 1) h/12.
#
# The tail T is taken directly, never as the series total minus a prefix,
# so its relative error stays at the rounding level of log x at every m.

_HEAD_K = 4096

# Euler's constant, the float nearest it
_EULER_GAMMA = 0.5772156649015329


def _e1(u: float) -> float:
    """E1(u) = int_u^oo e^-t / t dt for u >= 1, by the modified Lentz
    evaluation of its continued fraction 1/(u + 1 - 1^2/(u + 3 - 2^2/(u + 5
    - ...))) (Press et al., Numerical Recipes, sec. 6.3); 19 terms at most
    from u = log 4096 on."""
    b = u + 1.0
    c, d = 1e300, 1.0 / b
    h, i = d, 1
    while True:
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if abs(step - 1.0) <= 1e-16:
            return h * math.exp(-u)
        i += 1


def _ei(u: float) -> float:
    """Ei(u) = li(e^u) for u >= 1: below 40 the power series gamma + log u
    + sum_k u^k / (k k!), whose terms are all positive; from 40 the
    asymptotic series e^u / u * sum_k k! / u^k, cut before its smallest
    term, which is below 1e-16 there."""
    if u < 40.0:
        total, term, k = 0.0, 1.0, 1
        while True:
            term *= u / k  # u^k / k!
            add = term / k
            total += add
            if add <= 1e-17 * total:
                return _EULER_GAMMA + math.log(u) + total
            k += 1
    total, term, k = 1.0, 1.0, 1
    while True:
        after = term * (k / u)  # k! / u^k
        if after >= term or after < 1e-17:
            return math.exp(u) / u * total
        total += after
        term, k = after, k + 1


# Callers ask survival and trunc_moment for the same few levels many times
# (``check_feller_necessary`` once per index up to each level, and
# independent arrays once per coordinate; the gap probe reads one
# dominating index on every demo model), and each closed form sums a
# series in Python, so the closed forms behind them are memoised, with a
# bounded cache.
_em_cache = lru_cache(maxsize=1024)


@_em_cache
def _tail_em(x: float) -> float:
    """T(x) for real x > _HEAD_K."""
    u = math.log(x)
    h = 1.0 / (x * x * u)
    return _e1(u) - h * (0.5 - (2.0 * u + 1.0) / (12.0 * x * u))


@_em_cache
def _energy_em(x: float) -> float:
    """P_A(x): li(x) plus the Euler-Maclaurin end corrections of 1/log x."""
    u = math.log(x)
    return _ei(u) + 0.5 / u - 1.0 / (12.0 * x * u * u)


@_em_cache
def _mean_em(x: float) -> float:
    """P_B(x): log log x plus the end corrections of 1/(x log x)."""
    u = math.log(x)
    return math.log(u) + 0.5 / (x * u) - (u + 1.0) / (12.0 * x * x * u * u)


@_em_cache
def _tau_em(x: float) -> float:
    """P_G(x): antiderivative of (2x + 1) T(x) plus its end corrections."""
    u = math.log(x)
    e1 = _e1(u)
    h = 1.0 / (x * x * u)
    h1 = -h * (2.0 * u + 1.0) / (x * u)
    h2 = h * (6.0 * u * u + 5.0 * u + 2.0) / (x * x * u * u)
    t = e1 - h / 2.0 - h1 / 12.0
    f = (2.0 * x + 1.0) * t
    f1 = 2.0 * t - (2.0 * x + 1.0) * (h + h1 / 2.0 + h2 / 12.0)
    big_f = ((x * x + x + 1.0 / 3.0) * e1 + _ei(u)
             - (2.0 * x + 1.0) * h / 12.0)
    return big_f - f / 2.0 + f1 / 12.0


def _head_sums():
    """T, A, B, G at m = 0.._HEAD_K, summed in extended precision (where the
    platform has it) and rounded once to float."""
    k = np.arange(2, _HEAD_K + 1, dtype=np.longdouble)
    lg = np.log(k)
    h = 1.0 / (k * k * lg)
    tail = np.empty(_HEAD_K + 1, dtype=np.longdouble)
    tail[_HEAD_K] = _tail_em(float(_HEAD_K))
    # T(m) = T(K) + h(m+1) + ... + h(K), summed smallest term first
    tail[1:_HEAD_K] = tail[_HEAD_K] + np.cumsum(h[::-1])[::-1]
    tail[0] = tail[1]
    zero = np.zeros(2, dtype=np.longdouble)
    energy = np.concatenate([zero, np.cumsum(1.0 / lg)])
    mean = np.concatenate([zero, np.cumsum(1.0 / (k * lg))])
    odd = 2.0 * np.arange(_HEAD_K, dtype=np.longdouble) + 1.0
    tau = np.concatenate([zero[:1], np.cumsum(odd * tail[:-1])])
    return tuple(np.asarray(a, dtype=float).tolist()
                 for a in (tail, energy, mean, tau))


# Python lists: one indexing step per oracle call, no numpy scalar boxing
_HEAD_T, _HEAD_A, _HEAD_B, _HEAD_G = _head_sums()
_SERIES_TOTAL = _HEAD_T[0]
_OFFSET_A = _HEAD_A[_HEAD_K] - _energy_em(float(_HEAD_K))
_OFFSET_B = _HEAD_B[_HEAD_K] - _mean_em(float(_HEAD_K))
_OFFSET_G = _HEAD_G[_HEAD_K] - _tau_em(float(_HEAD_K))


def _tail(m: int) -> float:
    """T(m) = sum_{k > m} 1/(k^2 log k) for integer m >= 0."""
    return _HEAD_T[m] if m <= _HEAD_K else _tail_em(float(m))


def _energy(m: int) -> float:
    """A(m) = sum_{2 <= k <= m} 1/log k."""
    return _HEAD_A[m] if m <= _HEAD_K else _OFFSET_A + _energy_em(float(m))


def _mean(m: int) -> float:
    """B(m) = sum_{2 <= k <= m} 1/(k log k)."""
    return _HEAD_B[m] if m <= _HEAD_K else _OFFSET_B + _mean_em(float(m))


def _tau(m: int) -> float:
    """G(m) = sum_{0 <= k < m} (2k + 1) T(k)."""
    return _HEAD_G[m] if m <= _HEAD_K else _OFFSET_G + _tau_em(float(m))


def example41_constant_c() -> float:
    """Normalizer c with 2c * sum_{k>=2} 1/(k^2 log k) = 1."""
    return 0.5 / _SERIES_TOTAL


# the guide table's buckets [j, j + 1) / 2^_GUIDE_BITS of the conditional
# uniform v: v * 2^_GUIDE_BITS is exact, so a bucket is read off v exactly
_GUIDE_BITS = 13


def _head_quantile_table(symmetric: bool):
    """(bounds, values, guide) of the law given X != 0, which does not
    depend on rho: v in [bounds[i-1], bounds[i]) takes values[i], the last
    standing for |X| > _HEAD_K.  The CDF after |X| = k is F(k) = 1 - T(k)/T(1);
    the symmetric law puts +k before -k, each with half the mass.

    ``guide`` is the indexed search of Chen & Asau (1974): entry j is i
    for every v in bucket j when no bound lies inside the bucket, and -1
    when one does; a last -1 entry stands for v = 1."""
    t = np.array(_HEAD_T[1:])  # T(1), ..., T(_HEAD_K)
    k = np.arange(2.0, _HEAD_K + 1.0)
    bounds = 1.0 - t[1:] / _SERIES_TOTAL
    if symmetric:
        half = 1.0 - (t[:-1] + t[1:]) / (2.0 * _SERIES_TOTAL)
        bounds = np.column_stack([half, bounds]).ravel()
        k = np.column_stack([k, -k]).ravel()
    edges = np.arange((1 << _GUIDE_BITS) + 1) / (1 << _GUIDE_BITS)
    first = np.searchsorted(bounds, edges[:-1], side="right")
    last = np.searchsorted(bounds, edges[1:], side="left")
    guide = np.append(np.where(first == last, first, -1), -1)
    return bounds, np.append(k, np.nan), guide


_HEAD_QUANTILE = {s: _head_quantile_table(s) for s in (False, True)}


def _quantile_beyond_head(v: float, symmetric: bool) -> float:
    """The k > _HEAD_K with v in [F(k-1), F(k)), by bisection."""
    need = (1.0 - v) * _SERIES_TOTAL  # v < F(k) iff T(k) < need
    # v < 1 keeps need above T(2^53), past which k is no longer exact
    lo, hi = _HEAD_K, 1 << 53
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail(mid) < need:
            hi = mid
        else:
            lo = mid
    # the head table's split: +k takes the first half of its mass
    if symmetric and _tail(lo) - need >= (_tail(lo) - _tail(hi)) / 2.0:
        return -float(hi)
    return float(hi)


@lru_cache(maxsize=16)
def heavy_log_partition(N: int, symmetric: bool) -> tuple:
    """(points, values) of the law given X != 0 in y = 1 - v, v its
    conditional uniform: y in (points[i], points[i + 1]] takes values[i],
    |values| <= N.  Value m takes (S(m), S(m - 1)], S(m) = T(m)/T(1), split
    at the head table's midpoint under the symmetric law, -m below."""
    points = np.array([_tail(m) for m in range(N, 0, -1)]) / _SERIES_TOTAL
    values = np.arange(N, 1.0, -1.0)
    if symmetric:
        s, points = points, np.empty(2 * N - 1)
        points[0::2], points[1::2] = s, (s[:-1] + s[1:]) / 2.0
        values = np.stack((-values, values), axis=1).ravel()
    points.flags.writeable = values.flags.writeable = False  # cached
    return points, values


def heavy_log_entries(u: np.ndarray, rho, symmetric: bool,
                      scratch: Scratch) -> tuple:
    """(at, values): the flat positions in ``u`` of the uniforms u >= rho,
    in order, and the heavy-log law's values there, where it is not 0.
    ``rho`` is a scalar or one per column of ``u``, or of a (B, 1) ``u``
    whose one uniform per row stands for every column;
    v = (u - rho) / (1 - rho) is the uniform of the conditional law.

    The head is read through a guide table of 2^13 buckets: about 98% of
    the v fall in a bucket no bound enters and take its entry; the rest,
    and v = 1, take the binary search."""
    rho = np.atleast_1d(rho)
    shape = u.shape[:-1] + rho.shape if u.shape[-1:] == (1,) else u.shape
    mask = scratch.view(bool, shape)
    at = np.flatnonzero(np.greater_equal(u, rho, out=mask))
    r = rho[at % len(rho)]
    v = (u.ravel()[at] if u.size == mask.size else u[at // len(rho), 0]) - r
    v /= 1.0 - r
    bounds, values, guide = _HEAD_QUANTILE[symmetric]
    idx = guide[(v * (1 << _GUIDE_BITS)).astype(np.intp)]
    near = np.flatnonzero(idx < 0)
    idx[near] = np.searchsorted(bounds, v[near], side="right")
    picked = values[idx]
    for pos in np.flatnonzero(idx == len(bounds)):
        picked[pos] = _quantile_beyond_head(float(v[pos]), symmetric)
    return at, picked


def heavy_log_quantile(u: np.ndarray, rho, symmetric: bool, out=None,
                       scratch: Scratch | None = None) -> np.ndarray:
    """The heavy-log law with zero mass ``rho`` at the uniforms ``u``, as
    in ``heavy_log_entries``, and 0 where u < rho.  ``out`` may be ``u``
    itself; otherwise as in ``quantile_array``."""
    u, out, scratch = _buffers(u, out, scratch)
    at, picked = heavy_log_entries(u, rho, symmetric, scratch)
    out.fill(0.0)  # after ``u`` is read
    out.ravel()[at] = picked
    return out


class HeavyLogLaw(Distribution):
    """Integer law with a point mass at zero and polynomial-log tails:

    P(X = 0) = rho, and for k = 2, 3, ...
      symmetric:  P(X = +k) = P(X = -k) = (1 - rho) * c / (k^2 log k)
      one-sided:  P(X = +k) = (1 - rho) * 2c / (k^2 log k)

    with 2c = (sum_{k>=2} k^-2 / log k)^-1, so total mass is exactly one.
    The tail functional satisfies M * P(|X| > M) <= 2c (1 - rho) / log M
    for integer M >= 2.
    """

    def __init__(self, rho: float, symmetric: bool = True):
        if not 0.0 <= rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        self.rho = float(rho)
        self.symmetric = bool(symmetric)

    @property
    def _scale(self) -> float:
        # (1 - rho) * 2c
        return (1.0 - self.rho) * 2.0 * example41_constant_c()

    def survival(self, t: float) -> float:
        if t < 0:
            return 1.0
        return self._scale * _tail(int(math.floor(t)))

    def trunc_moment(self, M: float, order: int) -> float:
        m = int(math.floor(M))
        if m < 2:
            return 0.0
        if order == 2:
            return self._scale * _energy(m)
        if order == 1:
            if self.symmetric:
                return 0.0
            return self._scale * _mean(m)
        raise UnsupportedOracleError(f"order {order}")

    def tau_integral(self, M: float) -> float:
        # the survival is constant on [k, k+1), where int t dt = (2k + 1)/2
        if M <= 0:
            return 0.0
        m = int(math.floor(M))
        return self._scale * (_tau(m) + _tail(m) * (M * M - float(m) ** 2)) / 2.0

    def quantile_array(self, u, out=None, scratch=None):
        return heavy_log_quantile(u, self.rho, self.symmetric, out, scratch)

    def tau_envelope(self):
        s = self._scale

        def env(M):
            return s / math.log(M) if M > 1 else float("inf")

        return (
            f"M*P(|X|>M) <= {s:.6g}/log M  (= 2c(1-rho)/log M) for integer M >= 2",
            env,
        )


def convolve(a: FiniteDiscrete, b: FiniteDiscrete) -> FiniteDiscrete:
    """Law of A + B for independent finite discrete A, B."""
    acc: dict[float, float] = {}
    for va, pa in a.atoms:
        for vb, pb in b.atoms:
            v = va + vb
            acc[v] = acc.get(v, 0.0) + pa * pb
    return FiniteDiscrete(sorted(acc.items()))
