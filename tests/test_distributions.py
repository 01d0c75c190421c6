"""Exact-oracle checks for the distribution layer.

Expected values are either trivial identities, closed forms verified by an
independent numerical integration in the test itself, frozen constants
computed by direct series summation with an analytic remainder bound, or
30-digit mpmath sums.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import NumpyFiniteOracles
from wllnlab.distributions import (
    FiniteDiscrete,
    HeavyLogLaw,
    Pareto1,
    UnsupportedOracleError,
    _GUIDE_BITS,
    _HEAD_K,
    _HEAD_QUANTILE,
    _e1,
    _ei,
    _quantile_beyond_head,
    convolve,
    example41_constant_c,
    heavy_log_quantile,
)
from wllnlab.verify import wilson_interval

# 2c * sum_{k>=2} 1/(k^2 log k) = 1; the sum was computed by direct
# summation to k = 5*10^4 plus the Euler-Maclaurin tail anchored at
# int_K^oo dx/(x^2 log x) = E1(log K), and cross-checked against raw
# partial sums to k = 10^7 (monotone from below).
C_NORMALIZER = 0.8257341175495516
SERIES_TOTAL = 0.6055217888826004
# E1(log 1,000,001) from 40-digit mpmath, rounded once to float
E1_AT_LOG_1000001 = 6.777236318395757e-08


def riemann_survival_integral(dist, M, points=200_000):
    # brute midpoint rule for int_0^M t * P(|X|>t) dt, as an independent
    # cross-check of the exact piecewise integration
    t = (np.arange(points) + 0.5) * (M / points)
    s = np.array([dist.survival(float(x)) for x in t])
    return float(np.sum(t * s) * (M / points))


class TestFiniteDiscrete:
    def test_two_point_symmetric(self):
        d = FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)])
        assert d.trunc_moment(5.0, 1) == 0.0
        assert d.trunc_moment(5.0, 2) == 4.0
        assert d.trunc_moment(1.0, 2) == 0.0
        assert d.survival(1.9) == 1.0
        assert d.survival(2.0) == 0.0

    def test_point_mass_switch(self):
        d = FiniteDiscrete([(7.0, 1.0)])
        assert d.trunc_moment(6.9, 1) == 0.0
        assert d.trunc_moment(7.0, 1) == 7.0
        assert d.survival(7.0) == 0.0
        assert d.survival(6.0) == 1.0

    def test_tau_integral_two_point(self):
        # tau(t) = t for t < a, then 0: integral is a^2/2
        a = 3.0
        d = FiniteDiscrete([(-a, 0.5), (a, 0.5)])
        assert d.tau_integral(a) == pytest.approx(a * a / 2, abs=1e-12)
        assert d.tau_integral(10.0) == pytest.approx(a * a / 2, abs=1e-12)

    def test_tau_integral_matches_riemann(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            vals = rng.uniform(-8, 8, size=6)
            probs = rng.dirichlet(np.ones(6))
            d = FiniteDiscrete(list(zip(vals, probs)))
            M = float(rng.uniform(1, 10))
            assert d.tau_integral(M) == pytest.approx(
                riemann_survival_integral(d, M), abs=1e-3)

    def test_band_moment(self):
        d = FiniteDiscrete([(1.0, 0.25), (2.0, 0.25), (3.0, 0.5)])
        assert d.band_moment(1.0, 2.5, 1) == pytest.approx(0.5)
        assert d.band_moment(0.0, 3.0, 1) == pytest.approx(d.trunc_moment(3.0, 1))
        assert d.band_moment(3.0, 2.0, 2) == 0.0

    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            FiniteDiscrete([(1.0, 0.7), (2.0, 0.7)])
        with pytest.raises(ValueError):
            FiniteDiscrete([(1.0, -0.5), (2.0, 1.5)])

    @pytest.mark.parametrize("atoms", [
        [(1.0, math.nan)], [(math.inf, 1.0)], [(math.nan, 1.0)],
        [(-math.inf, 0.5), (1.0, 0.5)], [(1.0, 0.5), (2.0, math.inf)]])
    def test_rejects_non_finite_atoms(self, atoms):
        # a NaN total mass passes the test against 1, and an infinite
        # value has no moments
        with pytest.raises(ValueError, match="not finite"):
            FiniteDiscrete(atoms)

    def test_quantile_roundtrip(self):
        d = FiniteDiscrete([(-1.0, 0.2), (0.0, 0.3), (4.0, 0.5)])
        rng = np.random.default_rng(0)
        samples = d.quantile_array(rng.random(50_000))
        for v, p in d.atoms:
            lo, hi = wilson_interval(int(np.sum(samples == v)), len(samples))
            assert lo <= p <= hi

    def test_quantile_counts_cumulative_masses(self):
        # atom i for cum[i - 1] <= u < cum[i], at the cut points too, and
        # for tables too long for a one-byte atom index
        for n in (1, 2, 3, 300):
            d = FiniteDiscrete([(float(v), 1.0 / n) for v in range(n)])
            u = np.concatenate([np.random.default_rng(n).random(2000),
                                d._cum, [0.0]])
            ref = np.minimum(np.searchsorted(d._cum, u, side="right"), n - 1)
            assert np.array_equal(d.quantile_array(u), d._values[ref])


# atom values from a small pool, so that |values| repeat and tie across
# signs, and from a wide range; masses are integer weights over their total
_ATOM_VALUES = st.one_of(
    st.sampled_from([-3.0, -1.5, -0.0, 0.0, 0.25, 1.5, 3.0, -1e6]),
    st.floats(-1e6, 1e6, allow_nan=False))
_WEIGHTED_ATOMS = st.lists(st.tuples(_ATOM_VALUES, st.integers(1, 1000)),
                           min_size=1, max_size=12)


def _bits(x):
    return float(x).hex()


class TestFiniteOraclesAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(_WEIGHTED_ATOMS,
           st.lists(st.floats(-2e6, 2e6, allow_nan=False), max_size=4))
    def test_oracles_bit_for_bit(self, weighted, drawn):
        total = sum(w for _, w in weighted)
        d = FiniteDiscrete([(v, w / total) for v, w in weighted])
        ref = NumpyFiniteOracles(d)
        # levels on every |value|, one ulp either side, between neighbours,
        # at and below 0, past the largest, and drawn
        on = sorted({abs(v) for v, _ in d.atoms})
        near = [math.nextafter(a, side) for a in on
                for side in (-math.inf, math.inf)]
        between = [(a + b) / 2.0 for a, b in zip(on, on[1:])]
        for M in on + near + between + drawn + [0.0, -1.0, 2.0 * on[-1] + 1.0]:
            assert _bits(d.survival(M)) == _bits(ref.survival(M)), M
            for order in (1, 2):
                assert _bits(d.trunc_moment(M, order)) \
                    == _bits(ref.trunc_moment(M, order)), (M, order)
            assert _bits(d.tau_integral(M)) == _bits(ref.tau_integral(M)), M

    def test_other_orders_are_unsupported(self):
        with pytest.raises(UnsupportedOracleError):
            FiniteDiscrete([(1.0, 1.0)]).trunc_moment(2.0, 3)


class TestPareto1:
    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_scale_outside_positive_floats(self, scale):
        with pytest.raises(ValueError, match="scale"):
            Pareto1(scale)

    def test_survival(self):
        g = Pareto1()
        assert g.survival(0.5) == 1.0
        assert g.survival(1.0) == 1.0
        assert g.survival(4.0) == 0.25

    def test_trunc_moments_closed_form(self):
        g = Pareto1()
        # E(X 1{X<=M}) = int_1^M dt/t = log M; E(X^2 1{X<=M}) = M - 1
        for M in (1.5, 2.0, 10.0, 123.0):
            assert g.trunc_moment(M, 1) == pytest.approx(math.log(M), rel=1e-12)
            assert g.trunc_moment(M, 2) == pytest.approx(M - 1.0, rel=1e-12)
        assert g.trunc_moment(0.5, 2) == 0.0

    def test_tau_integral(self):
        g = Pareto1(scale=1.0)
        # tau(t) = t below 1, then == 1
        assert g.tau_integral(1.0) == pytest.approx(0.5)
        assert g.tau_integral(5.0) == pytest.approx(4.5)
        assert g.tau_integral(5.0) == pytest.approx(
            riemann_survival_integral(g, 5.0), abs=1e-4)

    def test_scaled(self):
        g = Pareto1(scale=2.0)
        assert g.survival(8.0) == 0.25
        assert g.trunc_moment(8.0, 1) == pytest.approx(2.0 * math.log(4.0))

    def test_empirical_tail(self):
        # inverse-CDF sampling reproduces P(X > 10) = 0.1
        g = Pareto1()
        rng = np.random.default_rng(42)
        x = g.quantile_array(rng.random(10_000))
        lo, hi = wilson_interval(int(np.sum(x > 10.0)), len(x))
        assert lo <= 0.1 <= hi


class TestHeavyLogLaw:
    def test_normalizer_frozen(self):
        assert example41_constant_c() == pytest.approx(C_NORMALIZER, abs=1e-10)

    def test_normalizer_defining_identity(self):
        # 2c * sum_{k>=2} 1/(k^2 log k) = 1, with the sum recomputed here
        # independently: direct summation to 10^6 plus E1 remainder
        k = np.arange(2, 1_000_001, dtype=float)
        head = float(np.sum(1.0 / (k * k * np.log(k))))
        total = head + E1_AT_LOG_1000001
        assert 2.0 * example41_constant_c() * total == pytest.approx(1.0, abs=1e-9)
        assert total == pytest.approx(SERIES_TOTAL, abs=1e-10)

    def test_partial_sum_k10(self):
        # one-sided, rho = 0: P(X <= 10) is the partial series over its total
        want = math.fsum(1.0 / (k * k * math.log(k)) for k in range(2, 11))
        got = 1.0 - HeavyLogLaw(0.0, symmetric=False).survival(10)
        assert got == pytest.approx(want / SERIES_TOTAL, abs=1e-14)
        assert want == pytest.approx(0.575, abs=5e-4)

    def test_survival_against_direct_sum(self):
        d = HeavyLogLaw(0.5)
        k = np.arange(3, 10_000_001, dtype=float)
        tail = float(np.sum(1.0 / (k * k * np.log(k))))
        # remainder past 10^7 is below int dx/(x^2 log x) ~ 6e-9
        want = 0.5 * 2.0 * example41_constant_c() * tail
        assert d.survival(2.0) == pytest.approx(want, abs=2e-8)

    def test_total_mass(self):
        for rho in (0.0, 0.3, 1.0):
            d = HeavyLogLaw(rho)
            assert d.survival(1.0) == pytest.approx(1.0 - rho, rel=1e-12)

    def test_symmetric_moments(self):
        d = HeavyLogLaw(0.5)
        assert d.trunc_moment(100.0, 1) == 0.0
        # E(X^2 1{|X|<=M}) = (1-rho) 2c sum_{2<=k<=M} 1/log k
        want = 0.5 * 2.0 * C_NORMALIZER * math.fsum(
            1.0 / math.log(k) for k in range(2, 8))
        assert d.trunc_moment(7.0, 2) == pytest.approx(want, rel=1e-10)

    def test_one_sided_first_moment(self):
        d = HeavyLogLaw(0.25, symmetric=False)
        want = 0.75 * 2.0 * C_NORMALIZER * math.fsum(
            1.0 / (k * math.log(k)) for k in range(2, 11))
        assert d.trunc_moment(10.0, 1) == pytest.approx(want, rel=1e-10)

    def test_tau_envelope_bound(self):
        d = HeavyLogLaw(0.5)
        desc, env = d.tau_envelope()
        for M in (2, 5, 17, 100, 4096):
            assert M * d.survival(M) <= env(M) + 1e-12

    def test_empirical_tail(self):
        d = HeavyLogLaw(0.5)
        rng = np.random.default_rng(3)
        x = d.quantile_array(rng.random(100_000))
        for M in (0.0, 2.0, 10.0):
            lo, hi = wilson_interval(int(np.sum(np.abs(x) > M)), len(x),
                                     z=3.2905267314919255)  # 99.9%
            assert lo <= d.survival(M) <= hi

    def test_degenerate_rho_one(self):
        d = HeavyLogLaw(1.0)
        rng = np.random.default_rng(0)
        assert np.all(d.quantile_array(rng.random(1000)) == 0.0)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOracleError):
            HeavyLogLaw(0.5).trunc_moment(10.0, 3)


# --------------------------------------------------------------------------
# HeavyLogLaw against high-precision references
# --------------------------------------------------------------------------

# straddles the end of the law's head table (k <= 4096) and runs deep into
# the Euler-Maclaurin range
SERIES_LEVELS = (10, 1000, 4095, 4096, 4097, 65536, 10**5, 10**6)
FAR_LEVELS = (10**6, 10**7, 10**9, 10**12, 10**15)
# an earlier sampler read an inverse-CDF table to k = 2^19 and walked
# beyond it, stopping at 10,524,289
OLD_TABLE_END = 1 << 19
OLD_WALK_CAP = OLD_TABLE_END + 10_000_001


def _h_mp(k):
    return 1 / (k * k * mpmath.log(k))


def _mp_prefix(term, m, direct=64):
    """sum_{k=2..m} term(k): exact head plus mpmath.sumem beyond it.
    (mpmath.nsum extrapolates these log-damped series badly.)"""
    head = mpmath.fsum(term(mpmath.mpf(k)) for k in range(2, min(m, direct) + 1))
    return head + (mpmath.sumem(term, [direct + 1, m]) if m > direct else 0)


def _mp_tail(m, direct=64):
    """sum_{k>m} 1/(k^2 log k)."""
    if m >= direct:
        return mpmath.sumem(_h_mp, [m + 1, mpmath.inf])
    head = mpmath.fsum(_h_mp(mpmath.mpf(k)) for k in range(m + 1, direct + 1))
    return head + mpmath.sumem(_h_mp, [direct + 1, mpmath.inf])


def _rel(got, want):
    return float(abs(mpmath.mpf(got) - want) / abs(want))


def test_e1_and_ei_against_mpmath():
    # the closed forms take u = log x from the head table's end, log 4096,
    # to far past any grid; Ei changes series at u = 40
    u = np.linspace(math.log(4096.0), math.log(1e150), 2000).tolist()
    u += [math.nextafter(40.0, 0.0), 40.0]
    with mpmath.workdps(40):
        for fn, ref in ((_e1, mpmath.e1), (_ei, mpmath.ei)):
            worst = max(_rel(fn(x), ref(mpmath.mpf(x))) for x in u)
            assert worst <= 4e-15, (fn.__name__, worst)


@pytest.fixture(scope="module")
def series_total_mp():
    with mpmath.workdps(30):
        return _mp_tail(1)


def piecewise_tau_integral(dist, M):
    """int_0^M t P(|X| > t) dt summed over the unit steps of the survival,
    one survival call per step: the reference for the closed form."""
    if M <= 0:
        return 0.0
    top = int(math.floor(M))
    pts = [0.0] + [float(k) for k in range(2, top + 1) if k < M] + [M]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += dist.survival(lo) * (hi * hi - lo * lo) / 2.0
    return total


class TestHeavyLogLawReferences:
    @pytest.mark.parametrize("m", SERIES_LEVELS)
    def test_series_against_mpmath(self, series_total_mp, m):
        # rho = 0, one-sided: survival, trunc_moment(., 2) and
        # trunc_moment(., 1) are the three series divided by their total
        total = series_total_mp
        d = HeavyLogLaw(0.0, symmetric=False)
        with mpmath.workdps(30):
            want_tail = _mp_tail(m) / total
            want_energy = _mp_prefix(lambda k: 1 / mpmath.log(k), m) / total
            want_mean = _mp_prefix(lambda k: 1 / (k * mpmath.log(k)), m) / total
            want_partial = (total - _mp_tail(m)) / total
            assert _rel(d.survival(m), want_tail) <= 1e-13
            assert _rel(d.survival(m + 0.5), want_tail) <= 1e-13
            assert _rel(d.trunc_moment(m, 2), want_energy) <= 1e-13
            assert _rel(d.trunc_moment(m, 1), want_mean) <= 1e-13
            assert _rel(1.0 - d.survival(m), want_partial) <= 1e-13

    def test_series_total_against_mpmath(self, series_total_mp):
        with mpmath.workdps(30):
            assert _rel(0.5 / example41_constant_c(), series_total_mp) <= 1e-15

    @pytest.mark.parametrize("rho,symmetric", [(0.0, True), (0.5, False),
                                               (0.9, True)])
    def test_tau_integral_matches_piecewise_loop(self, rho, symmetric):
        d = HeavyLogLaw(rho, symmetric)
        for M in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0, 100.5, 4095.0, 4096.0,
                  4096.5, 4097.0, 5000.25, 10_000.0):
            want = piecewise_tau_integral(d, M)
            assert d.tau_integral(M) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("rho,symmetric", [(0.0, True), (0.25, False)])
    def test_feller_residual_at_large_levels(self, rho, symmetric):
        d = HeavyLogLaw(rho, symmetric)
        for M in FAR_LEVELS + (10**6 + 0.5, 123_456_789.25):
            M = float(M)
            sigma = d.trunc_moment(M, 2) / M
            rhs = (2.0 / M) * d.tau_integral(M) - M * d.survival(M)
            assert abs(sigma - rhs) <= 1e-12

    def test_oracle_memory_does_not_grow_with_level(self):
        d = HeavyLogLaw(0.5, symmetric=False)
        tracemalloc.start()
        try:
            M = 1e12
            d.survival(M)
            d.trunc_moment(M, 1)
            d.trunc_moment(M, 2)
            d.tau_integral(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _cond_cdf_mp(total, k):
    """Conditional P(|X| <= k | X != 0) = 1 - T(k)/T(1)."""
    return 1 - _mp_tail(k) / total


def _quantile_at(symmetric, v):
    # rho = 0: the conditional uniform is u itself
    return float(HeavyLogLaw(0.0, symmetric).quantile_array(np.array([v]))[0])


class TestHeadQuantile:
    # the head table's boundaries, at its two ends and in between
    KS = (2, 3, 4, 10, 100, 1000, 2047, 4000, 4095, _HEAD_K)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_boundaries_within_two_ulp_of_mpmath(self, series_total_mp,
                                                 symmetric):
        # v two ulps below the mpmath boundary after a value draws that
        # value, two ulps above it draws the next
        total = series_total_mp
        with mpmath.workdps(30):
            for k in self.KS:
                lo = _cond_cdf_mp(total, k - 1)
                hi = _cond_cdf_mp(total, k)
                cuts = [(hi, float(k), float(k + 1))]
                if symmetric:
                    half = lo + _h_mp(mpmath.mpf(k)) / (2 * total)
                    cuts = [(half, float(k), -float(k)),
                            (hi, -float(k), float(k + 1))]
                for cut, before, after in cuts:
                    b = float(cut)
                    below = np.nextafter(np.nextafter(b, 0.0), 0.0)
                    above = np.nextafter(np.nextafter(b, 1.0), 1.0)
                    assert _quantile_at(symmetric, below) == before
                    assert _quantile_at(symmetric, above) == after

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_draw_allocates_no_table(self, symmetric):
        u = np.random.default_rng(2).random(1000)
        tracemalloc.start()
        try:
            HeavyLogLaw(0.5, symmetric).quantile_array(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("rho", [0.0, 0.3, (0.0, 0.25, 0.9)],
                             ids=["zero", "scalar", "per-column"])
    def test_guide_table_matches_binary_search(self, symmetric, rho):
        # v at every bucket edge, at every head bound and one ulp either
        # side, at 0 and just below 1, and past the head; u is mapped so
        # that v = (u - rho) / (1 - rho) lands on them up to rounding, and
        # the reference binary-searches the v the kernel computes
        bounds, values = _HEAD_QUANTILE[symmetric][:2]
        top = np.nextafter(1.0, 0.0)
        v = np.concatenate([
            np.arange(1 << _GUIDE_BITS) / (1 << _GUIDE_BITS),
            bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0),
            [0.0, top],
            bounds[-1] + (top - bounds[-1])
            * np.random.default_rng(6).random(48)])
        r = np.array(rho, dtype=float).reshape(-1)
        u = np.minimum(r + v[:, None] * (1.0 - r), top)
        u[::7] *= r  # some u below rho, which give 0
        want = np.zeros(u.shape)
        rr = np.broadcast_to(r, u.shape)
        hit = u >= rr
        vv = (u[hit] - rr[hit]) / (1.0 - rr[hit])
        i = np.searchsorted(bounds, vv, side="right")
        want[hit] = [_quantile_beyond_head(float(x), symmetric)
                     if k == len(bounds) else values[k]
                     for x, k in zip(vv.tolist(), i.tolist())]
        got = heavy_log_quantile(u, rho, symmetric)
        assert np.array_equal(got, want)
        assert np.count_nonzero(np.abs(got) > _HEAD_K) > 48 // 2
        in_place = u.copy()
        heavy_log_quantile(in_place, rho, symmetric, out=in_place)
        assert np.array_equal(in_place, want)

    def test_one_quantile_for_every_zero_mass(self):
        # an array of zero masses along the last axis gives, column by
        # column, the law of that column's zero mass
        u = np.random.default_rng(4).random((200, 3))
        rho = np.array([0.0, 0.5, 0.97])
        for symmetric in (True, False):
            got = heavy_log_quantile(u, rho, symmetric)
            for col, r in enumerate(rho):
                want = HeavyLogLaw(r, symmetric).quantile_array(u[:, col])
                assert np.array_equal(got[:, col], want)


class TestFarQuantile:
    # |value| targets past the head table, from its first value on; three
    # of them beyond the old walk's cap
    TARGETS = (_HEAD_K + 1, 10**4, 10**5, OLD_TABLE_END + 1, 600_000, 10**6,
               10**7, 2 * 10**7, 10**9, 10**12)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("target", TARGETS)
    def test_bisection_brackets_v(self, series_total_mp, symmetric, target):
        total = series_total_mp
        slack = 4 * 2.0 ** -53  # a few ulps of v < 1
        with mpmath.workdps(30):
            lo = _cond_cdf_mp(total, target - 1)
            step = _h_mp(mpmath.mpf(target)) / total
            for frac in (0.25, 0.75):
                v = float(lo + frac * step)
                got = _quantile_at(symmetric, v)
                k = int(abs(got))
                assert k > _HEAD_K
                hi_k = _cond_cdf_mp(total, k)
                lo_k = hi_k - _h_mp(mpmath.mpf(k)) / total
                if symmetric:
                    half = lo_k + _h_mp(mpmath.mpf(k)) / (2 * total)
                    lo_k, hi_k = (lo_k, half) if got > 0 else (half, hi_k)
                assert lo_k - slack <= v < hi_k + slack
                if target <= 10**7:
                    # the step is several ulps wide: the answer is exact
                    want = -target if symmetric and frac > 0.5 else target
                    assert got == want
                if target > OLD_WALK_CAP:
                    assert k > OLD_WALK_CAP

    def test_monotone_in_v(self):
        d = HeavyLogLaw(0.0, symmetric=False)
        top = _HEAD_QUANTILE[False][0][-1]  # F(_HEAD_K)
        v = np.sort(top + (1.0 - top) * np.random.default_rng(5).random(64))
        k = d.quantile_array(v)
        assert np.all(np.diff(k) >= 0) and k[0] > _HEAD_K


def test_convolve():
    a = FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)])
    b = FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)])
    s = convolve(a, b)
    assert dict(s.atoms) == {-4.0: 0.25, -2.0: 0.25, 2.0: 0.25, 4.0: 0.25}
    assert s.trunc_moment(10.0, 2) == pytest.approx(10.0)
