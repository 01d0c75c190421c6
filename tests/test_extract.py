"""Truncation algebra, exact centered inner products, the greedy
near-orthogonal subsequence search, and the proof-side budget checks."""

import functools
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wllnlab.extract as extract_mod

from wllnlab.correctors import (
    CorrectorSeries,
    corrector_iid,
    corrector_weak_l2,
    zero_corrector,
)
from wllnlab.distributions import (
    FiniteDiscrete,
    Pareto1,
    UnsupportedOracleError,
    example41_constant_c,
)
from wllnlab.cli import _DEMOS
from wllnlab.extract import (
    _BANK_REPLICATIONS,
    ExtractConfigError,
    ExtractionFailure,
    ExtractionPlan,
    PlanEntries,
    _SampleBank,
    _exact_values,
    admissible_levels,
    check_plan_subsequence,
    cross_product_budget,
    exact_centered_inner_product,
    greedy_extract,
    step_epsilon,
    sum_of_squares_check,
    truncate_array,
    verify_plan,
)
from wllnlab.models import (
    Example41Model,
    IIDModel,
    IndependentArrayModel,
    LatentShiftModel,
    SequenceModel,
    TailVanishingModel,
    model_from_spec,
)

LATENT = LatentShiftModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]),
                          FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)]))


class TestTruncate:
    def test_basics(self):
        got = truncate_array(np.array([3.0, 7.0, -5.0]), 5.0)
        # zeroed, not clipped; the boundary is included
        assert got.tolist() == [3.0, 0.0, -5.0]

    @given(st.floats(-1e6, 1e6), st.floats(0.01, 1e4), st.floats(0.01, 1e4))
    def test_composition_law(self, x, N, Nprime):
        x = np.array([x])
        assert truncate_array(truncate_array(x, N), Nprime) == \
            truncate_array(x, min(N, Nprime))

    def test_array_matches_scalar(self):
        xs = np.array([-7.0, -5.0, 0.0, 3.0, 7.0])
        assert np.array_equal(truncate_array(xs, 5.0),
                              [x if abs(x) <= 5.0 else 0.0 for x in xs])


class TestExactInnerProducts:
    def test_independent_exact_correctors_vanish(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IIDModel(dist)
        D = corrector_iid(dist, (8,))
        assert exact_centered_inner_product(m, 1, 4, 8.0, D) == pytest.approx(
            0.0, abs=1e-14)

    def test_diagonal_is_variance(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IIDModel(dist)
        D = corrector_iid(dist, (8,))
        mu = dist.trunc_moment(8.0, 1)
        var = dist.trunc_moment(8.0, 2) - mu * mu
        got = exact_centered_inner_product(m, 3, 3, 8.0, D)
        assert got == pytest.approx(var, rel=1e-12)
        assert got >= 0.0

    def test_latent_shift_conditional_centering_vanishes(self):
        # law of total expectation: conditionally centered => orthogonal
        D = corrector_weak_l2(LATENT, (8,))
        assert exact_centered_inner_product(LATENT, 2, 7, 8.0, D) == \
            pytest.approx(0.0, abs=1e-14)

    def test_latent_shift_zero_corrector_hand_value(self):
        # E[f_j f_k] = E[B^2] = 1 for j != k (noise independent, mean 0)
        D = zero_corrector((8,))
        assert exact_centered_inner_product(LATENT, 2, 7, 8.0, D) == \
            pytest.approx(1.0, abs=1e-12)

    def test_tail_vanishing_band_product(self):
        # f_j^t f_k^t = g^2 1{max(j,k) < |g| <= N}
        m = TailVanishingModel(Pareto1())
        D = zero_corrector((16,))
        got = exact_centered_inner_product(m, 3, 7, 16.0, D)
        want = m.g_dist.band_moment(7.0, 16.0, 2)  # = 16 - 7
        assert got == pytest.approx(want, rel=1e-12)

    def test_comonotone_vs_monte_carlo(self):
        m = Example41Model(lambda n: 0.3 + 0.01 * n, joint_law="comonotone")
        D = zero_corrector((8,))
        exact = exact_centered_inner_product(m, 1, 5, 8.0, D)
        est, hw = _SampleBank(m, [1, 5], 4000, 9, D).estimate([1], 5, 8)
        assert abs(est[0] - exact) <= hw[0] + 1e-12

    def test_sample_mode_covers_exact(self):
        dist = FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)])
        m = IIDModel(dist)
        D = zero_corrector((4,))
        est, hw = _SampleBank(m, [2], 2000, 1, D).estimate([2], 2, 4)
        assert abs(est[0] - 4.0) <= hw[0]
        with pytest.raises(ExtractConfigError):
            _SampleBank(m, [1, 2], 50, 0, D)


class TestSchedule:
    def test_step_epsilon(self):
        assert step_epsilon(1, 0.0) == pytest.approx(math.exp(-1))
        assert step_epsilon(3, 0.0) == pytest.approx(math.exp(-9))
        assert step_epsilon(3, 1e-2) == 1e-2
        assert step_epsilon(40, 0.0) == 0.0  # exp(-1600) underflows to 0

    def test_admissible_levels_literal(self):
        grid = [2, 4, 8, 64, 4096]
        # n = 1: only N <= e
        assert admissible_levels(1, grid) == [2]
        # n = 2: N <= e^4 ~ 54.6
        assert admissible_levels(2, grid) == [2, 4, 8]
        assert admissible_levels(3, grid) == grid


class TestGreedyExtract:
    def test_independent_with_exact_correctors_takes_prefix(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IIDModel(dist)
        D = corrector_iid(dist, (2, 8))
        plan = greedy_extract(m, 12, (2, 8), D)
        assert plan.indices == tuple(range(1, 13))

    def test_single_step_plan(self):
        m = IIDModel(Pareto1())
        plan = greedy_extract(m, 1, (2,), zero_corrector((2,)))
        assert plan.indices == (1,)
        assert len(plan.achieved) == 0

    def test_tail_vanishing_skips_to_past_levels(self):
        # inner products vanish only when the candidate passes the largest
        # level, so after the unconstrained first step the search jumps
        m = TailVanishingModel(Pareto1())
        grid = (1, 2, 4, 8)
        plan = greedy_extract(m, 6, grid, zero_corrector(grid), search_cap=64)
        assert plan.indices[0] == 1
        assert all(k >= 8 for k in plan.indices[1:])
        rep = verify_plan(plan, m, zero_corrector(grid))
        assert rep["ok"] and rep["max_abs_diff"] <= 1e-12

    def test_determinism(self):
        m = TailVanishingModel(Pareto1())
        grid = (1, 2, 4, 8)
        a = greedy_extract(m, 6, grid, zero_corrector(grid), search_cap=64)
        b = greedy_extract(m, 6, grid, zero_corrector(grid), search_cap=64)
        assert a.indices == b.indices
        assert _entries_equal(a.achieved, b.achieved)

    def test_min_index_shifts_pool(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IIDModel(dist)
        D = corrector_iid(dist, (2,))
        plan = greedy_extract(m, 5, (2,), D, min_index=100)
        assert plan.indices == tuple(range(100, 105))

    def test_exhaustion_reports_diagnostics(self):
        # iid nondegenerate with the wrong (zero) corrector: every off-
        # diagonal inner product equals mu^2 > eps eventually
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IIDModel(dist)
        with pytest.raises(ExtractionFailure) as exc:
            greedy_extract(m, 8, (8,), zero_corrector((8,)), search_cap=32)
        err = exc.value
        assert err.step >= 2
        assert err.best_candidate is not None
        assert err.best_violation > err.eps

    def test_sample_mode_plan(self):
        # small scale keeps the estimator half-widths under the 1e-2 floor
        dist = FiniteDiscrete([(-0.05, 0.5), (0.05, 0.5)])
        m = IIDModel(dist)
        grid = (2, 4)
        plan = greedy_extract(m, 4, grid, zero_corrector(grid),
                              mode="sample", search_cap=32, R=400, seed=3)
        assert plan.mode == "sample"
        assert plan.eps_floor == 1e-2
        rep = verify_plan(plan, m, zero_corrector(grid))
        assert rep["ok"]

    def test_sample_bank_is_off_the_probe_streams(self):
        # a sample-mode plan is checked out of sample: replication r of a
        # probe on the same seed does not read the paths the search read
        m = IIDModel(FiniteDiscrete([(-0.05, 0.5), (0.05, 0.5)]))
        grid = (2, 4)
        plan = greedy_extract(m, 4, grid, zero_corrector(grid),
                              mode="sample", search_cap=32, R=400, seed=3)
        bank = _SampleBank(m, plan.indices, plan.sample_R, plan.seed,
                           zero_corrector(grid))
        rows = bank.values
        probe = np.concatenate([v.copy() for v, _ in m.sample_blocks(
            plan.indices, plan.seed, plan.sample_R)])
        own = np.concatenate([v.copy() for v, _ in m.sample_blocks(
            plan.indices, plan.seed, plan.sample_R, first=_BANK_REPLICATIONS)])
        assert np.array_equal(rows, own)
        assert (rows != probe).any(axis=1).mean() > 0.8

    def test_bank_estimates_are_one_row_reductions(self):
        # the cached centered rows of the kept prefix, conditional D_N, in
        # any order of levels: each estimate is np.mean / np.std(ddof=1) of
        # one row, and each level caches the kept rows only
        m = model_from_spec(_DEMOS["latent-shift"]["model"])
        grid = (64, 256)
        D = corrector_weak_l2(m, grid)
        bank = _SampleBank(m, range(3, 301), 150, 4, D)
        ref = _reference_bank(m, 300, 150, 4)
        kept = [3, 9, 12, 30, 31]
        for n, N, k in [(1, 64, 6), (3, 256, 15), (2, 64, 39), (5, 256, 300),
                        (4, 64, 21), (5, 64, 33)]:
            est, hw = bank.estimate(kept[:n], k, N)
            assert list(zip(est.tolist(), hw.tolist())) == \
                [_reference_estimate(ref, j, k, N, D) for j in kept[:n]]
        assert all(len(bank._levels[N][0]) <= 2 * len(kept) for N in grid)

    def test_bank_size_is_capped_before_sampling(self, monkeypatch):
        assert extract_mod._BANK_VALUES == 2**25    # as documented
        m = IIDModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]))
        D = zero_corrector((4,))
        monkeypatch.setattr(extract_mod, "_BANK_VALUES", 1000)
        assert _SampleBank(m, range(1, 11), 100, 0, D).values.shape == \
            (100, 10)
        with pytest.raises(ExtractConfigError, match="11 indices x R 100"):
            _SampleBank(m, range(1, 12), 100, 0, D)
        with pytest.raises(ExtractConfigError, match="exceeds the cap"):
            greedy_extract(m, 4, (4,), D, mode="sample", R=100,
                           search_cap=11)


@pytest.fixture(scope="module")
def tail_plan():
    m = TailVanishingModel(Pareto1())
    grid = (2, 4, 8, 16)
    D = zero_corrector(grid)
    return m, D, greedy_extract(m, 16, grid, D, search_cap=128)


class TestPlanChecks:
    def test_reverification_exact(self, tail_plan):
        m, D, plan = tail_plan
        rep = verify_plan(plan, m, D)
        assert rep["ok"]
        assert rep["max_abs_diff"] <= 1e-12
        assert rep["checked"] == len(plan.achieved)

    def test_subsequence_inherits_constraints(self, tail_plan):
        _, _, plan = tail_plan
        for keep in (range(1, 17, 2), range(1, 17, 3), range(2, 17)):
            rep = check_plan_subsequence(plan, keep)
            assert rep["ok"]

    def test_thresholds_recorded(self, tail_plan):
        _, _, plan = tail_plan
        stored = json.loads(_written(plan))["thresholds"]
        # the steps as strings, in the string order of sorted keys
        assert list(stored) == sorted(map(str, range(1, len(plan.indices)
                                                     + 1)))
        thresholds = {int(n): eps for n, eps in stored.items()}
        for n, eps in thresholds.items():
            assert eps == step_epsilon(n, plan.eps_floor)
        for (j, n, N), (v,) in zip(plan.achieved, plan.achieved.values):
            assert abs(v) <= thresholds[n]


class TestBudgets:
    def test_cross_products_zero_for_independent_exact(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IIDModel(dist)
        D = corrector_iid(dist, (8,))
        plan = greedy_extract(m, 8, (8,), D)
        budget = cross_product_budget(plan, m, D, 8)
        assert budget.total == pytest.approx(0.0, abs=1e-12)
        assert budget.ok

    def test_tail_vanishing_matches_direct_double_sum(self):
        m = TailVanishingModel(Pareto1())
        grid = (2, 4, 8, 16)
        D = zero_corrector(grid)
        plan = greedy_extract(m, 16, grid, D, search_cap=128)
        budget = cross_product_budget(plan, m, D, 16)
        direct = 0.0
        for n in range(2, 17):
            for j in range(1, n):
                direct += 2.0 * abs(exact_centered_inner_product(
                    m, plan.indices[j - 1], plan.indices[n - 1], 16.0, D))
        assert budget.total == pytest.approx(direct, abs=1e-9)
        assert budget.ok

    def test_head_sum_matches_direct_double_sum(self):
        # n <= sqrt(log N) puts step 2 in the head from N = 55 on; the
        # counterexample accepts index 2 there with no admissible level
        m = model_from_spec(_DEMOS["counterexample"]["model"])
        grid = (64, 256)
        D = corrector_weak_l2(m, grid)
        plan = greedy_extract(m, 64, grid, D)
        budget = cross_product_budget(plan, m, D, 64)
        head = tail = 0.0
        for n in range(2, 65):
            for j in range(1, n):
                v = 2.0 * abs(exact_centered_inner_product(
                    m, plan.indices[j - 1], plan.indices[n - 1], 64.0, D))
                if n <= math.sqrt(math.log(64)):
                    head += v
                else:
                    tail += v
        assert head > 0.0
        assert (budget.head_sum, budget.tail_sum) == (head, tail)
        assert budget.ok

    def test_sum_of_squares_zero_model(self):
        m = IIDModel(FiniteDiscrete([(0.0, 1.0)]))
        chk = sum_of_squares_check(m, zero_corrector((8,)), 8, range(1, 9))
        assert chk.lhs == 0.0
        assert chk.ok

    def test_sum_of_squares_example41(self):
        m = Example41Model(lambda n: 0.5)
        chk = sum_of_squares_check(m, zero_corrector((64,)), 64, range(1, 65))
        assert chk.ok
        assert chk.lhs <= chk.sigma_bound + 1e-9

    def test_sum_of_squares_latent_conditional(self):
        D = corrector_weak_l2(LATENT, (8,))
        chk = sum_of_squares_check(LATENT, D, 8, range(1, 9))
        assert chk.ok
        assert chk.corrector_second_moment <= chk.corrector_moment_bound + 1e-9


def test_conditional_corrector_needs_latent_model():
    m = IIDModel(Pareto1())
    D = corrector_weak_l2(LATENT, (8,))
    with pytest.raises(UnsupportedOracleError):
        exact_centered_inner_product(m, 1, 2, 8.0, D)


def test_unknown_mode_rejected_before_any_work():
    m = IIDModel(Pareto1())
    with pytest.raises(ExtractConfigError, match="unknown mode"):
        greedy_extract(m, 1, (2,), zero_corrector((2,)), mode="bogus")


@pytest.mark.parametrize("mode", ["exact", "sample"])
def test_repeated_level_rejected_before_any_work(mode):
    # a repeated level would record each of its entries twice
    m = IIDModel(Pareto1())
    grid = (64, 64, 256)
    with pytest.raises(ExtractConfigError, match="repeats a level"):
        greedy_extract(m, 4, grid, zero_corrector(grid), mode=mode)


# -------------------------------------------------------------------------
# scalar reference: the scan and the re-check one predecessor at a time,
# against which the row-based search must agree bit for bit.  The exact
# oracle is the per-model isinstance ladder and predecessor shortcuts the
# package used before the joint moments moved onto the models, kept here
# unchanged apart from names so the reference imports nothing from the scan
# -------------------------------------------------------------------------

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _is_independent(model: SequenceModel) -> bool:
    if isinstance(model, (IIDModel, IndependentArrayModel)):
        return True
    return isinstance(model, Example41Model) and model.joint_law == "independent"


def _constant_value(D: CorrectorSeries, N: int) -> float:
    if D.kind == "conditional":
        raise UnsupportedOracleError(
            "conditional correctors are only supported on latent-shift models")
    return D.value(N)


def _comonotone_intervals(model: Example41Model, i: int, N: float):
    """u-intervals of the shared uniform mapping to nonzero values <= N."""
    rho = model.rho(i)
    two_c = 2.0 * example41_constant_c()
    out = []
    lo = rho
    for k in range(2, int(math.floor(N)) + 1):
        q = (1.0 - rho) * two_c / (k * k * math.log(k))
        if model.symmetric:
            out.append((lo, lo + q / 2.0, float(k)))
            out.append((lo + q / 2.0, lo + q, float(-k)))
        else:
            out.append((lo, lo + q, float(k)))
        lo += q
    return out


def _comonotone_product(model: Example41Model, j: int, k: int, N: float) -> float:
    """E[f_j^t f_k^t] under the shared-uniform coupling, by exact overlap
    integration of the two quantile partitions."""
    a = _comonotone_intervals(model, j, N)
    b = _comonotone_intervals(model, k, N)
    total = 0.0
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        lo = max(a[ia][0], b[ib][0])
        hi = min(a[ia][1], b[ib][1])
        if hi > lo:
            total += (hi - lo) * a[ia][2] * b[ib][2]
        if a[ia][1] <= b[ib][1]:
            ia += 1
        else:
            ib += 1
    return total


def _reference_inner_product(model: SequenceModel, j: int, k: int,
                             N: float, D: CorrectorSeries) -> float:
    """E[(f_j^{[-N,N]} - D_N)(f_k^{[-N,N]} - D_N)] via the model's joint
    oracle."""
    Nlev = int(N)
    if isinstance(model, LatentShiftModel):
        total = 0.0
        for b, p in model.factor_dist.atoms:
            d = D.value(Nlev, factor=b) if D.kind == "conditional" else D.value(Nlev)
            m1 = model.conditional_trunc_moment(b, N, 1)
            if j == k:
                m2 = model.conditional_trunc_moment(b, N, 2)
                total += p * (m2 - 2.0 * d * m1 + d * d)
            else:
                total += p * (m1 - d) ** 2
        return total
    d = _constant_value(D, Nlev)
    if _is_independent(model):
        mu_j = model.marginal_dist(j).trunc_moment(N, 1)
        if j == k:
            m2 = model.marginal_dist(j).trunc_moment(N, 2)
            return m2 - 2.0 * d * mu_j + d * d
        mu_k = model.marginal_dist(k).trunc_moment(N, 1)
        return (mu_j - d) * (mu_k - d)
    if isinstance(model, TailVanishingModel):
        g = model.g_dist
        cross = g.band_moment(float(max(j, k)), N, 2)
        mu_j = g.band_moment(float(j), N, 1)
        mu_k = g.band_moment(float(k), N, 1)
        return cross - d * (mu_j + mu_k) + d * d
    if isinstance(model, Example41Model):  # comonotone
        mu_j = model.marginal_dist(j).trunc_moment(N, 1)
        if j == k:
            m2 = model.marginal_dist(j).trunc_moment(N, 2)
            return m2 - 2.0 * d * mu_j + d * d
        mu_k = model.marginal_dist(k).trunc_moment(N, 1)
        cross = _comonotone_product(model, j, k, N)
        return cross - d * (mu_j + mu_k) + d * d
    raise UnsupportedOracleError(
        f"model kind {model.kind!r} has no exact joint-moment oracle")


class _ReferenceFastExact:
    """Per-model shortcuts for max_j |ip(j, candidate, N)| over predecessors.

    Exploits that for every hosted joint oracle the dependence on the
    predecessor j is through one moment of f_j, or absent, so the maximum
    is attained at a few known predecessors (``note_accept`` keeps the
    independent coordinates' one); the recorded value is always a genuine
    inner product at that predecessor, re-verifiable by the direct routine.
    """

    def __init__(self, model, D):
        self.model = model
        self.D = D
        self.kind = ("latent" if isinstance(model, LatentShiftModel) else
                     "independent" if _is_independent(model) else
                     "tailvan" if isinstance(model, TailVanishingModel) else
                     "generic")
        self._max_centered: dict = {}   # N -> (max |mu_j - d|, j_step)

    def note_accept(self, step: int, index: int, all_levels) -> None:
        if self.kind != "independent":
            return
        for N in all_levels:
            d = _constant_value(self.D, int(N))
            v = abs(self.model.marginal_dist(index).trunc_moment(float(N), 1) - d)
            cur = self._max_centered.get(N)
            if cur is None or v > cur[0]:
                self._max_centered[N] = (v, step)


def _entries(achieved: dict) -> PlanEntries:
    """The columns of a dict from keys (j, n, N) to a value or to
    (estimate, half_width), in key order."""
    achieved = dict(sorted(achieved.items()))
    keys = np.array(list(achieved), dtype=np.int64).reshape(-1, 3)
    values = np.array(list(achieved.values()), dtype=float)
    return PlanEntries(*keys.T, values.reshape(len(keys), -1))


def _entries_equal(a: PlanEntries, b: PlanEntries) -> bool:
    """Same keys in the same order, and the same value bits."""
    return all(np.array_equal(x, y) for x, y in
               ((a.j, b.j), (a.n, b.n), (a.N, b.N),
                (a.values.view(np.int64), b.values.view(np.int64))))


def _reference_bank(model, horizon, R, seed):
    """(R, horizon) paths and their factor values, drawn as the search
    draws them."""
    idx = np.arange(1, horizon + 1, dtype=np.int64)
    rows = [next(model.sample_blocks(idx, seed, 1, first=_BANK_REPLICATIONS + r))
            for r in range(R)]
    return (np.concatenate([v for v, _ in rows]),
            [None if f is None else float(f[0]) for _, f in rows])


def _reference_estimate(bank, j, k, N, D):
    values, factors = bank
    R = values.shape[0]
    if D.kind != "conditional":
        d = np.full(R, D.value(int(N)))
    else:
        d = np.array([D.value(int(N), factor=f) for f in factors])
    prod = ((truncate_array(values[:, j - 1], N) - d)
            * (truncate_array(values[:, k - 1], N) - d))
    return (float(np.mean(prod)),
            _Z99 * float(np.std(prod, ddof=1)) / math.sqrt(R))


def _reference_max_over_predecessors(fast, pred_indices, pred_steps, k, N):
    ip = _reference_inner_product
    if fast.kind == "independent":
        jstar = fast._max_centered[N][1]
        idx = pred_indices[pred_steps.index(jstar)]
        return ip(fast.model, idx, k, N, fast.D), jstar
    if fast.kind == "latent":
        return ip(fast.model, pred_indices[-1], k, N, fast.D), pred_steps[-1]
    positions = range(len(pred_indices))
    if fast.kind == "tailvan":
        # ip(j, k) is affine in the band mean mu_j: the first and the last
        # predecessor, then those of the earliest largest and the latest
        # smallest mu_j, found by scanning every predecessor
        mu = [fast.model.g_dist.band_moment(float(j), N, 1)
              for j in pred_indices]
        positions = (0, len(mu) - 1, mu.index(max(mu)),
                     len(mu) - 1 - mu[::-1].index(min(mu)))
    best = None
    for pos in positions:
        v = ip(fast.model, pred_indices[pos], k, N, fast.D)
        if best is None or abs(v) > abs(best[0]):
            best = (v, pred_steps[pos])
    return best


def _reference_greedy(model, target_length, n_grid, D, mode, eps_floor=None,
                      seed=0, R=400, detail_steps=16, min_index=1,
                      search_cap=None):
    n_grid = tuple(sorted(int(N) for N in n_grid))
    if eps_floor is None:
        eps_floor = 0.0 if mode == "exact" else 1e-2
    if search_cap is None:
        search_cap = min(model.index_cap,
                         min_index - 1 + target_length + 2 * max(n_grid) + 64)
    bank = _reference_bank(model, search_cap, R, seed) if mode == "sample" else None
    fast = _ReferenceFastExact(model, D) if mode == "exact" else None
    indices, achieved = [], {}
    for step in range(1, target_length + 1):
        eps = step_epsilon(step, eps_floor)
        levels = admissible_levels(step, n_grid)
        start = max(int(min_index), (indices[-1] + 1) if indices else 1)
        chosen, best_candidate, best_violation = None, None, math.inf
        for k in range(start, search_cap + 1):
            records = {}
            feasible = True
            worst = 0.0
            pred_steps = list(range(1, step))
            for N in levels:
                if not indices:
                    break
                if mode == "exact":
                    val, jstar = _reference_max_over_predecessors(
                        fast, indices, pred_steps, k, N)
                    amount = abs(val)
                    records[(jstar, step, N)] = val
                else:
                    amount = 0.0
                    for jstep, jidx in zip(pred_steps, indices):
                        est, hw = _reference_estimate(bank, jidx, k, N, D)
                        records[(jstep, step, N)] = (est, hw)
                        amount = max(amount, abs(est) + hw)
                worst = max(worst, amount)
                if amount > eps:
                    feasible = False
                    break
            if feasible:
                chosen = k
                if mode == "exact" and step <= detail_steps and indices:
                    for N in levels:
                        for jstep, jidx in zip(pred_steps, indices):
                            records[(jstep, step, N)] = \
                                _reference_inner_product(model, jidx, k, N, D)
                achieved.update(records)
                break
            if worst < best_violation:
                best_violation, best_candidate = worst, k
        if chosen is None:
            raise ExtractionFailure(step, eps, search_cap, best_candidate,
                                    best_violation)
        indices.append(chosen)
        if fast is not None:
            fast.note_accept(step, chosen, n_grid)
    return ExtractionPlan(tuple(indices), n_grid,
                          _entries(achieved), mode,
                          int(seed), float(eps_floor), int(search_cap),
                          int(detail_steps), D.provenance,
                          R if mode == "sample" else 0)


def _reference_verify(plan, model, D):
    bank = None
    if plan.mode == "sample":
        bank = _reference_bank(model, plan.search_cap, plan.sample_R, plan.seed)
    max_diff = 0.0
    violations = []
    stored_values = plan.achieved.values.tolist()
    for (jstep, nstep, N), stored in zip(plan.achieved, stored_values):
        jidx = plan.indices[jstep - 1]
        kidx = plan.indices[nstep - 1]
        eps = step_epsilon(nstep, plan.eps_floor)
        if plan.mode == "exact":
            stored, = stored
            fresh = _reference_inner_product(model, jidx, kidx, N, D)
            max_diff = max(max_diff, abs(fresh - stored))
            if abs(stored) > eps:
                violations.append((jstep, nstep, N))
        else:
            est, hw = _reference_estimate(bank, jidx, kidx, N, D)
            max_diff = max(max_diff, abs(est - stored[0]))
            if abs(stored[0]) + stored[1] > eps:
                violations.append((jstep, nstep, N))
    return {"checked": len(plan.achieved), "max_abs_diff": max_diff,
            "violations": violations, "ok": not violations}


def _reference_plan_json(plan):
    """plan.json's text as one ``json.dumps`` of the whole tree: rows in
    key order, each step's threshold from ``step_epsilon``."""
    e = plan.achieved
    keys = list(zip(e.j.tolist(), e.n.tolist(), e.N.tolist()))
    values = e.values.tolist()
    steps = range(1, len(plan.indices) + 1)
    tree = {
        "indices": list(plan.indices),
        "n_grid": list(plan.n_grid),
        "thresholds": {str(n): step_epsilon(n, plan.eps_floor)
                       for n in steps},
        "achieved": [list(keys[i]) + values[i]
                     for i in sorted(range(len(keys)), key=keys.__getitem__)],
        "achieved_fields": ["j", "n", "N"] + (
            ["value"] if plan.mode == "exact"
            else ["estimate", "half_width"]),
        "mode": plan.mode,
        "seed": plan.seed,
        "eps_floor": plan.eps_floor,
        "search_cap": plan.search_cap,
        "detail_steps": plan.detail_steps,
        "corrector": plan.corrector_ref,
        "sample_R": plan.sample_R,
    }
    return json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


def _written(plan) -> str:
    buf = io.StringIO()
    plan.write_json(buf)
    return buf.getvalue()


def _explicit_rho_comonotone():
    # zero masses between 1 - 1e-3 and 1 - 1e-9: covariances small enough
    # for a plan under a floor, and uneven enough that candidates fail
    rng = np.random.default_rng(3)
    rho = (1.0 - 10.0 ** -(3.0 + 6.0 * rng.random(120))).tolist()
    return {"kind": "example41", "joint_law": "comonotone", "index_cap": 120,
            "params": {"rho": {"family": "explicit", "values": rho},
                       "symmetric": True}}


def _uneven_means_array():
    # truncated means of random sign and size, the first one tiny, so the
    # predecessor of largest |mean| moves as the plan grows
    rng = np.random.default_rng(11)
    sizes = 10.0 ** -(0.3 + 2.7 * rng.random(400))
    means = sizes * rng.choice([-1.0, 1.0], 400)
    means[0] = 1e-4
    return {"kind": "independent_array", "params": {"dists": [
        {"family": "finite", "atoms": [[0.0, 0.5], [float(2.0 * mu), 0.5]]}
        for mu in means]}}


_REFERENCE_MODELS = {
    **{name: demo["model"] for name, demo in _DEMOS.items()},
    "comonotone": _explicit_rho_comonotone(),
    "iid": {"kind": "iid", "params": {"dist": {
        "family": "finite", "atoms": [[1.0, 0.25], [5.0, 0.75]]}}},
    "independent-array": _uneven_means_array(),
}


_REFERENCE_CASES = [
    pytest.param("counterexample", 48, (64, 256), "sample", {"seed": 1},
                 id="counterexample-sample-seed1"),
    pytest.param("counterexample", 48, (64, 256), "sample", {"seed": 2},
                 id="counterexample-sample-seed2"),
    pytest.param("latent-shift", 24, (64, 256), "sample",
                 {"seed": 5, "eps_floor": 2.0},
                 id="latent-shift-sample-conditional"),
    # the benchmark's shape: 127 cached rows per level by the last step
    pytest.param("counterexample", 128, (64, 256), "sample", {"seed": 3},
                 id="counterexample-sample-long"),
    # 23 of 55 candidates rejected, each at the first level: rejected
    # candidates never enter the bank's cache
    pytest.param("independent-array", 32, (2, 8, 64), "sample",
                 {"seed": 3, "eps_floor": 1e-2},
                 id="independent-array-sample-rejections"),
    pytest.param("counterexample", 512, (64, 256, 1024, 4096), "exact", {},
                 id="counterexample-exact"),
    pytest.param("example41", 512, (64, 256, 1024, 4096), "exact",
                 {"min_index": 10**12}, id="example41-exact"),
    pytest.param("latent-shift", 512, (64, 256, 1024, 4096), "exact", {},
                 id="latent-shift-exact"),
    pytest.param("comonotone", 24, (64, 256), "exact", {"eps_floor": 1e-7},
                 id="example41-comonotone-exact"),
    pytest.param("iid", 64, (2, 8, 64), "exact", {}, id="iid-exact"),
    pytest.param("independent-array", 48, (2, 8, 64), "exact",
                 {"eps_floor": 1e-3}, id="independent-array-exact"),
]


@functools.lru_cache(maxsize=None)
def _reference_run(name, length, grid, mode, kwargs):
    """(model, corrector, reference plan, reference check) of a case, built
    once per test run; ``kwargs`` as sorted items."""
    m = model_from_spec(_REFERENCE_MODELS[name])
    # the array's means do not settle, so it has no weak-L2 corrector
    D = zero_corrector(grid) if name == "independent-array" \
        else corrector_weak_l2(m, grid)
    ref = _reference_greedy(m, length, grid, D, mode, **dict(kwargs))
    return m, D, ref, _reference_verify(ref, m, D)


@pytest.mark.parametrize("name, length, grid, mode, kwargs", _REFERENCE_CASES)
def test_search_matches_scalar_reference(name, length, grid, mode, kwargs):
    m, D, ref, _ = _reference_run(name, length, grid, mode,
                                  tuple(sorted(kwargs.items())))
    if name == "latent-shift":
        assert D.kind == "conditional"
    plan = greedy_extract(m, length, grid, D, mode=mode, **kwargs)
    assert len(plan.indices) == length
    assert _written(plan) == _reference_plan_json(ref)
    assert list(plan.achieved) == list(ref.achieved)
    assert verify_plan(plan, m, D) == _reference_verify(plan, m, D)


# SHA-256 of the compact plan.json of the independent-array-exact case.
# Every demo plan records only 0.0, so this pins the float text of the
# value column: 455 entries, all non-zero and 228 of them negative.
_ARRAY_PLAN_SHA256 = \
    "8a80f92758b6635fcb6bc6db3a959cb66f6bbeee9ed49ae0be78d06ae284c5a0"


def test_independent_array_plan_json_pinned(tmp_path):
    grid = (2, 8, 64)
    m = model_from_spec(_REFERENCE_MODELS["independent-array"])
    plan = greedy_extract(m, 48, grid, zero_corrector(grid), eps_floor=1e-3)
    values = plan.achieved.values[:, 0]
    assert (len(plan.achieved), np.count_nonzero(values),
            np.count_nonzero(values < 0)) == (455, 455, 228)
    path = tmp_path / "plan.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        plan.write_json(fh)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _ARRAY_PLAN_SHA256


def _hand_plan(length, values):
    """A plan of ``length`` steps whose entries hold ``values`` (one row
    each, one column exact, two sampled) under keys drawn at random, some
    repeated, in key order."""
    rng = np.random.default_rng(length * 1000 + len(values))
    j, n = rng.integers(1, length + 1, (2, len(values)))
    N = rng.choice([2, 8, 64], len(values))
    order = np.lexsort((N, n, j))
    sampled = values.shape[1] == 2
    return ExtractionPlan(tuple(range(3, 3 + 2 * length, 2)), (2, 8, 64),
                          PlanEntries(j[order], n[order], N[order], values),
                          "sample" if sampled else "exact", 7, 1e-3,
                          4 * length, 16, "test", 400 if sampled else 0)


class TestPlanJson:
    """``ExtractionPlan.write_json`` writes what one ``json.dumps`` of the
    whole tree writes, however its batches fall."""

    def test_no_entries(self):
        m = model_from_spec(_DEMOS["counterexample"]["model"])
        grid = (64, 256)
        plan = greedy_extract(m, 1, grid, zero_corrector(grid))
        assert len(plan.achieved) == 0
        text = _written(plan)
        assert text == _reference_plan_json(plan)
        assert '"achieved":[],' in text

    @pytest.mark.parametrize("count", [0, 1, 8, 9])
    @pytest.mark.parametrize("length", [1, 8, 9])
    def test_batch_boundaries(self, monkeypatch, length, count):
        # entry and step counts of none, one, a multiple of the batch and
        # one more
        monkeypatch.setattr(extract_mod, "_WRITE_ROWS", 4)
        values = np.random.default_rng(count).standard_normal((count, 1))
        plan = _hand_plan(length, values)
        assert _written(plan) == _reference_plan_json(plan)

    @pytest.mark.parametrize("batch", [1, 7, 1024])
    def test_sample_rows(self, monkeypatch, batch):
        # (estimate, half_width) rows, most of them non-zero
        monkeypatch.setattr(extract_mod, "_WRITE_ROWS", batch)
        grid = (2, 4, 8)
        plan = greedy_extract(LATENT, 24, grid, corrector_weak_l2(LATENT, grid),
                              mode="sample", seed=5, eps_floor=2.0)
        assert np.count_nonzero(plan.achieved.values[:, 0]) > 40
        assert _written(plan) == _reference_plan_json(plan)
        values = np.random.default_rng(5).standard_normal((30, 2))
        plan = _hand_plan(12, values)
        assert _written(plan) == _reference_plan_json(plan)

    def test_steps_past_100(self, monkeypatch):
        # thresholds are keyed "1", "10", "100", "1000", "1001", ...
        monkeypatch.setattr(extract_mod, "_WRITE_ROWS", 64)
        m = model_from_spec(_DEMOS["counterexample"]["model"])
        grid = (64, 256, 1024, 4096)
        plan = greedy_extract(m, 1234, grid, corrector_weak_l2(m, grid))
        text = _written(plan)
        assert text == _reference_plan_json(plan)
        keys = [k for k, _ in json.loads(
            text, object_pairs_hook=lambda pairs: pairs)[-1][1]]
        assert keys[:5] == ["1", "10", "100", "1000", "1001"]
        assert keys == sorted(map(str, range(1, 1235)))

    def test_non_finite_values(self):
        # the edge doubles are written as json.dumps writes them; strict
        # JSON has no NaN or Infinity token, so those values are refused
        values = np.array([[-0.0], [5e-324], [1.7976931348623157e308], [0.1]])
        plan = _hand_plan(5, values)
        text = _written(plan)
        assert text == _reference_plan_json(plan)
        assert all(s in text for s in ("-0.0", "5e-324",
                                       "1.7976931348623157e+308"))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                _written(_hand_plan(5, np.append(values, [[bad]], axis=0)))

    def test_memory_does_not_grow_with_length(self, tmp_path):
        # one batch beside the plan: the whole tree and its text took 5.8
        # MiB at 4,096 steps and 16 MiB at 16,384
        m = model_from_spec(_DEMOS["counterexample"]["model"])
        grid = (64, 256, 1024, 4096)
        D = corrector_weak_l2(m, grid)
        for length in (4096, 16384):
            plan = greedy_extract(m, length, grid, D)
            assert len(plan.achieved) > 4 * length - 16
            tracemalloc.start()
            try:
                with open(tmp_path / "plan.json", "w", encoding="utf-8",
                          newline="") as fh:
                    plan.write_json(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, (length, peak)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("name, length, grid, mode, kwargs",
                         [case for case in _REFERENCE_CASES
                          if case.values[3] == "exact"])
def test_search_matches_scalar_reference_at_small_blocks(
        monkeypatch, block, name, length, grid, mode, kwargs):
    # runs and fixed-lead scans cut every few candidates: the plan and its
    # check do not depend on where the blocks end
    m, D, ref, check = _reference_run(name, length, grid, mode,
                                      tuple(sorted(kwargs.items())))
    monkeypatch.setattr(extract_mod, "_BLOCK", block)
    plan = greedy_extract(m, length, grid, D, mode=mode, **kwargs)
    assert _written(plan) == _reference_plan_json(ref)
    assert list(plan.achieved) == list(ref.achieved)
    assert verify_plan(plan, m, D) == check


def _assert_search_matches_reference(model, length, grid, D, block,
                                     **kwargs):
    """The exact search at block size ``block`` and the scalar reference
    give the same plan, or fail at the same step with the same best
    candidate and violation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extract_mod, "_BLOCK", block)
        try:
            got = greedy_extract(model, length, grid, D, **kwargs)
        except ExtractionFailure as exc:
            got = exc
    try:
        ref = _reference_greedy(model, length, grid, D, "exact", **kwargs)
    except ExtractionFailure as exc:
        assert isinstance(got, ExtractionFailure)
        assert (got.step, got.eps, got.best_candidate, got.best_violation) \
            == (exc.step, exc.eps, exc.best_candidate, exc.best_violation)
        return exc
    assert isinstance(got, ExtractionPlan)
    assert _written(got) == _reference_plan_json(ref)
    assert list(got.achieved) == list(ref.achieved)
    return got


_BLOCKS = st.sampled_from([1, 3, 7, 2048])


@settings(max_examples=30, deadline=None)
@given(atoms=st.lists(st.tuples(st.integers(-70, 70).filter(bool),
                                st.integers(1, 40)),
                      min_size=1, max_size=4, unique_by=lambda a: a[0]),
       centering=st.lists(st.sampled_from([0.0, 1e-3, -2e-3, 0.01]),
                          min_size=3, max_size=3),
       eps_floor=st.sampled_from([0.0, 1e-4, 1e-2]), block=_BLOCKS)
def test_single_draw_search_matches_reference(atoms, centering, eps_floor,
                                              block):
    # g of both signs: the band mean mu_j is not monotone in j and ties
    # often, so every lead slot and its tie order counts
    mass = [(float(v), w / 1000.0) for v, w in atoms]
    g = FiniteDiscrete(mass + [(0.0, 1.0 - math.fsum(p for _, p in mass))])
    grid = (2, 16, 64)
    D = CorrectorSeries(grid, "constant", dict(zip(grid, centering)), "test")
    _assert_search_matches_reference(TailVanishingModel(g), 24, grid, D,
                                     block, eps_floor=eps_floor)


@settings(max_examples=30, deadline=None)
@given(means=st.lists(st.sampled_from([-0.2, -0.1, 0.0, 0.1, 0.2]),
                      min_size=20, max_size=60),
       eps_floor=st.sampled_from([0.005, 0.015, 0.03]), block=_BLOCKS)
def test_independent_search_matches_reference(means, eps_floor, block):
    # truncated means tied in modulus and of both signs: the earliest
    # largest |mu_j - D_N| decides the recorded step and the value's sign
    m = IndependentArrayModel([FiniteDiscrete([(-1.0, 0.5), (1.0 + 2 * mu,
                                                              0.5)])
                               for mu in means])
    grid = (2, 8, 64)
    _assert_search_matches_reference(m, 8, grid, zero_corrector(grid), block,
                                     eps_floor=eps_floor)


@pytest.mark.parametrize("block", [1, 3, 7, 2048])
def test_single_draw_lead_takes_the_latest_smallest_mean(block):
    # at N = 16 the band mean mu_j is 0.01 below 3, -0.02 on 3..9 and 0
    # from 10 on, and every index is accepted: from step 17 on the largest
    # |ip| = |d^2 - d mu_j| sits on the plateau 3..9, at its latest step
    g = FiniteDiscrete([(3.0, 0.01), (-10.0, 0.002), (0.0, 0.988)])
    grid = (2, 16)
    D = CorrectorSeries(grid, "constant", {2: 0.0, 16: 0.05}, "test")
    plan = _assert_search_matches_reference(TailVanishingModel(g), 24, grid,
                                            D, block, eps_floor=0.3)
    assert plan.indices == tuple(range(1, 25))
    assert [j for j, n, N in plan.achieved if n > 16 and N == 16] == [9] * 8


@pytest.mark.parametrize("block", [1, 3, 7, 2048])
def test_failure_diagnostics_across_blocks(block):
    # the single-draw failure off the ends of the lead: every candidate
    # from 61 to the search cap is rejected at step 4
    g = FiniteDiscrete([(-5.0, 0.04), (60.0, 1.0 / 300.0),
                        (0.0, 1.0 - 0.04 - 1.0 / 300.0)])
    grid = (2, 50, 64)
    D = CorrectorSeries(grid, "constant", {2: 0.0, 50: 0.0, 64: 3e-4}, "test")
    exc = _assert_search_matches_reference(TailVanishingModel(g), 4, grid, D,
                                           block)
    assert (exc.step, exc.best_candidate) == (4, 61)
    # the uneven array at a floor it cannot keep: step 4 rejects every
    # candidate up to the cap of 240, and the closest is deep in that run
    m = model_from_spec(_uneven_means_array())
    grid = (2, 8, 64)
    exc = _assert_search_matches_reference(m, 48, grid, zero_corrector(grid),
                                           block, eps_floor=1e-5)
    assert (exc.step, exc.best_candidate, exc.search_cap) == (4, 109, 240)


def test_long_plan_memory():
    # L = 65,536 on the counterexample: the plan is columns, the scan's
    # arrays are bounded by the block size, and the check streams entries
    m = model_from_spec(_DEMOS["counterexample"]["model"])
    grid = (64, 256, 1024, 4096)
    D = corrector_weak_l2(m, grid)
    tracemalloc.start()
    try:
        plan = greedy_extract(m, 65536, grid, D)
        check = verify_plan(plan, m, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.indices) == 65536 and check["ok"]
    assert check["checked"] == len(plan.achieved) > 4 * 65536 - 16
    assert check["max_abs_diff"] == 0.0
    assert peak < 29 * 2**20


def test_unreachable_target_allocates_by_steps_reached():
    # a target of 10^9 steps fails at step 3 inside a 50-index window: no
    # array is sized by the target or the window up front
    m = model_from_spec(_DEMOS["counterexample"]["model"])
    grid = (64, 256, 1024, 4096)
    D = corrector_weak_l2(m, grid)
    tracemalloc.start()
    try:
        with pytest.raises(ExtractionFailure) as exc:
            greedy_extract(m, 10**9, grid, D, search_cap=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # candidates 3..50 all break N - k > exp(-9) at N = 64; 50 comes closest
    assert (exc.value.step, exc.value.eps, exc.value.best_candidate,
            exc.value.best_violation) == (3, math.exp(-9), 50, 14.0)
    assert peak < 2**20


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "sample mode certifies false constraints: a band (k, N] that no "
    "replication hits gives estimate 0 and half-width 0"))
def test_sample_mode_entries_hold_exactly():
    # counterexample, grid 64/256: the sample plan takes index 126 at step
    # 3 where the exact search takes 256, and 1,127 of its 2,254 recorded
    # entries break eps_n against the exact oracle; the recheck re-estimates
    # from the same kind of bank and says ok
    m = model_from_spec(_DEMOS["counterexample"]["model"])
    grid = (64, 256)
    D = zero_corrector(grid)
    plan = greedy_extract(m, 48, grid, D, mode="sample", R=400, seed=1)
    assert verify_plan(plan, m, D)["ok"]
    false = [(j, n, N) for j, n, N in plan.achieved
             if abs(_reference_inner_product(
                 m, plan.indices[j - 1], plan.indices[n - 1], N, D))
             > step_epsilon(n, plan.eps_floor)]
    assert false == []


@pytest.mark.parametrize("name", ["counterexample", "example41",
                                  "latent-shift"])
def test_recheck_is_bitwise_the_scalar_oracle(name):
    m = model_from_spec(_DEMOS[name]["model"])
    grid = (64, 256, 1024, 4096)
    D = corrector_weak_l2(m, grid)
    plan = greedy_extract(m, 512, grid, D, min_index=_DEMOS[name]["min_index"])
    fresh = _exact_values(plan, m, D)
    scalar = np.array([exact_centered_inner_product(
        m, plan.indices[j - 1], plan.indices[n - 1], N, D)
        for j, n, N in plan.achieved])
    assert len(fresh) == len(plan.achieved) > 512
    assert np.array_equal(fresh.view(np.int64), scalar.view(np.int64))


def test_single_draw_scan_finds_extremes_off_the_ends():
    # g takes -5, 60 or 0, so the band mean mu_j = E(g 1{j < |g| <= 64}) is
    # about 0 for j < 5, 0.2 for 5 <= j < 60 and 0 beyond: not monotone.
    # Steps 1-3 accept 1, 5 and 60, and at step 4 only the middle
    # predecessor 5 breaks the threshold, which the first and the last
    # predecessor alone would not show
    m = TailVanishingModel(FiniteDiscrete(
        [(-5.0, 0.04), (60.0, 1.0 / 300.0), (0.0, 1.0 - 0.04 - 1.0 / 300.0)]))
    grid = (2, 50, 64)
    D = CorrectorSeries(grid, "constant", {2: 0.0, 50: 0.0, 64: 3e-4}, "test")
    with pytest.raises(ExtractionFailure) as exc:
        greedy_extract(m, 4, grid, D)
    middle = exact_centered_inner_product(m, 5, 61, 64, D)
    assert exc.value.step == 4
    assert exc.value.best_candidate == 61
    assert exc.value.best_violation == abs(middle) > exc.value.eps


@pytest.mark.parametrize("model", [
    TailVanishingModel(Pareto1()),
    Example41Model(lambda n: 0.5 + 0.4 / n, symmetric=False),
    IndependentArrayModel([FiniteDiscrete([(-1.0, 0.5), (0.5 + n / 7.0, 0.5)])
                           for n in range(1, 41)]),
], ids=["tail-vanishing", "example41-one-sided", "independent-array"])
def test_row_arithmetic_is_bitwise_the_scalar_oracle(model):
    # a nonzero centering, so every operation of the pair formula counts,
    # against the scalar oracle and the reference ladder alike
    grid = (2, 8, 64)
    D = CorrectorSeries(grid, "constant", {2: 0.37, 8: -1.3, 64: 0.0625},
                        "test")
    indices = tuple(range(1, 41, 3))
    pairs = {(j, n, N): 0.0 for n in range(2, len(indices) + 1)
             for j in range(1, n) for N in grid}
    plan = ExtractionPlan(indices, grid, _entries(pairs), "exact", 0, 0.0,
                          40, 0, D.provenance)
    fresh = _exact_values(plan, model, D)
    for oracle in (exact_centered_inner_product, _reference_inner_product):
        scalar = np.array([oracle(model, indices[j - 1], indices[n - 1], N, D)
                           for j, n, N in plan.achieved])
        assert np.array_equal(fresh.view(np.int64), scalar.view(np.int64))
    assert np.count_nonzero(fresh) > len(pairs) // 2
