"""Truncation algebra, exact centered inner products, the greedy
near-orthogonal subsequence search, and the proof-side budget checks."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        est, hw = _SampleBank(m, 5, 4000, 9).estimate([1], 5, 8.0, D)
        assert abs(est[0] - exact) <= hw[0] + 1e-12

    def test_sample_mode_covers_exact(self):
        dist = FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)])
        m = IIDModel(dist)
        D = zero_corrector((4,))
        est, hw = _SampleBank(m, 2, 2000, 1).estimate([2], 2, 4.0, D)
        assert abs(est[0] - 4.0) <= hw[0]
        with pytest.raises(ExtractConfigError):
            _SampleBank(m, 2, 50, 0)


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
        assert plan.achieved == {}

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
        assert a.achieved == b.achieved

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
        bank = _SampleBank(m, plan.search_cap, plan.sample_R, plan.seed)
        rows = bank.values[np.array(plan.indices) - 1].T
        probe = np.concatenate([v for v, _ in m.sample_blocks(
            plan.indices, plan.seed, plan.sample_R)])
        own = np.concatenate([v for v, _ in m.sample_blocks(
            plan.indices, plan.seed, plan.sample_R, first=_BANK_REPLICATIONS)])
        assert np.array_equal(rows, own)
        assert (rows != probe).any(axis=1).mean() > 0.8


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
        for n, eps in plan.thresholds.items():
            assert eps == step_epsilon(n, plan.eps_floor)
        for (j, n, N), v in plan.achieved.items():
            assert abs(v) <= plan.thresholds[n]


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
    predecessor j is monotone or absent, so the maximum is attained at a
    known predecessor; the recorded value is always a genuine inner product
    at that predecessor, re-verifiable by the direct routine.
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

    def max_over_predecessors(self, pred_indices, k, N):
        """Returns (value, j_step) with |value| = max over predecessors;
        the predecessor accepted at step j is ``pred_indices[j - 1]``."""
        if self.kind == "independent":
            # every accepted index has been noted for every grid level
            jstar = self._max_centered[N][1]
            idx = pred_indices[jstar - 1]
            return _reference_inner_product(self.model, idx, k, N, self.D), jstar
        if self.kind == "latent":
            st = len(pred_indices)
            idx = pred_indices[-1]
            return _reference_inner_product(self.model, idx, k, N, self.D), st
        if self.kind == "tailvan":
            # mu_j is monotone in j, so the extremes are at the first and
            # last predecessor
            best = None
            for st in (1, len(pred_indices)):
                v = _reference_inner_product(
                    self.model, pred_indices[st - 1], k, N, self.D)
                if best is None or abs(v) > abs(best[0]):
                    best = (v, st)
            return best
        best = None
        for st, idx in enumerate(pred_indices, 1):
            v = _reference_inner_product(self.model, idx, k, N, self.D)
            if best is None or abs(v) > abs(best[0]):
                best = (v, st)
        return best


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
    positions = ((0, len(pred_indices) - 1) if fast.kind == "tailvan"
                 else range(len(pred_indices)))
    best = None
    for pos in positions:
        v = ip(fast.model, pred_indices[pos], k, N, fast.D)
        if best is None or abs(v) > abs(best[0]):
            best = (v, pred_steps[pos])
    return best


def _reference_greedy(model, target_length, n_grid, D, mode, eps_floor=None,
                      seed=0, R=400, detail_steps=16, min_index=1):
    n_grid = tuple(sorted(int(N) for N in n_grid))
    if eps_floor is None:
        eps_floor = 0.0 if mode == "exact" else 1e-2
    search_cap = min(model.index_cap,
                     min_index - 1 + target_length + 2 * max(n_grid) + 64)
    bank = _reference_bank(model, search_cap, R, seed) if mode == "sample" else None
    fast = _ReferenceFastExact(model, D) if mode == "exact" else None
    indices, thresholds, achieved = [], {}, {}
    for step in range(1, target_length + 1):
        eps = step_epsilon(step, eps_floor)
        thresholds[step] = eps
        levels = admissible_levels(step, n_grid)
        start = max(int(min_index), (indices[-1] + 1) if indices else 1)
        chosen = None
        for k in range(start, search_cap + 1):
            records = {}
            feasible = True
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
        assert chosen is not None, f"reference scan exhausted at step {step}"
        indices.append(chosen)
        if fast is not None:
            fast.note_accept(step, chosen, n_grid)
    return ExtractionPlan(tuple(indices), n_grid, thresholds, achieved, mode,
                          int(seed), float(eps_floor), int(search_cap),
                          int(detail_steps), D.provenance,
                          R if mode == "sample" else 0)


def _reference_verify(plan, model, D):
    bank = None
    if plan.mode == "sample":
        bank = _reference_bank(model, plan.search_cap, plan.sample_R, plan.seed)
    max_diff = 0.0
    violations = []
    for (jstep, nstep, N), stored in plan.achieved.items():
        jidx = plan.indices[jstep - 1]
        kidx = plan.indices[nstep - 1]
        eps = plan.thresholds[nstep]
        if plan.mode == "exact":
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


@pytest.mark.parametrize("name, length, grid, mode, kwargs", [
    ("counterexample", 48, (64, 256), "sample", {"seed": 1}),
    ("counterexample", 48, (64, 256), "sample", {"seed": 2}),
    ("latent-shift", 24, (64, 256), "sample", {"seed": 5, "eps_floor": 2.0}),
    ("counterexample", 512, (64, 256, 1024, 4096), "exact", {}),
    ("example41", 512, (64, 256, 1024, 4096), "exact", {"min_index": 10**12}),
    ("latent-shift", 512, (64, 256, 1024, 4096), "exact", {}),
    ("comonotone", 24, (64, 256), "exact", {"eps_floor": 1e-7}),
    ("iid", 64, (2, 8, 64), "exact", {}),
    ("independent-array", 48, (2, 8, 64), "exact", {"eps_floor": 1e-3}),
], ids=["counterexample-sample-seed1", "counterexample-sample-seed2",
        "latent-shift-sample-conditional", "counterexample-exact",
        "example41-exact", "latent-shift-exact", "example41-comonotone-exact",
        "iid-exact", "independent-array-exact"])
def test_search_matches_scalar_reference(name, length, grid, mode, kwargs):
    m = model_from_spec(_REFERENCE_MODELS[name])
    # the array's means do not settle, so it has no weak-L2 corrector
    D = zero_corrector(grid) if name == "independent-array" \
        else corrector_weak_l2(m, grid)
    if name == "latent-shift":
        assert D.kind == "conditional"
    plan = greedy_extract(m, length, grid, D, mode=mode, **kwargs)
    ref = _reference_greedy(m, length, grid, D, mode, **kwargs)
    assert len(plan.indices) == length
    assert plan.to_json() == ref.to_json()
    assert list(plan.achieved) == list(ref.achieved)
    assert verify_plan(plan, m, D) == _reference_verify(plan, m, D)


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
    plan = ExtractionPlan(indices, grid, {}, pairs, "exact", 0, 0.0, 40, 0,
                          D.provenance)
    fresh = _exact_values(plan, model, D)
    for oracle in (exact_centered_inner_product, _reference_inner_product):
        scalar = np.array([oracle(model, indices[j - 1], indices[n - 1], N, D)
                           for j, n, N in pairs])
        assert np.array_equal(fresh.view(np.int64), scalar.view(np.int64))
    assert np.count_nonzero(fresh) > len(pairs) // 2
