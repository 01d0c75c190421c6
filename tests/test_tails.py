"""Tail functionals, the exact survival-integral identity, and the
three-valued condition checkers."""

import math
import tracemalloc

import numpy as np
import pytest

from wllnlab.distributions import (
    FiniteDiscrete,
    HeavyLogLaw,
    Pareto1,
    example41_constant_c,
)
from wllnlab.models import (
    CapacityError,
    Example41Model,
    IIDModel,
    IndependentArrayModel,
    LatentShiftModel,
    TailVanishingModel,
)
from wllnlab.tails import (
    MAX_LEVEL,
    build_tail_profile,
    check_energy_vanishing,
    check_feller_necessary,
    check_liminf_condition,
    check_limsup_condition,
    check_weak_l1,
)

M_GRID = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


def ex41(rho=0.5, **kw):
    return Example41Model(lambda n: rho, **kw)


def ex41_log():
    return Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0),
                          rho_tends_to_one=True)


class TestFunctionals:
    def test_tail_vanishing_tau(self):
        # tau_n(M) = M / max(M, n) for the inverse-law g
        m = TailVanishingModel(Pareto1())
        assert 2.0 * m.marginal_dist(4).survival(2.0) == pytest.approx(0.5)
        assert 8.0 * m.marginal_dist(2).survival(8.0) == pytest.approx(1.0)
        assert 10.0 * m.marginal_dist(10).survival(10.0) == pytest.approx(1.0)

    def test_bounded_tau_zero(self):
        m = IIDModel(FiniteDiscrete([(-5.0, 0.5), (5.0, 0.5)]))
        assert 10.0 * m.marginal_dist(1).survival(10.0) == 0.0

    def test_two_point_sigma(self):
        a = 3.0
        m = IIDModel(FiniteDiscrete([(-a, 0.5), (a, 0.5)]))
        for M in (3.0, 7.0, 50.0):
            sigma = m.marginal_dist(1).trunc_moment(M, 2) / M
            assert sigma == pytest.approx(a * a / M)

    def test_example41_sigma_at_4(self):
        c = example41_constant_c()
        want = 0.25 * c * (1 / math.log(2) + 1 / math.log(3) + 1 / math.log(4))
        sigma = ex41(0.5).marginal_dist(1).trunc_moment(4.0, 2) / 4.0
        assert sigma == pytest.approx(want, rel=1e-10)

    def test_rejects_nonpositive_M(self):
        with pytest.raises(ValueError):
            build_tail_profile(ex41(), [0.0, 2.0], [1])
        with pytest.raises(ValueError):
            build_tail_profile(ex41(), [-1.0], [1])

    def test_rejects_levels_past_max(self):
        assert MAX_LEVEL == 1e150  # as documented
        for M in (1e160, math.inf, math.nan):
            with pytest.raises(ValueError, match="1e\\+150"):
                build_tail_profile(ex41(), [2.0, M], [1])


def feller_residuals(model, n, m_grid):
    """sigma_n(M) - [(2/M) int_0^M tau_n - tau_n(M)] for M in m_grid, as
    the tail profile records it."""
    res = build_tail_profile(model, m_grid, [n]).feller_residual
    return [res[(n, float(M))] for M in m_grid]


class TestFellerResidual:
    def test_two_point_hand_computed(self):
        # tau(t) = t below a then 0, so (2/M)(a^2/2) - 0 = a^2/M = sigma(M)
        m = IIDModel(FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)]))
        for r in feller_residuals(m, 1, (2.0, 5.0, 11.0)):
            assert abs(r) <= 1e-12

    def test_zero_law(self):
        m = IIDModel(FiniteDiscrete([(0.0, 1.0)]))
        assert feller_residuals(m, 1, M_GRID) == [0.0] * len(M_GRID)

    @pytest.mark.parametrize("model", [
        IIDModel(Pareto1()),
        ex41(0.25),
        TailVanishingModel(Pareto1()),
    ])
    def test_residual_small_across_models(self, model):
        for n in (1, 3, 9):
            for r in feller_residuals(model, n, M_GRID):
                assert abs(r) <= 1e-9

    @pytest.mark.parametrize("model", [
        IIDModel(FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)])),
        IIDModel(Pareto1()),
        IIDModel(HeavyLogLaw(0.25, symmetric=False)),
        ex41(0.5),
    ], ids=["finite", "pareto1", "heavy_log", "example41"])
    def test_residual_at_the_largest_level(self, model):
        # each law family stays finite and exact up to the legal maximum
        for r in feller_residuals(model, 1, (1e6, MAX_LEVEL)):
            assert abs(r) <= 1e-12


class TestProfile:
    def test_invariant_bounds(self):
        profile = build_tail_profile(ex41_log(), M_GRID, range(1, 17))
        for M in profile.m_grid:
            sigma_sup = max(profile.sigma[(n, M)] for n in profile.n_range)
            for n in profile.n_range:
                assert 0.0 <= profile.tau[(n, M)] <= profile.tau_sup[M] <= M
                assert 0.0 <= profile.sigma[(n, M)] <= sigma_sup <= M

    def test_sigma_sup_integral_bound(self):
        # sigma_n(M) <= (2/M) * int_0^M tau_n(t) dt for every n, so the sup
        # over n is at most (2/M) * int_0^M sup_n tau_n(t) dt
        model = ex41_log()
        profile = build_tail_profile(model, M_GRID, range(1, 17))
        for n in profile.n_range:
            for M in profile.m_grid:
                assert profile.sigma[(n, M)] <= \
                    (2.0 / M) * model.marginal_dist(n).tau_integral(M) + 1e-9

    def test_rows_format(self):
        profile = build_tail_profile(ex41(), [2.0, 4.0], range(1, 3))
        rows = list(profile.rows())
        assert len(rows) == 4
        assert rows[0][:2] == (1, 2.0)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            build_tail_profile(ex41(), [], range(1, 3))
        with pytest.raises(ValueError):
            build_tail_profile(ex41(), [2.0], [])


class TestConditionChecks:
    def test_weak_l1_fails_with_witness(self):
        m = TailVanishingModel(Pareto1())
        profile = build_tail_profile(m, M_GRID, range(1, 17))
        v = check_weak_l1(profile, m)
        assert v.status == "fails"
        assert v.data["limsup_lower_bound"] == 1.0

    def test_weak_l1_holds_on_grid_with_envelope(self):
        m = ex41_log()
        profile = build_tail_profile(m, M_GRID, range(1, 17))
        v = check_weak_l1(profile, m)
        assert v.status == "holds-on-grid"
        assert "log M" in v.witness

    def test_limsup_holds_for_tail_vanishing(self):
        # lim_n tau_n(M) = M * P(|g| > n) -> 0 for every fixed M
        m = TailVanishingModel(Pareto1())
        profile = build_tail_profile(m, M_GRID, range(1, 17))
        assert check_limsup_condition(profile, m).status == "holds"
        assert check_liminf_condition(profile, m).status == "holds"

    def test_iid_liminf_equals_weak_l1(self):
        m = IIDModel(FiniteDiscrete([(-5.0, 0.5), (5.0, 0.5)]))
        profile = build_tail_profile(m, [8.0, 16.0], range(1, 9))
        w = check_weak_l1(profile, m)
        li = check_liminf_condition(profile, m)
        # bounded law: sup and liminf verdicts agree (tau identically 0
        # beyond the support)
        assert w.status in ("holds", "holds-on-grid")
        assert li.status in ("holds", "holds-on-grid", "inconclusive")
        assert profile.tau_sup[8.0] == 0.0

    def test_energy_vanishing_tail_model(self):
        m = TailVanishingModel(Pareto1())
        v = check_energy_vanishing(m, [2.0, 8.0], range(1, 17))
        assert v.status == "holds"

    def test_energy_vanishing_example41(self):
        v = check_energy_vanishing(ex41_log(), [2.0, 8.0], range(1, 33))
        assert v.status == "holds"
        assert "rho_n -> 1" in v.data["per_M"][2.0]["witness"]

    def test_energy_fails_iid_nondegenerate(self):
        m = IIDModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]))
        v = check_energy_vanishing(m, [2.0, 4.0], range(1, 9))
        assert v.status == "fails"


# -------------------------------------------------------------------------
# every verdict branch, pinned by status, witness and data: a model with no
# analytic facts reaches the fallbacks, and the identically distributed
# models read their facts from their one law
# -------------------------------------------------------------------------

def no_facts_model():
    # an atom at 16 carrying mass p: tau(M) = M p below 16, truncated energy
    # 1 - p, positive and distinct per index; no envelope, no positive-limsup
    # witness and no energy witness
    return IndependentArrayModel([FiniteDiscrete([(1.0, 1.0 - p), (16.0, p)])
                                  for p in (0.5, 0.25, 0.125, 0.375)])


class TestVerdictBranches:
    def test_weak_l1_without_facts_is_inconclusive(self):
        m = no_facts_model()
        v = check_weak_l1(build_tail_profile(m, [2.0, 4.0, 8.0], range(1, 5)), m)
        assert (v.status, v.witness) == (
            "inconclusive", "no analytic witness; grid trend only")
        assert v.data == {"first": 1.0, "last": 4.0, "decreasing": False}

    def test_limit_conditions_without_facts_are_inconclusive(self):
        m = no_facts_model()
        short = build_tail_profile(m, [2.0, 8.0], range(1, 4))
        v = check_limsup_condition(short, m)
        assert (v.status, v.witness) == (
            "inconclusive", "index window too short to estimate limsup")
        profile = build_tail_profile(m, [2.0, 8.0], range(1, 5))
        v = check_liminf_condition(profile, m)
        assert (v.status, v.witness) == (
            "inconclusive", "no analytic witness; grid trend only")
        # the liminf over the tail half of the window, indices 3 and 4
        assert v.data == {"first": 0.25, "last": 1.0, "decreasing": False}

    def test_energy_without_witness_is_inconclusive(self):
        v = check_energy_vanishing(no_facts_model(), [2.0, 4.0], range(1, 5))
        assert (v.status, v.witness) == ("inconclusive", "no witness for some M")
        for entry in v.data["per_M"].values():
            assert entry == {"min": 0.5, "witness_indices": [1, 4, 2, 3]}

    def test_iid_facts_come_from_the_law(self):
        bounded = IIDModel(FiniteDiscrete([(-5.0, 0.5), (5.0, 0.5)]))
        profile = build_tail_profile(bounded, [2.0, 8.0, 16.0], range(1, 9))
        witness = "bounded support |X| <= 5: tau(M) = 0 for M >= 5"
        v = check_weak_l1(profile, bounded)
        assert (v.status, v.witness) == ("holds-on-grid", witness)
        assert v.data == {"envelope_at_largest": 0.0, "first": 2.0,
                          "last": 0.0, "decreasing": True}
        v = check_liminf_condition(profile, bounded)
        assert (v.status, v.witness) == ("holds", witness)
        assert v.data == {"estimates": {2.0: 2.0, 8.0: 0.0, 16.0: 0.0}}
        heavy = IIDModel(Pareto1())
        profile = build_tail_profile(heavy, [2.0, 8.0], range(1, 9))
        v = check_weak_l1(profile, heavy)
        assert (v.status, v.witness) == (
            "fails", "M * P(X > M) = 1 for every M >= 1")
        assert check_limsup_condition(profile, heavy).witness == \
            "no analytic witness; grid trend only"


class TestFellerNecessary:
    def test_constant_tail_sum_fails(self):
        # P(|f| > N) = 1/N makes the first sum exactly 1 on every N
        m = IIDModel(Pareto1())
        first, second = check_feller_necessary(m, [4, 16, 64])
        assert first.status == "fails"

    def test_finite_variance_iid(self):
        m = IIDModel(FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)]))
        first, second = check_feller_necessary(m, [4, 16, 64, 256])
        assert first.status == "holds-on-grid"
        assert second.status == "holds-on-grid"
        vals = [second.data["values"][N] for N in (4, 16, 64, 256)]
        assert vals == sorted(vals, reverse=True)

    def test_example41_both_decay(self):
        # the decay is only logarithmic, so the grid must span a few decades
        first, second = check_feller_necessary(ex41(0.5), [64, 1024, 16384])
        assert first.status == "holds-on-grid"
        assert second.status == "holds-on-grid"

    def test_sums_read_one_law_at_a_time(self):
        # the counterexample builds one law per index, and a sum over
        # N = 20,000 of them must not hold them all
        tracemalloc.start()
        try:
            first, second = check_feller_necessary(
                TailVanishingModel(Pareto1()), [20_000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.data["values"] == {20_000: 1.0}
        assert second.data["values"] == {20_000: 0.499975}
        assert peak < 1 << 18

    @pytest.mark.parametrize("model", [
        IIDModel(HeavyLogLaw(0.25, symmetric=False)),
        LatentShiftModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]),
                         FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)])),
    ], ids=["iid-heavy-log", "latent-shift"])
    def test_shared_law_is_read_once_per_level(self, monkeypatch, model):
        # N copies of one value sum, correctly rounded, to N times it, so
        # one read of the law per sum gives the N-term sums bit for bit
        grid, reads, law = [16, 1000, 10**5], [], model.marginal_dist
        monkeypatch.setattr(model, "marginal_dist",
                            lambda n: reads.append(n) or law(n))
        first, second = check_feller_necessary(model, grid)
        assert reads == [N for N in grid for _ in range(2)]  # two sums
        for N in grid:
            dist = law(N)
            assert first.data["values"][N].hex() == \
                math.fsum([dist.survival(N)] * N).hex()
            assert second.data["values"][N].hex() == \
                (math.fsum([dist.trunc_moment(N, 2)] * N) / (N * N)).hex()

    def test_shared_law_keeps_the_index_cap(self):
        model = IIDModel(Pareto1(), index_cap=100)
        with pytest.raises(CapacityError, match="index 101 outside 1..100"):
            check_feller_necessary(model, [16, 101])
