"""Corrector construction: classical formulas, structural weak-L2 limits,
and the |D_N| <= N contract."""

import math

import numpy as np
import pytest

from wllnlab.correctors import (
    CorrectorSeries,
    corrector_independent,
    corrector_weak_l2,
    zero_corrector,
)
from wllnlab.distributions import (
    FiniteDiscrete,
    HeavyLogLaw,
    UnsupportedOracleError,
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
from wllnlab.distributions import Pareto1
from scalar_reference import corrector_second_moment, iid_corrector

N_GRID = (2, 8, 32, 128)


class _NegativeZeroMean(FiniteDiscrete):
    """A symmetric law whose truncated mean is -0.0."""

    def trunc_moment(self, M, order):
        return -0.0 if order == 1 else super().trunc_moment(M, order)

LATENT = LatentShiftModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]),
                          FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)]))


class TestContract:
    def test_clamp_enforced_at_construction(self):
        with pytest.raises(ValueError):
            CorrectorSeries((2,), "constant", {2: 3.0}, "test")
        with pytest.raises(ValueError):
            CorrectorSeries((2,), "conditional", {2: {0.0: 1.0, 1.0: -2.5}},
                            "test")

    def test_every_emitted_series_respects_clamp(self):
        series = [
            zero_corrector(N_GRID),
            iid_corrector(Pareto1(), N_GRID),
            iid_corrector(HeavyLogLaw(0.25, symmetric=False), N_GRID),
            corrector_weak_l2(LATENT, N_GRID),
            corrector_weak_l2(TailVanishingModel(Pareto1()), N_GRID),
        ]
        for D in series:
            for N in D.n_grid:
                if D.kind == "conditional":
                    assert all(abs(v) <= N for v in D.values[N].values())
                else:
                    assert abs(D.values[N]) <= N

    def test_conditional_value_lookup(self):
        D = corrector_weak_l2(LATENT, (8,))
        assert D.realized((8,), [1.0]).tolist() == [[pytest.approx(1.0)]]
        # an atom realized with float round-off still resolves
        assert D.realized((8,), [1.0 + 1e-12]).tolist() == \
            [[pytest.approx(1.0)]]
        # without factors a conditional series has no value: only a model
        # with a finite factor law takes one
        with pytest.raises(UnsupportedOracleError):
            D.realized((8,))
        with pytest.raises(KeyError):
            D.realized((8,), [0.5])

    def test_nan_factor_is_near_no_atom(self):
        # |atom - nan| > tol is False for every atom, so the tolerance test
        # must be phrased as "within", which NaN never is
        D = CorrectorSeries((4,), "conditional", {4: {-1.0: 0.5, 1.0: -0.5}},
                            "test")
        with pytest.raises(KeyError):
            D.realized((4,), [math.nan])
        with pytest.raises(KeyError):
            D.realized((4,), [1.0, math.nan])
        for factor in (0.5, math.inf, -math.inf):
            with pytest.raises(KeyError):
                D.realized((4,), [factor])

    def test_realized_table_matches_value(self):
        # the table lookup resolves each factor to the value given at its
        # nearest atom, round-off included; a level without the factor's
        # atom raises
        D = CorrectorSeries((4, 8), "conditional",
                            {4: {-1.0: 0.5, 1.0: -0.5, 3.0: 2.0},
                             8: {-1.0: 1.5, 1.0: 2.5, 3.0: -7.0}}, "test")
        factors = [-1.0, 1.0 + 1e-12, 3.0, 3.0 - 1e-10, -1.0 - 5e-10, 1.0]
        atoms = [-1.0, 1.0, 3.0, 3.0, -1.0, 1.0]
        expect = [[D.values[N][b] for N in (4, 8)] for b in atoms]
        assert D.realized((4, 8), factors).tolist() == expect
        assert D.realized((8,), factors).tolist() == [[e[1]] for e in expect]
        with pytest.raises(KeyError):
            D.realized((4, 8), [1.0 + 2e-9])
        part = CorrectorSeries((4, 8), "conditional",
                               {4: {-1.0: 0.5, 1.0: -0.5}, 8: {1.0: 2.0}},
                               "test")
        assert part.realized((4, 8), [1.0]).tolist() == [[-0.5, 2.0]]
        assert part.realized((4,), [-1.0]).tolist() == [[0.5]]
        with pytest.raises(KeyError):
            part.realized((4, 8), [-1.0])

    def test_one_table_built_at_construction(self):
        # a row per atom of any level, NaN where a level lacks it; a constant
        # series is one row; is_zero reads the known entries only
        part = CorrectorSeries((4, 8), "conditional",
                               {4: {-1.0: 0.0, 1.0: 0.0}, 8: {1.0: 0.0}},
                               "test")
        assert np.array_equal(part.table, [[0.0, np.nan], [0.0, 0.0]],
                              equal_nan=True)
        assert part.is_zero()
        Z = zero_corrector((2, 8))
        assert Z.table.shape == (1, 2) and Z.is_zero()
        for D in (part, Z):
            assert not D.table.flags.writeable
        with pytest.raises(KeyError):
            Z.realized((2, 16))
        with pytest.raises(KeyError):
            part.realized((16,), [1.0])

    def test_second_moment(self):
        D = corrector_weak_l2(LATENT, (8,))
        assert corrector_second_moment(D, 8, LATENT.factor_law) == \
            pytest.approx(1.0)
        Z = zero_corrector((8,))
        assert corrector_second_moment(Z, 8) == 0.0


class TestClassicalFormulas:
    def test_iid_symmetric_zero(self):
        D = iid_corrector(FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)]), N_GRID)
        assert all(D.values[N] == 0.0 for N in N_GRID)

    def test_iid_point_mass_switch(self):
        D = iid_corrector(FiniteDiscrete([(7.0, 1.0)]), (2, 8))
        assert D.values[2] == 0.0
        assert D.values[8] == 7.0

    def test_iid_heavy_one_sided_series(self):
        rho = 0.25
        D = iid_corrector(HeavyLogLaw(rho, symmetric=False), (16,))
        want = (1 - rho) * 2 * example41_constant_c() * math.fsum(
            1.0 / (k * math.log(k)) for k in range(2, 17))
        assert D.values[16] == pytest.approx(want, rel=1e-10)

    def test_independent_alternating_point_masses(self):
        dists = [FiniteDiscrete([(0.0, 1.0)]), FiniteDiscrete([(7.0, 1.0)])] * 5
        m = IndependentArrayModel(dists)
        D = corrector_independent(m, (10,))
        assert D.values[10] == pytest.approx(3.5)

    @pytest.mark.parametrize("model", [
        IIDModel(HeavyLogLaw(0.25, symmetric=False)),
        LATENT,
        IIDModel(_NegativeZeroMean([(-1.0, 0.5), (1.0, 0.5)])),
    ], ids=["iid-heavy-log", "latent-shift", "negative-zero-mean"])
    def test_independent_reads_a_shared_law_once(self, monkeypatch, model):
        # N copies of one value sum, correctly rounded, to N times it (and
        # fsum turns -0.0 into 0.0): one read per level, bit for bit
        grid, reads, law = (16, 1000, 10**5), [], model.marginal_dist
        monkeypatch.setattr(model, "marginal_dist",
                            lambda n: reads.append(n) or law(n))
        D = corrector_independent(model, grid)
        assert reads == list(grid)
        for N in grid:
            v = law(N).trunc_moment(float(N), 1)
            assert D.values[N].hex() == (math.fsum([v] * N) / N).hex()

    def test_independent_keeps_the_index_cap(self):
        model = IIDModel(Pareto1(), index_cap=100)
        with pytest.raises(CapacityError, match="index 101 outside 1..100"):
            corrector_independent(model, (16, 101))

    def test_independent_reduces_to_iid(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        m = IndependentArrayModel([dist] * 16)
        a = corrector_independent(m, (4, 16))
        b = iid_corrector(dist, (4, 16))
        assert a.values == b.values


class TestWeakL2:
    def test_iid_matches_iid_formula(self):
        dist = FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])
        D = corrector_weak_l2(IIDModel(dist), N_GRID)
        assert D.values == {N: dist.trunc_moment(float(N), 1) for N in N_GRID}

    def test_tail_vanishing_zero(self):
        D = corrector_weak_l2(TailVanishingModel(Pareto1()), N_GRID)
        assert D.is_zero()

    def test_symmetric_example41_zero(self):
        m = Example41Model(lambda n: 0.5)
        assert corrector_weak_l2(m, N_GRID).is_zero()

    def test_one_sided_example41_unsupported(self):
        m = Example41Model(lambda n: 0.5, symmetric=False)
        with pytest.raises(UnsupportedOracleError):
            corrector_weak_l2(m, N_GRID)

    def test_latent_shift_identity_map(self):
        # noise bounded by N - 1, so truncation never binds: map b -> b
        D = corrector_weak_l2(LATENT, (8, 32))
        for N in (8, 32):
            assert D.values[N] == {-1.0: pytest.approx(-1.0),
                                   1.0: pytest.approx(1.0)}

    def test_conditional_second_moment_bound(self):
        # E(D_N^2) <= N * sigma_sup(N)
        D = corrector_weak_l2(LATENT, (8, 32))
        for N in (8, 32):
            bound = LATENT.marginal_dist(1).trunc_moment(float(N), 2)
            assert corrector_second_moment(D, N, LATENT.factor_law) <= \
                bound + 1e-9

    def test_zero_when_energy_vanishes(self):
        # models whose truncated energies have liminf zero get D == 0
        for model in (TailVanishingModel(Pareto1()),
                      Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0))):
            assert corrector_weak_l2(model, N_GRID).is_zero()


def test_serialization_shapes():
    D = corrector_weak_l2(LATENT, (8,))
    js = D.to_json()
    assert js["kind"] == "conditional"
    assert js["series"][0]["table"] == [[-1.0, -1.0], [1.0, 1.0]]
    Z = iid_corrector(Pareto1(), (4,))
    assert Z.to_json()["series"][0]["value"] == pytest.approx(math.log(4.0))


def _reference_weak_l2(model, n_grid) -> CorrectorSeries:
    """Exact weak-L2 limits of the truncated coordinates, where the model
    structure pins them down."""
    n_grid = tuple(int(N) for N in n_grid)
    if isinstance(model, IIDModel):
        values = {N: model.dist.trunc_moment(float(N), 1) for N in n_grid}
        return CorrectorSeries(n_grid, "constant", values, "weak-l2/iid")
    if isinstance(model, TailVanishingModel):
        # truncated moments vanish once the index passes the level, so the
        # weak limit is zero at every level
        series = zero_corrector(n_grid)
        series.provenance = "weak-l2/tail-vanishing"
        return series
    if isinstance(model, Example41Model):
        if model.symmetric:
            series = zero_corrector(n_grid)
            series.provenance = "weak-l2/symmetric-marginals"
            return series
        raise UnsupportedOracleError(
            "one-sided heavy-log marginals have no model-pinned weak-L2 limit")
    if isinstance(model, LatentShiftModel):
        values = {
            N: {b: model.conditional_trunc_moment(b, float(N), 1)
                for b, _ in model.factor_dist.atoms}
            for N in n_grid
        }
        return CorrectorSeries(n_grid, "conditional", values,
                               "weak-l2/conditional-truncated-mean "
                               "(test family: bounded functions of the factor)")
    if isinstance(model, IndependentArrayModel):
        values = {}
        for N in n_grid:
            means = [model.marginal_dist(n).trunc_moment(float(N), 1)
                     for n in range(1, model.index_cap + 1)]
            tail = means[len(means) // 2:]
            if max(tail) - min(tail) > 1e-9:
                raise UnsupportedOracleError(
                    "truncated means do not stabilize over the array")
            values[N] = tail[-1]
        return CorrectorSeries(n_grid, "constant", values,
                               "weak-l2/stabilized-truncated-mean")
    raise UnsupportedOracleError(
        f"model kind {model.kind!r} unsupported for weak-L2 correctors")


# a first half of other laws, then one law: the truncated means stabilize
STABILIZING = IndependentArrayModel(
    [FiniteDiscrete([(7.0, 1.0)])] * 3
    + [FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])] * 5)
ALTERNATING = IndependentArrayModel(
    [FiniteDiscrete([(0.0, 1.0)]), FiniteDiscrete([(7.0, 1.0)])] * 5)


@pytest.mark.parametrize("model", [
    IIDModel(FiniteDiscrete([(1.0, 0.25), (5.0, 0.75)])),
    IIDModel(HeavyLogLaw(0.25, symmetric=False)),
    TailVanishingModel(Pareto1()),
    Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0)),
    LATENT,
    STABILIZING,
], ids=["iid", "iid-one-sided-heavy", "tail-vanishing", "example41-symmetric",
        "latent-shift", "stabilizing-array"])
def test_weak_l2_matches_reference(model):
    grid = (2, 8, 32, 128, 4096)
    assert corrector_weak_l2(model, grid).to_json() == \
        _reference_weak_l2(model, grid).to_json()


@pytest.mark.parametrize("model", [
    Example41Model(lambda n: 0.5, symmetric=False),
    ALTERNATING,
], ids=["example41-one-sided", "non-stabilizing-array"])
def test_weak_l2_unsupported_as_reference(model):
    with pytest.raises(UnsupportedOracleError) as ref:
        _reference_weak_l2(model, N_GRID)
    with pytest.raises(UnsupportedOracleError) as got:
        corrector_weak_l2(model, N_GRID)
    assert str(got.value) == str(ref.value)
