"""Sequence-model behavior: seeded determinism, exact marginal oracles,
agreement between sampling and the closed forms, and the JSON spec loader."""

import functools
import gc
import hashlib
import math
import os
import signal
import sys
import threading
import warnings
import weakref

import mpmath
import numpy as np
import pytest

import wllnlab.models as models_mod
from wllnlab.distributions import FiniteDiscrete, HeavyLogLaw, Pareto1
from wllnlab.models import (
    CapacityError,
    Entries,
    Example41Model,
    IIDModel,
    IndependentArrayModel,
    LatentShiftModel,
    TailVanishingModel,
    dist_from_spec,
    model_from_spec,
)
from wllnlab.streams import Positions
from wllnlab.verify import wilson_interval

from dense import column_reference, dense_blocks
from scalar_reference import comonotone_intervals, overlap_integral

Z999 = 3.2905267314919255  # 99.9% two-sided normal quantile

TWO_POINT = FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)])


def sample_row(model, indices, seed, r=0):
    """Replication r on its own: its values and its factor (None without
    one)."""
    values, factors = next(dense_blocks(model, indices, seed, 1, first=r))
    return values[0], None if factors is None else factors[0]


def sample_prefix(model, length, seed, r=0):
    return sample_row(model, np.arange(1, length + 1), seed, r)


def stacked_blocks(model, indices, seed, R):
    """Replications 0, ..., R - 1 as one (R, n) array and their factors."""
    # a yielded block is valid until the next iteration
    blocks = [(v.copy(), f) for v, f in dense_blocks(model, indices, seed, R)]
    factors = (None if blocks[0][1] is None
               else np.concatenate([f for _, f in blocks]))
    return np.concatenate([v for v, _ in blocks]), factors


def make_models():
    return {
        "iid": IIDModel(Pareto1()),
        "tail_vanishing": TailVanishingModel(Pareto1()),
        "example41": Example41Model(lambda n: 0.5),
        "latent_shift": LatentShiftModel(
            FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]),
            FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)])),
    }


@pytest.mark.parametrize("name", ["iid", "tail_vanishing", "example41",
                                  "latent_shift"])
def test_seeded_determinism(name):
    model = make_models()[name]
    a, fa = sample_prefix(model, 64, 123, 5)
    b, fb = sample_prefix(model, 64, 123, 5)
    assert np.array_equal(a, b)
    assert fa == fb
    c, _ = sample_prefix(model, 64, 123, 6)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", ["iid", "tail_vanishing", "example41",
                                  "latent_shift"])
def test_one_replication_is_a_row_of_its_block(name):
    model = make_models()[name]
    # replication 1 asked for alone is row 1 of replications 0..2
    a, fa = sample_prefix(model, 32, 9, 1)
    block, factors = stacked_blocks(model, np.arange(1, 33), 9, 3)
    assert np.array_equal(a, block[1])
    assert fa == (None if factors is None else factors[1])


def test_capacity_errors():
    m = IIDModel(Pareto1(), index_cap=10)
    with pytest.raises(CapacityError):
        sample_prefix(m, 11, 0)
    with pytest.raises(CapacityError):
        sample_row(m, [5, 11], 0)
    with pytest.raises(CapacityError):
        m.marginal_dist(11)


def test_sample_blocks_rejects_bad_indices():
    m = IIDModel(Pareto1())
    with pytest.raises(ValueError):
        sample_row(m, [3, 2], 0)
    with pytest.raises(ValueError):
        sample_row(m, [0, 1], 0)
    with pytest.raises(ValueError):
        sample_row(m, [], 0)
    with pytest.raises(ValueError):
        sample_row(m, [1, 2], 0, r=-1)
    with pytest.raises(ValueError):
        next(m.sample_blocks([1, 2], 0, 0))


def test_stream_keys_once_per_call(monkeypatch):
    # 2-row chunks, as at the probes' widths: the key chain of all six
    # replications is run once, and the chunks are what one call draws
    calls, keys = [], models_mod._stream_keys
    monkeypatch.setattr(models_mod, "_stream_keys",
                        lambda *a: calls.append(a) or keys(*a))
    m = IIDModel(TWO_POINT)
    idx = np.arange(1, 2**16 + 1)
    blocks = [v.copy() for v, _ in m.sample_blocks(idx, 3, 6, first=2**63)]
    assert [len(v) for v in blocks] == [2, 2, 2]
    assert calls == [(3, 2**63, 2**63 + 6)]
    for r in range(6):
        assert np.array_equal(blocks[r // 2][r % 2],
                              sample_row(m, idx, 3, r=2**63 + r)[0])


class TestTailVanishing:
    def test_zero_g(self):
        m = TailVanishingModel(FiniteDiscrete([(0.0, 1.0)]))
        assert np.array_equal(sample_prefix(m, 5, 1)[0], np.zeros(5))

    def test_exact_mechanism(self):
        # f_n = g * 1{|g| > n}: one g per path, coordinates zeroed in order
        m = TailVanishingModel(Pareto1())
        values, g = sample_prefix(m, 50, 11, 3)
        nz = values != 0.0
        assert set(values[nz]) <= {g}
        for n in range(1, 51):
            expected = g if abs(g) > n else 0.0
            assert values[n - 1] == expected

    def test_entries_leave_out_ties(self):
        # |g| = k gives f_k = 0: the entries sit exactly where |g| > k,
        # in row-major order, also on index sets that do not start at 1
        m = TailVanishingModel(FiniteDiscrete(
            [(3.0, 0.2), (-5.0, 0.2), (7.5, 0.2), (600.0, 0.2), (0.0, 0.2)]))
        for idx in (np.arange(1, 12), np.arange(3, 9), np.array([5, 7, 600])):
            ties = 0
            for chunk, g in m.sample_blocks(idx, 5, 300):
                assert isinstance(chunk, Entries)
                where = np.zeros((len(chunk), len(idx)), dtype=bool)
                where[chunk.row, chunk.col] = True
                assert np.array_equal(where, np.abs(g)[:, None] > idx)
                assert np.array_equal(chunk.val, g[chunk.row])
                assert (np.diff(chunk.row * len(idx) + chunk.col) > 0).all()
                ties += np.count_nonzero(np.abs(g)[:, None] == idx)
            assert ties > 0

    def test_truncated_moment_vanishes_past_level(self):
        m = TailVanishingModel(Pareto1())
        for n, M in [(5, 5.0), (8, 3.0), (100, 100.0)]:
            assert m.marginal_dist(n).trunc_moment(M, 2) == 0.0
        assert m.marginal_dist(2).trunc_moment(10.0, 2) > 0.0

    def test_marginal_survival(self):
        # P(|f_n| > M) = P(|g| > max(M, n)) = 1/max(M, n) here
        m = TailVanishingModel(Pareto1())
        assert m.marginal_dist(4).survival(2.0) == pytest.approx(0.25)
        assert m.marginal_dist(2).survival(8.0) == pytest.approx(0.125)


@pytest.mark.parametrize("law", [
    FiniteDiscrete([(-2.0, 0.3), (0.0, 0.2), (5.0, 0.5)]),
    Pareto1(),
    HeavyLogLaw(0.4),
    TailVanishingModel(FiniteDiscrete([(1.0, 0.8), (10.0, 0.2)]))
    .marginal_dist(5),
], ids=["finite", "pareto1", "heavy_log", "single_draw"])
def test_survival_below_zero_is_one(law):
    # |f| >= 0 > t always, though the single draw is 0 with mass 0.8 here
    for t in (-math.inf, -1.0, -1e-300):
        assert law.survival(t) == 1.0


class TestExample41:
    def test_rho_one_all_zero(self):
        m = Example41Model(lambda n: 1.0)
        assert np.array_equal(sample_prefix(m, 20, 0)[0], np.zeros(20))

    def test_marginal_matches_rho(self):
        m = Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0))
        d = m.marginal_dist(100)
        assert isinstance(d, HeavyLogLaw)
        assert d.rho == pytest.approx(1.0 - 1.0 / math.log(102))

    def test_comonotone_sharing(self):
        # constant rho + shared uniform => all coordinates identical
        m = Example41Model(lambda n: 0.5, joint_law="comonotone")
        values, factor = sample_prefix(m, 16, 4, 2)
        assert len(set(values)) == 1
        assert factor is not None

    def test_deep_index_sampling(self):
        m = Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0),
                           index_cap=10**15)
        idx = np.array([10**12, 10**12 + 1, 10**12 + 2])
        R = 20_000
        values, _ = stacked_blocks(m, idx, 5, R)
        hits = int(np.count_nonzero(np.any(values != 0, axis=1)))
        p_any = 1.0 - (1.0 - m.marginal_dist(10**12).survival(0.0)) ** 3
        lo, hi = wilson_interval(hits, R, z=Z999)
        assert lo <= p_any <= hi


def _comonotone(symmetric):
    return Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0), 10**15,
                          "comonotone", symmetric)


@functools.lru_cache(maxsize=None)
def _survival_mp(N):
    """S(m) = T(m)/T(1) for m = 0..N at 50 digits: T(N) by mpmath.sumem,
    the rest by adding the terms 1/(k^2 log k) on to it."""
    with mpmath.workdps(50):
        t = [mpmath.sumem(lambda k: 1 / (k * k * mpmath.log(k)),
                          [N + 1, mpmath.inf])]
        for k in range(N, 1, -1):
            t.append(t[-1] + 1 / (k * k * mpmath.log(mpmath.mpf(k))))
        return [t[-1] / t[-1]] + [x / t[-1] for x in reversed(t)]


class TestComonotonePairOracle:
    """The pair oracle integrates the partition of y = 1 - u that the
    sampler and the survival oracle read, T(m)/T(1)."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("N", [64, 1024, 4096, 20_000])
    @pytest.mark.parametrize("i", [2, 1000, 10**12])
    def test_diagonal_is_the_truncated_energy(self, i, N, symmetric):
        m = _comonotone(symmetric)
        want = m.marginal_dist(i).trunc_moment(N, 2)
        assert m._comonotone_product(i, i, N) == pytest.approx(
            want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("j, k, N", [(2, 3, 1024), (10, 4000, 1024),
                                         (10**12, 10**12 + 5000, 1024),
                                         (2, 3, 4096)])
    def test_pairs_against_50_digits(self, j, k, N, symmetric):
        # the same integral over the exact breakpoints; the error is taken
        # relative to sqrt(E f_j^2 E f_k^2), the size of the terms summed,
        # since the symmetric law's +m and -m cancel to far below it
        m = _comonotone(symmetric)
        with mpmath.workdps(50):
            want = overlap_integral(*(comonotone_intervals(
                mpmath.mpf(m.rho(i)), _survival_mp(N), symmetric)
                for i in (j, k)))
            err = abs(m._comonotone_product(j, k, N) - want)
        scale = math.sqrt(m.marginal_dist(j).trunc_moment(N, 2)
                          * m.marginal_dist(k).trunc_moment(N, 2))
        assert float(err) <= 1e-11 * scale


class TestLatentShift:
    def test_structure(self):
        m = make_models()["latent_shift"]
        values, factor = sample_prefix(m, 40, 8, 1)
        assert factor in (-1.0, 1.0)
        noise = values - factor
        assert set(np.round(noise, 12)) <= {-3.0, 3.0}

    def test_marginal_is_convolution(self):
        m = make_models()["latent_shift"]
        d = m.marginal_dist(1)
        assert dict(d.atoms) == {-4.0: 0.25, -2.0: 0.25, 2.0: 0.25, 4.0: 0.25}

    def test_conditional_truncated_mean(self):
        m = make_models()["latent_shift"]
        # N large enough that truncation never binds: map b -> b
        cmap = m.weak_l2_centering(10)
        assert cmap == {-1.0: pytest.approx(-1.0), 1.0: pytest.approx(1.0)}
        assert m.factor_law == ((-1.0, 0.5), (1.0, 0.5))
        # N below the essential infimum of |B + eta|: identically 0
        assert m.weak_l2_centering(1.5) == {-1.0: 0.0, 1.0: 0.0}

    @pytest.mark.parametrize("factor, noise", [
        ([(-1.0, 0.5), (1.0, 0.5)], [(-3.0, 0.5), (3.0, 0.5)]),
        ([(-0.7, 0.2), (0.4, 0.3), (2.5, 0.5)],
         [(-1.3, 0.15), (0.0, 0.6), (3.1, 0.25)]),
    ], ids=["demo", "uneven"])
    def test_conditional_moments_average_to_the_marginal(self, factor, noise):
        # sum_z P(z) E(f^order 1{|f| <= N} | Z = z) is the marginal's
        # truncated moment, at levels on, between and past the atoms
        m = LatentShiftModel(FiniteDiscrete(factor), FiniteDiscrete(noise))
        law = m.marginal_dist(1)
        levels = sorted({0.0, 0.1, 10.0, *(abs(v) for v, _ in law.atoms),
                         *(abs(v) + 0.05 for v, _ in law.atoms)})
        for N in levels:
            for order in (1, 2):
                mixed = math.fsum(p * m.conditional_trunc_moment(z, N, order)
                                  for z, p in m.factor_law)
                assert mixed == pytest.approx(law.trunc_moment(N, order),
                                              rel=0, abs=1e-14), (N, order)

    def test_iid_conditional_is_constant(self):
        m = IIDModel(FiniteDiscrete([(3.0, 1.0)]))
        assert m.weak_l2_centering(5) == 3.0
        assert m.factor_law is None


@pytest.mark.parametrize("name", ["iid", "tail_vanishing", "example41",
                                  "latent_shift"])
def test_statistical_consistency(name):
    # empirical tail frequencies vs the exact marginal oracle, R = 1e5,
    # judged by Wilson 99.9% intervals on a small (n, M) grid
    model = make_models()[name]
    R = 100_000
    checks = [(1, 2.0), (3, 2.0), (3, 3.5)]
    if name in ("iid", "example41"):
        # identical independent marginals: one long path gives R draws
        vals, _ = sample_prefix(model, R, 77)
        for _, M in checks:
            lo, hi = wilson_interval(int(np.sum(np.abs(vals) > M)), R, z=Z999)
            assert lo <= model.marginal_dist(1).survival(M) <= hi
        return
    vals, _ = stacked_blocks(model, np.arange(1, 4), 77, R)
    for (n, M) in checks:
        hit = int(np.count_nonzero(np.abs(vals[:, n - 1]) > M))
        lo, hi = wilson_interval(hit, R, z=Z999)
        assert lo <= model.marginal_dist(n).survival(M) <= hi, (n, M)


class TestModelSpecs:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            model_from_spec({"kind": "iid",
                             "params": {"dist": {"family": "pareto1"}},
                             "bogus": 1})
        with pytest.raises(ValueError, match="unknown"):
            model_from_spec({"kind": "iid",
                             "params": {"dist": {"family": "pareto1",
                                                 "shape": 2}}})

    @pytest.mark.parametrize("kind, params", [
        ("iid", {"dist": {"family": "pareto1"}}),
        ("tail_vanishing", {"g": {"family": "pareto1"}})])
    def test_joint_law_only_for_example41(self, kind, params):
        with pytest.raises(ValueError, match="unknown fields.*joint_law"):
            model_from_spec({"kind": kind, "joint_law": "comonotone",
                             "params": params})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_spec({"kind": "markov"})

    def test_heavy_log_and_unknown_families(self):
        d = dist_from_spec({"family": "heavy_log", "rho": 0.25,
                            "symmetric": False})
        assert isinstance(d, HeavyLogLaw)
        assert (d.rho, d.symmetric) == (0.25, False)
        assert dist_from_spec({"family": "heavy_log", "rho": 0.5}).symmetric
        with pytest.raises(ValueError, match="unknown distribution family "
                                             "'lognormal'"):
            dist_from_spec({"family": "lognormal"})
        with pytest.raises(ValueError, match="unknown distribution family"):
            model_from_spec({"kind": "iid", "params": {"dist": {}}})

    def test_rho_families(self):
        m = model_from_spec({"kind": "example41",
                             "params": {"rho": {"family": "constant",
                                                "value": 0.25}}})
        assert m.rho(17) == 0.25
        assert m.rho_tends_to_one is False
        m = model_from_spec({"kind": "example41",
                             "params": {"rho": {"family": "constant",
                                                "value": 1.0}}})
        assert m.rho_tends_to_one is True
        m = model_from_spec({"kind": "example41",
                             "params": {"rho":
                                        {"family": "one-minus-one-over-log"}}})
        assert m.rho(3) == pytest.approx(1.0 - 1.0 / math.log(5))
        assert m.rho_tends_to_one
        m = model_from_spec({"kind": "example41",
                             "params": {"rho": {"family": "explicit",
                                                "values": [0.1, 0.9]}},
                             "index_cap": 2})
        assert m.rho(2) == 0.9
        assert m.rho_tends_to_one is None

    def test_rho_specs_checked_when_parsed(self):
        def ex41(rho, **spec):
            return model_from_spec({"kind": "example41",
                                    "params": {"rho": rho}, **spec})

        # an explicit table caps the indices at its length
        table = {"family": "explicit", "values": [0.5, 0.6, 0.7]}
        assert ex41(table).index_cap == 3
        assert ex41(table, index_cap=2).index_cap == 2
        with pytest.raises(ValueError, match="index_cap"):
            ex41(table, index_cap=4)
        for bad in ({"family": "constant", "value": 1.5},
                    {"family": "explicit", "values": [0.5, -0.2]},
                    {"family": "explicit", "values": []}):
            with pytest.raises(ValueError, match="rho"):
                ex41(bad)


def test_independent_array_cap_checked_when_parsed():
    # like an explicit rho table: a smaller cap drops the laws past it, a
    # larger one is refused
    def array(**spec):
        dists = [{"family": "finite", "atoms": [[float(v), 1.0]]}
                 for v in [1] * 5 + [2] * 5]
        return model_from_spec({"kind": "independent_array",
                                "params": {"dists": dists}, **spec})

    assert array().index_cap == 10
    assert array().weak_l2_centering(4) == 2.0
    capped = array(index_cap=5)
    assert capped.index_cap == 5
    assert capped.weak_l2_centering(4) == 1.0
    with pytest.raises(CapacityError):
        capped.marginal_dist(6)
    with pytest.raises(ValueError, match="index_cap 20 exceeds the 10"):
        array(index_cap=20)


def test_independent_array_marginals():
    dists = [FiniteDiscrete([(0.0, 1.0)]), TWO_POINT]
    m = IndependentArrayModel(dists * 4)
    assert m.index_cap == 8
    assert m.marginal_dist(1).max_abs_value == 0.0
    assert m.marginal_dist(2).max_abs_value == 2.0
    values, _ = sample_prefix(m, 8, 0)
    assert np.all(values[0::2] == 0.0)
    assert set(np.abs(values[1::2])) == {2.0}


def test_independent_array_realizes_one_law_at_a_time(monkeypatch):
    # equal specs share one law object, and the block equals the one
    # realized column by column, each from its own law, over several chunks
    # and a selection where some laws keep one column and others many
    specs = [{"family": "finite", "atoms": [[-2.0, 0.5], [2.0, 0.5]]},
             {"family": "pareto1", "scale": 1.5},
             {"family": "heavy_log", "rho": 0.25, "symmetric": False}]
    distinct = [{"family": "finite", "atoms": [[float(v), 0.5], [-1.0, 0.5]]}
                for v in range(40)]
    dists = [specs[i % 3] for i in range(80)] + distinct
    m = model_from_spec({"kind": "independent_array",
                         "params": {"dists": dists}})
    assert len({id(d) for d in m.dists}) == 3 + len(distinct)
    assert m.dists[0] is m.dists[3] and m.dists[0] is not m.dists[1]
    monkeypatch.setattr(models_mod, "_BLOCK_VALUES", 500)
    for idx in (np.arange(1, 121), np.array([2, 4, 5, 7, 80, 81, 90, 120]),
                np.array([7, 10, 13])):
        block, _ = stacked_blocks(m, idx, 9, 23)
        assert np.array_equal(block, column_reference(m, idx, 9, 23))


# -------------------------------------------------------------------------
# index-addressable sampling: f_k on replication r depends on (seed, r, k)
# only, so any thinning of an index set reads the same values
# -------------------------------------------------------------------------

def stream_models():
    models = make_models()
    models["independent_array"] = IndependentArrayModel(
        [TWO_POINT, Pareto1(), FiniteDiscrete([(0.0, 0.5), (7.0, 0.5)])] * 40)
    models["example41-comonotone"] = Example41Model(
        lambda n: 0.3 + 0.001 * n, joint_law="comonotone")
    return models


SELECTIONS = {"every-2nd": slice(None, None, 2), "every-3rd": slice(None, None, 3),
              "prefix-shift": slice(1, None),
              "scattered": np.array([0, 1, 5, 6, 7, 40, 99, 119])}


@pytest.mark.parametrize("name", sorted(stream_models()))
def test_thinned_equals_sliced(name):
    model = stream_models()[name]
    idx = np.arange(1, 121)
    for r in (0, 3):
        full, full_f = sample_row(model, idx, 21, r)
        for sel in SELECTIONS.values():
            thin, thin_f = sample_row(model, idx[sel], 21, r)
            assert np.array_equal(thin, full[sel])
            assert thin_f == full_f
    values, factors = next(dense_blocks(model, idx, 21, 4, first=2))
    for i, r in enumerate(range(2, 6)):
        row, factor = sample_row(model, idx, 21, r)
        assert np.array_equal(values[i], row)
        assert (factors is None) == (factor is None)
        if factors is not None:
            assert factors[i] == factor


def chunk_models():
    """A model of every kind, and the comonotone coupling."""
    return {**make_models(),
            "independent_array": IndependentArrayModel(
                [Pareto1(), TWO_POINT, HeavyLogLaw(0.5, symmetric=False)] * 40),
            "example41-comonotone": Example41Model(lambda n: 0.5,
                                                   joint_law="comonotone")}


def test_sample_blocks_chunk_the_replications(monkeypatch):
    # chunks refill the call's buffers, so each block is copied as it
    # comes; the factors are the caller's to keep
    idx = np.arange(1, 101)
    for name, model in chunk_models().items():
        whole, whole_f = next(dense_blocks(model, idx, 4, 37))
        with monkeypatch.context() as patch:
            patch.setattr(models_mod, "_BLOCK_VALUES", 300)
            blocks, factors, copies = [], [], []
            for values, f in dense_blocks(model, idx, 4, 37):
                blocks.append(values.copy())
                factors.append(f)
                copies.append(None if f is None else f.copy())
        assert [len(v) for v in blocks] == [3] * 12 + [1], name
        assert np.array_equal(np.concatenate(blocks), whole), name
        if whole_f is None:
            assert factors == [None] * 13, name
        else:
            assert all(np.array_equal(f, c)
                       for f, c in zip(factors, copies)), name
            assert np.array_equal(np.concatenate(factors), whole_f), name


def small_chunks(monkeypatch):
    """Chunks of 3 replications of 100 indices, so R = 37 draws 13 of them,
    12 on the draw-ahead thread."""
    monkeypatch.setattr(models_mod, "_BLOCK_VALUES", 300)


def chunks_of(model, seed, R=37):
    return [(v.copy(), None if f is None else f.copy())
            for v, f in dense_blocks(model, np.arange(1, 101), seed, R)]


def same_chunks(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(va, vb) and (fa is None) == (fb is None)
        and (fa is None or np.array_equal(fa, fb))
        for (va, fa), (vb, fb) in zip(a, b))


def test_close_waits_for_the_draw_in_flight(monkeypatch):
    small_chunks(monkeypatch)
    draw, release, drawn = Positions.draw, threading.Event(), []

    def held(self, keys, out=None, factor=None):
        # the draw ahead is held until the timer releases it
        if threading.current_thread() is not threading.main_thread():
            release.wait(10)
        draw(self, keys, out, factor)
        drawn.append(len(keys))

    model = IIDModel(TWO_POINT)
    with monkeypatch.context() as patch:
        patch.setattr(Positions, "draw", held)
        gen = model.sample_blocks(np.arange(1, 101), 4, 37)
        first = next(gen)[0].copy()
        assert drawn == [3]  # chunk 0 inline; chunk 1 is held
        timer = threading.Timer(0.1, release.set)
        timer.start()
        gen.close()
        assert drawn == [3, 3]
        timer.join(10)
    assert np.array_equal(chunks_of(model, 4)[0][0], first)


def test_draw_ahead_error_reaches_the_caller(monkeypatch):
    small_chunks(monkeypatch)
    draw, threads = Positions.draw, []

    def failing(self, keys, out=None, factor=None):
        threads.append(threading.current_thread())
        if len(threads) == 3:
            raise RuntimeError("draw failed")
        return draw(self, keys, out, factor)

    model = chunk_models()["latent_shift"]
    want = chunks_of(model, 5)
    with monkeypatch.context() as patch:
        patch.setattr(Positions, "draw", failing)
        gen = model.sample_blocks(np.arange(1, 101), 5, 37)
        next(gen)
        next(gen)
        with pytest.raises(RuntimeError, match="draw failed"):
            next(gen)
    assert threads[0] is threading.main_thread()
    assert threads[2] is not threading.main_thread()
    # the failed call's thread has ended; the next call draws on its own
    assert same_chunks(chunks_of(model, 5), want)


def test_interleaved_calls_match_one_at_a_time(monkeypatch):
    small_chunks(monkeypatch)
    models = chunk_models()
    pairs = [("latent_shift", "example41"), ("iid", "iid"),
             ("tail_vanishing", "example41-comonotone")]
    for a, b in pairs:
        alone = chunks_of(models[a], 6), chunks_of(models[b], 7, R=31)
        together = ([], [])
        for (va, fa), (vb, fb) in zip(
                dense_blocks(models[a], np.arange(1, 101), 6, 37),
                dense_blocks(models[b], np.arange(1, 101), 7, 31)):
            together[0].append((va.copy(), None if fa is None else fa.copy()))
            together[1].append((vb.copy(), None if fb is None else fb.copy()))
        assert same_chunks(together[0], alone[0][:len(together[0])]), a
        assert same_chunks(together[1], alone[1]), b


def test_concurrent_callers_share_the_thread(monkeypatch):
    # more callers than cores, switching threads every few microseconds:
    # each call has a draw-ahead thread of its own, and each caller's
    # chunks are its own, however the threads interleave
    small_chunks(monkeypatch)
    models = chunk_models()
    want = {name: chunks_of(m, 9) for name, m in models.items()}
    got = {}

    def run(name):
        got[name] = [chunks_of(models[name], 9) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(name,)) for name in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(same_chunks(c, want[name])
               for name, runs in got.items() for c in runs)
    assert got.keys() == want.keys()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_can_sample(monkeypatch):
    # no thread survives a fork; the child's calls start their own
    small_chunks(monkeypatch)
    model = chunk_models()["example41"]
    want = chunks_of(model, 8)  # draws ahead in this process
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork + threads
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(30)  # a deadlocked child is killed, not waited on
            code = 0 if same_chunks(chunks_of(model, 8), want) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def draw_ahead_threads() -> set:
    return {t for t in threading.enumerate() if t.name == "wllnlab-draw-ahead"}


def test_no_draw_ahead_thread_outlives_its_call(monkeypatch):
    # a call exhausted, one closed after its first chunk and one dropped
    # unclosed: each started a thread of its own, which ends with it
    small_chunks(monkeypatch)
    model = chunk_models()["latent_shift"]
    started = []

    def first_chunk():
        before = draw_ahead_threads()
        gen = model.sample_blocks(np.arange(1, 101), 4, 37)
        next(gen)
        started.append(draw_ahead_threads() - before)
        return gen

    for _ in first_chunk():
        pass
    first_chunk().close()
    first_chunk()
    threads = set().union(*started)
    assert [len(new) for new in started] == [1, 1, 1]
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert not draw_ahead_threads()


def test_collected_generator_ends_its_own_thread(monkeypatch):
    # a generator held only through a reference cycle is collected on its
    # own draw-ahead thread, during a draw: closing it there must not wait
    # for that thread, which ends once the draw returns
    small_chunks(monkeypatch)
    draw, ready, unraisable = Positions.draw, threading.Event(), []

    def collecting(self, keys, out=None, factor=None):
        if threading.current_thread() is not threading.main_thread():
            ready.wait(10)
            gc.collect()
        return draw(self, keys, out, factor)

    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    monkeypatch.setattr(Positions, "draw", collecting)
    gc.disable()  # no collection on this thread
    try:
        before = draw_ahead_threads()
        gen = IIDModel(TWO_POINT).sample_blocks(np.arange(1, 101), 4, 37)
        next(gen)
        (thread,) = draw_ahead_threads() - before
        collected = weakref.ref(gen)
        cycle = [gen]
        cycle.append(cycle)
        del gen, cycle
        ready.set()
        thread.join(10)
    finally:
        gc.enable()
    assert not thread.is_alive()
    assert collected() is None
    assert unraisable == []


def test_sparse_indices_cost_follows_their_count():
    # positions 10^15 apart: one re-position each, not a walk over the span
    import time

    m = model_from_spec({"kind": "example41",
                         "params": {"rho": {"family": "constant", "value": 0.0}},
                         "index_cap": 10**15})
    sparse = [1, 10**12, 10**15 - 1]
    sample_row(m, sparse, 3)
    t0 = time.perf_counter()
    values, _ = sample_row(m, sparse, 3, r=1)
    assert time.perf_counter() - t0 < 0.25
    near, _ = sample_row(m, [10**12 - 1, 10**12, 10**12 + 1], 3, r=1)
    assert values[1] == near[1] != 0.0


def test_vectorised_rho_matches_scalar_rho():
    # the oracles read rho at one index and the sampler at an index array,
    # through one function, so bit for bit; libm's log and numpy's part at
    # index 19,141 of the log family
    deep = np.r_[1:40_001, 10**12:10**12 + 3, 10**15 - 1]
    for rho, idx in (({"family": "constant", "value": 0.25}, [1, 2, 3]),
                     ({"family": "one-minus-one-over-log"}, deep),
                     ({"family": "explicit", "values": [0.1, 0.9, 0.4]},
                      [1, 2, 3])):
        m = model_from_spec({"kind": "example41", "params": {"rho": rho},
                             "index_cap": int(max(idx))})
        idx = np.array(idx)
        assert m.rho_array(idx).tolist() == [m.rho(n) for n in idx.tolist()]
        assert m.pointwise_sup_index(idx) == min(idx.tolist(), key=m.rho)


# sha256 prefixes of sample_blocks output (replications 3..63 at seeds 0, 7
# and 11, on a contiguous and a gapped index set), as the values were
# before the mostly-zero laws' probe chunks came as entries: both
# realizations read one set of draws
SAMPLE_DIGESTS = {
    "iid-finite": "663182e07ef8289d",
    "iid-pareto1": "dd66f915687bb80c",
    "iid-heavy-log": "c70edade163631d6",
    "independent-array": "c75c751e2f398eae",
    "tail-vanishing": "7a14edede7ab0f62",
    "tail-vanishing-ties": "8c3a8fd120e77e23",
    "example41": "9a84b199bb2cc312",
    "example41-one-sided": "b8496abae01bf01e",
    "example41-comonotone": "6696f654dc143079",
    "latent-shift": "b8de2a4f722f2a11",
}

_SIGNS = {"family": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
_HEAVY_LOG_RHO = {"family": "one-minus-one-over-log"}
DIGEST_SPECS = {
    "iid-finite": {"kind": "iid", "params": {"dist": {
        "family": "finite", "atoms": [[-2.0, 0.5], [2.0, 0.5]]}}},
    "iid-pareto1": {"kind": "iid", "params": {"dist": {"family": "pareto1"}}},
    "iid-heavy-log": {"kind": "iid", "params": {"dist": {
        "family": "heavy_log", "rho": 0.25, "symmetric": False}}},
    "independent-array": {"kind": "independent_array", "params": {
        "dists": [_SIGNS, {"family": "pareto1"}] * 3000}},
    "tail-vanishing": {"kind": "tail_vanishing", "params": {"g": {
        "family": "pareto1"}}},
    "tail-vanishing-ties": {"kind": "tail_vanishing", "params": {"g": {
        "family": "finite", "atoms": [[3.0, 0.3], [-5.0, 0.3], [7.5, 0.2],
                                      [600.0, 0.2]]}}},
    "example41": {"kind": "example41", "index_cap": 10**15,
                  "params": {"rho": _HEAVY_LOG_RHO}},
    "example41-one-sided": {"kind": "example41", "index_cap": 10**15,
                            "params": {"rho": _HEAVY_LOG_RHO,
                                       "symmetric": False}},
    "example41-comonotone": {"kind": "example41", "joint_law": "comonotone",
                             "index_cap": 10**15, "params": {"rho": {
                                 "family": "constant", "value": 0.5}}},
    "latent-shift": {"kind": "latent_shift", "params": {
        "factor": _SIGNS, "noise": {"family": "finite",
                                    "atoms": [[-3.0, 0.5], [3.0, 0.5]]}}},
}


@pytest.mark.parametrize("name", sorted(SAMPLE_DIGESTS))
def test_sample_blocks_values_are_pinned(name):
    model = model_from_spec(DIGEST_SPECS[name])
    start = 10**12 if name.startswith("example41") else 1
    digest = hashlib.sha256()
    for idx in (np.arange(start, start + 5000),
                start - 1 + np.cumsum([1, 2, 600, 1, 800, 3, 1000, 2000])):
        for seed in (0, 7, 11):
            for values, factors in dense_blocks(model, idx, seed, 61,
                                                first=3):
                digest.update(values.tobytes())
                if factors is not None:
                    digest.update(factors.tobytes())
    assert digest.hexdigest()[:16] == SAMPLE_DIGESTS[name]
