"""Monte Carlo convergence probes: exceedance estimation, the L2/Markov
cross-check, the truncation-gap bound, and hereditary thinning."""

import json
import math
import sys

import numpy as np
import pytest

from wllnlab.correctors import (
    CorrectorSeries,
    corrector_weak_l2,
    zero_corrector,
)
from wllnlab.distributions import FiniteDiscrete, Pareto1
from wllnlab.extract import truncate_array
from wllnlab.models import (
    CapacityError,
    Entries,
    Example41Model,
    IIDModel,
    IndependentArrayModel,
    LatentShiftModel,
    TailVanishingModel,
)
from wllnlab.verify import (
    PATTERNS,
    ProbeInputError,
    ProbePass,
    hereditary_suite,
    truncation_gap_probe,
    wilson_interval,
    wlln_probe,
)
from wllnlab.verify import (
    _Exceedance,
    _Moments,
    _outside_sums,
    _partial_sums,
    _thinning,
)

from dense import dense, dense_blocks
from scalar_reference import iid_corrector

ZERO_MODEL = IIDModel(FiniteDiscrete([(0.0, 1.0)]))

LATENT = LatentShiftModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]),
                          FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)]))


class TestWilson:
    def test_reference_values(self):
        # 85/100 at 95%: the standard textbook Wilson interval
        lo, hi = wilson_interval(85, 100, z=1.959963984540054)
        assert lo == pytest.approx(0.7671, abs=2e-4)
        assert hi == pytest.approx(0.9069, abs=2e-4)

    def test_contains_p_hat_and_clipped(self):
        for k, n in [(0, 50), (50, 50), (7, 19)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)


class TestWllnProbe:
    def test_zero_sequence(self):
        r = wlln_probe(ZERO_MODEL, range(1, 65), zero_corrector((16, 64)),
                       0.25, (16, 64), 200, seed=0)
        assert all(v == 0.0 for v in r.p_hat.values())
        assert r.verdict == "consistent-with-wlln"

    def test_monotone_epsilon(self):
        m = IIDModel(Pareto1())
        D = iid_corrector(Pareto1(), (16, 64))
        grid = (16, 64)
        a = wlln_probe(m, range(1, 65), D, 0.25, grid, 500, seed=4)
        b = wlln_probe(m, range(1, 65), D, 0.75, grid, 500, seed=4)
        for N in grid:
            assert b.p_hat[N] <= a.p_hat[N]

    def test_input_validation(self):
        D = zero_corrector((4,))
        with pytest.raises(ValueError):
            wlln_probe(ZERO_MODEL, [1, 2, 3, 4], D, 0.0, (4,), 10, 0)
        with pytest.raises(ValueError):
            wlln_probe(ZERO_MODEL, [1, 2], D, 0.5, (4,), 10, 0)
        with pytest.raises(ValueError):
            wlln_probe(ZERO_MODEL, [2, 1, 3, 4], D, 0.5, (4,), 10, 0)
        # the L2 standard error needs two replications
        with pytest.raises(ProbeInputError, match="compute_l2"):
            wlln_probe(ZERO_MODEL, [1, 2, 3, 4], D, 0.5, (4,), 1, 0,
                       compute_l2=True)

    def test_indices_are_checked_by_the_model_when_queued(self):
        # one index rule, the model's: an index past its cap is refused
        # when the probe is queued, before any path is sampled
        m = IIDModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]), index_cap=100)
        D = zero_corrector((8, 64))
        paths = ProbePass(m, range(1, 201), 0)
        with pytest.raises(CapacityError):
            paths.wlln(D, 0.25, (8, 64), 10)
        with pytest.raises(CapacityError):
            paths.gap((8, 64), 100)
        with pytest.raises(CapacityError):
            paths.hereditary(D, 0.25, (8, 64), 10)
        assert paths.run() == []
        for bad, match in (([1, 3, 2], "increasing"), ([0, 1], ">= 1"),
                           ([], "empty"), ([1, 2**63], "below 2\\^63"),
                           ([1, 2], "shorter")):
            with pytest.raises(ProbeInputError, match=match):
                ProbePass(m, bad, 0).wlln(D, 0.25, (2, 4) if bad else (1,),
                                          10)

    def test_conditional_corrector_realized_per_path(self):
        # noise averages have std 3/sqrt(N); N must be large for eps = 0.5
        D = corrector_weak_l2(LATENT, (64, 1024))
        r = wlln_probe(LATENT, range(1, 1025), D, 0.5, (64, 1024), 400, seed=2)
        assert r.verdict == "consistent-with-wlln"
        assert r.p_hat[1024] <= 0.05

    def test_wrong_constant_corrector_is_a_violation(self):
        # averages converge to the random factor B in {-1, +1}, so the
        # constant centering 0 misses by 1 almost always: at N = 64 the
        # average is B + 3 (K / 32 - 1) with K ~ Bin(64, 1/2) plus-3 noise
        # draws, and |average| > 1/2 exactly when K >= 27 or K <= 15
        exact = sum(math.comb(64, k) for k in range(65)
                    if k >= 27 or k <= 15) / 2.0**64
        for seed in range(10):
            r = wlln_probe(LATENT, range(1, 65), zero_corrector((4, 64)),
                           0.5, (4, 64), 400, seed=seed)
            lo, hi = r.ci[64]
            assert lo <= exact <= hi, seed
            assert r.verdict == "violation", seed

    def test_report_bytes_reproducible(self):
        args = (LATENT, range(1, 33), corrector_weak_l2(LATENT, (32,)),
                0.5, (32,), 200, 7)
        a = json.dumps(wlln_probe(*args).to_json(), sort_keys=True)
        b = json.dumps(wlln_probe(*args).to_json(), sort_keys=True)
        assert a == b


class TestL2Probe:
    def test_zero_sequence(self):
        r = wlln_probe(ZERO_MODEL, range(1, 17), zero_corrector((16,)), 0.25,
                       (16,), 200, seed=0, compute_l2=True)
        assert r.l2_hat[16] == 0.0
        assert r.markov_ok

    def test_markov_consistency(self):
        dist = FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)])
        m = IIDModel(dist)
        D = iid_corrector(dist, (16, 64))
        r = wlln_probe(m, range(1, 65), D, 0.25, (16, 64), 800, seed=5,
                       compute_l2=True)
        assert r.markov_ok
        # independent coordinates: E(A_N - D_N)^2 = Var(f^t)/N
        var = dist.trunc_moment(64.0, 2)
        assert r.l2_hat[64] == pytest.approx(var / 64, rel=0.2)

    def test_tail_vanishing_l2_small_along_extracted_indices(self):
        # along the greedy plan the indices outrun the truncation levels,
        # so the truncated sums are essentially zero
        from wllnlab.extract import greedy_extract

        m = TailVanishingModel(Pareto1())
        grid = (16, 256)
        D = zero_corrector(grid)
        plan = greedy_extract(m, 256, grid, D, search_cap=1024)
        r = wlln_probe(m, plan.indices, D, 0.25, grid, 500, seed=6,
                       compute_l2=True)
        assert r.l2_hat[256] <= 0.05
        assert r.markov_ok

    def test_moments_match_the_two_pass_formula(self):
        # rows in chunks of many sizes, across blocks: the sum is np.mean's
        # bit for bit when G > 1, the variance np.var(ddof=1)'s within
        # 1e-12 on heavy-tailed rows far from 0, and neither depends on
        # the chunks
        rng = np.random.default_rng(5)
        for G in (1, 2, 6):
            rows = 1e3 + rng.pareto(1.0, size=(1000, G)) ** 2
            var = np.var(rows, axis=0, ddof=1)
            seen = set()
            for sizes in ([1000], [1] * 1000, [2] * 500,
                          [3, 300, 7, 256, 434], [255, 1, 256, 488]):
                moments = _Moments(G)
                for chunk in np.split(rows, np.cumsum(sizes)[:-1]):
                    moments.add(chunk)
                n, total, m2 = moments.moments()
                assert n == 1000
                if G > 1:
                    assert np.array_equal(total / n, np.mean(rows, axis=0))
                assert np.all(np.abs(total / n - np.mean(rows, axis=0))
                              <= 1e-12 * np.mean(rows, axis=0))
                assert np.all(np.abs(m2 / (n - 1) - var) <= 1e-12 * var)
                seen.add((total.tobytes(), m2.tobytes()))
            assert len(seen) == 1, G

    @pytest.mark.parametrize("name", ["counterexample", "example41",
                                      "latent-shift"])
    def test_estimates_match_the_two_pass_formula(self, name):
        # the terms from dense blocks of the same paths, truncated level by
        # level, reduced over all R at once by np.mean and np.std(ddof=1)
        model = demo_model(name)
        grid = (16, 128, 1024)
        idx = np.arange(DEMO_STARTS[name], DEMO_STARTS[name] + grid[-1])
        D = corrector_weak_l2(model, grid)
        R, levels = 601, np.array(grid, dtype=float)
        report = wlln_probe(model, idx, D, 0.25, grid, R, 4, compute_l2=True)
        terms = []
        for vals, factors in dense_blocks(model, idx, 4, R):
            kept = np.column_stack([truncate_array(vals[:, :N], N).sum(axis=1)
                                    for N in grid])
            d = D.realized(grid, factors)
            terms.append(((kept - levels * d) / levels) ** 2)
        sq = np.concatenate(terms)
        se = np.std(sq, axis=0, ddof=1) / math.sqrt(R)
        for N, hat, se in zip(grid, np.mean(sq, axis=0), se):
            assert hat > 0 and se > 0
            assert abs(report.l2_hat[N] - hat) <= 1e-12 * hat, N
            assert abs(report.l2_se[N] - se) <= 1e-12 * se, N

    def test_memory_does_not_grow_with_the_chunks(self, monkeypatch):
        # 200 chunks of 2 replications: what the probe holds once a chunk
        # is reduced does not grow with the chunks reduced before it
        import tracemalloc

        import wllnlab.models as models_mod

        monkeypatch.setattr(models_mod, "_BLOCK_VALUES", 2 * 512)
        grid = (8, 32, 64, 128, 256, 512)
        D = corrector_weak_l2(LATENT, grid)
        # the sizes go into a preallocated array, which does not grow
        add, held, done = _Exceedance.add, np.zeros(200, dtype=np.int64), [0]

        def traced(self, vals, factors):
            add(self, vals, factors)
            held[done[0]] = tracemalloc.get_traced_memory()[0]
            done[0] += 1

        monkeypatch.setattr(_Exceedance, "add", traced)
        tracemalloc.start()
        try:
            wlln_probe(LATENT, range(1, 513), D, 0.5, grid, 400, 1,
                       compute_l2=True)
        finally:
            tracemalloc.stop()
        assert done == [200]
        # a (2, 6) array of terms kept per chunk would add 20 KiB
        assert held[100:].max() - held[10:100].max() < 2048, held


class TestTruncationGap:
    def test_bounded_model_exact_zero(self):
        m = IIDModel(FiniteDiscrete([(-5.0, 0.5), (5.0, 0.5)]))
        g = truncation_gap_probe(m, range(1, 33), (8, 32), 200, seed=0)
        assert all(v == 0.0 for v in g.p_hat.values())
        assert g.dominated

    def test_tail_vanishing_dominated(self):
        m = TailVanishingModel(Pareto1())
        g = truncation_gap_probe(m, range(1, 65), (16, 64), 400, seed=1)
        assert g.dominated
        # union bound for f_n = g 1{|g|>n}: N * P(|g| > N) = 1 here
        assert g.union_bound[16] == pytest.approx(1.0)

    def test_union_bound_vs_product_form(self):
        # independent coordinates: P(any exceeds) = 1 - prod(1 - p_n) <= sum p_n
        m = IIDModel(Pareto1())
        for N in (8, 32):
            p = [m.marginal_dist(n).survival(float(N)) for n in range(1, N + 1)]
            exact_union = 1.0 - math.prod(1.0 - q for q in p)
            assert exact_union <= math.fsum(p) + 1e-12

    def test_requires_replications(self):
        with pytest.raises(ValueError):
            truncation_gap_probe(ZERO_MODEL, range(1, 9), (8,), 50, seed=0)


def thin_indices(indices, pattern, seed=0):
    """The indices that ``pattern`` keeps."""
    idx = np.asarray(indices)
    return idx[_thinning(len(idx), pattern, seed)]


class TestThinning:
    def test_patterns(self):
        idx = np.arange(1, 13)
        assert np.array_equal(thin_indices(idx, "every-2nd"), idx[::2])
        assert np.array_equal(thin_indices(idx, "every-3rd"), idx[::3])
        assert np.array_equal(thin_indices(idx, "prefix-shift"), idx[1:])
        kept = thin_indices(idx, "random-thinning", seed=3)
        assert 1 <= len(kept) <= 12
        assert kept[0] == 1
        assert np.array_equal(kept, thin_indices(idx, "random-thinning", seed=3))

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            thin_indices([1, 2], "every-5th")


def alternating_block_model(switch=16, length=190):
    # f_n = 0 for n <= switch, then (-1)^n: full-sequence averages cancel
    # in pairs, but the every-2nd subsequence is eventually constant -1
    zero = FiniteDiscrete([(0.0, 1.0)])
    minus = FiniteDiscrete([(-1.0, 1.0)])
    plus = FiniteDiscrete([(1.0, 1.0)])
    dists = [zero if n <= switch else (minus if n % 2 else plus)
             for n in range(1, length + 1)]
    return IndependentArrayModel(dists)


class TestHereditary:
    def test_zero_sequence_all_pass(self):
        suite = hereditary_suite(ZERO_MODEL, range(1, 129),
                                 zero_corrector((16, 64)), 0.25, (16, 64),
                                 100, seed=0)
        assert suite.all_consistent
        assert set(suite.reports) == set(PATTERNS)

    def test_grid_truncation_noted(self):
        suite = hereditary_suite(ZERO_MODEL, range(1, 65),
                                 zero_corrector((16, 64)), 0.25, (16, 64),
                                 100, seed=0)
        assert any("grid truncated" in note for note in suite.notes)

    def test_non_hereditary_control_detected(self):
        # the full sequence passes but every-2nd must come out as a violation
        m = alternating_block_model()
        D = zero_corrector((8, 32))
        full = wlln_probe(m, range(1, 65), D, 0.5, (8, 32), 100, seed=0)
        assert full.verdict == "consistent-with-wlln"
        suite = hereditary_suite(m, range(1, 65), D, 0.5, (8, 32), 100,
                                 seed=0)
        assert suite.reports["every-2nd"].verdict == "violation"
        assert not suite.all_consistent

    def test_input_checks_come_before_any_pattern(self):
        # a bad epsilon is reported even when no pattern would have run,
        # and a suite that would run nothing is an input error
        D = zero_corrector((64,))
        with pytest.raises(ProbeInputError, match="epsilon"):
            hereditary_suite(ZERO_MODEL, range(1, 4), D, -1.0, (64,), 10, 0)
        with pytest.raises(ProbeInputError, match="no thinning pattern"):
            hereditary_suite(ZERO_MODEL, range(1, 4), D, 0.25, (64,), 10, 0)
        with pytest.raises(ProbeInputError, match="increasing"):
            hereditary_suite(ZERO_MODEL, [3, 2, 1], D, 0.25, (1,), 10, 0)

    def test_latent_shift_hereditary_with_conditional_corrector(self):
        # indices long enough that every-3rd thinning still covers the grid
        D = corrector_weak_l2(LATENT, (64, 512))
        suite = hereditary_suite(LATENT, range(1, 2049), D, 0.5, (64, 512),
                                 200, seed=1)
        assert suite.all_consistent


# -------------------------------------------------------------------------
# one block loop: thinning reads columns of the sampled block, chunking and
# the dominating-index shortcut change nothing
# -------------------------------------------------------------------------

def demo_model(name, **params):
    """The demo's model, with ``params`` replacing some of its parameters."""
    from wllnlab.cli import _DEMOS
    from wllnlab.models import model_from_spec

    spec = _DEMOS[name]["model"]
    return model_from_spec({**spec, "params": {**spec["params"], **params}})


DEMO_STARTS = {"counterexample": 1, "example41": 10**12, "latent-shift": 1}


@pytest.mark.parametrize("name", sorted(DEMO_STARTS))
def test_hereditary_patterns_are_subsequences_of_one_block(name):
    model = demo_model(name)
    idx = np.arange(DEMO_STARTS[name], DEMO_STARTS[name] + 1536)
    grid = (64, 512)
    D = corrector_weak_l2(model, grid)
    suite = hereditary_suite(model, idx, D, 0.5, grid, 100, seed=3)
    assert set(suite.reports) == set(PATTERNS)
    for pattern in PATTERNS:
        direct = wlln_probe(model, thin_indices(idx, pattern, seed=3), D, 0.5,
                            grid, 100, seed=3)
        assert suite.reports[pattern].to_json() == direct.to_json(), pattern


@pytest.mark.parametrize("name", sorted(DEMO_STARTS))
def test_chunk_budget_does_not_change_reports(monkeypatch, name):
    import wllnlab.models as models_mod

    model = demo_model(name)
    idx = np.arange(DEMO_STARTS[name], DEMO_STARTS[name] + 1024)
    grid = (16, 128, 1024)
    D = corrector_weak_l2(model, grid)

    def reports():
        return (wlln_probe(model, idx, D, 0.25, grid, 150, 8,
                           compute_l2=True).to_json(),
                truncation_gap_probe(model, idx, grid, 150, 8).to_json(),
                hereditary_suite(model, idx, D, 0.25, (16, 128), 150,
                                 8).to_json())

    default = reports()
    monkeypatch.setattr(models_mod, "_BLOCK_VALUES", 3000)
    assert reports() == default


def test_probe_memory_is_fixed_in_R_and_N():
    import tracemalloc

    grid = (64, 256, 1024, 4096, 16384, 65536)
    for name, start in sorted(DEMO_STARTS.items()):
        model = demo_model(name)
        idx = np.arange(start, start + grid[-1])
        D = corrector_weak_l2(model, grid)
        probes = {
            "wlln": lambda: wlln_probe(model, idx, D, 0.5, grid, 500, 1),
            "gap": lambda: truncation_gap_probe(model, idx, grid, 125, 1),
            "hereditary": lambda: hereditary_suite(model, idx, D, 0.5,
                                                   grid[:-1], 125, 1)}
        for kind, probe in probes.items():
            tracemalloc.start()
            try:
                report = probe()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if (name, kind) == ("latent-shift", "wlln"):
                assert report.verdict == "consistent-with-wlln"
            # one (500, 65536) block of doubles would take 250 MiB; a
            # probe holds a 2^17-value chunk of uniforms, one of values
            # and the kernels' scratch, and peaks at 1.7-4.2 MiB
            assert peak < 6 * 2**20, (name, kind, peak)


def test_entries_of_a_law_without_zeros_take_16_bytes_a_value():
    # every value of this single draw is non-zero, so a 2 x 65,536 chunk
    # is 131,072 entries: int32 rows and columns and a double each peak
    # at 4.2 MiB traced, 4.8 MiB with int64 rows and columns
    import tracemalloc

    model = TailVanishingModel(FiniteDiscrete([(-1e6, 0.5), (1e6, 0.5)]))
    grid = (64, 256, 1024, 4096, 16384, 65536)
    idx = np.arange(1, grid[-1] + 1)
    chunk, _ = next(model.sample_blocks(idx, 3, 50))
    assert len(chunk.val) == 2 * grid[-1]
    assert chunk.row.dtype == chunk.col.dtype == np.int32
    D = zero_corrector(grid)
    tracemalloc.start()
    try:
        wlln_probe(model, idx, D, 0.25, grid, 50, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the process's minor page faults")
def test_probe_faults_do_not_grow_with_R():
    # ten times the replications are 180 more chunks of 2 x 65,536
    # values; a chunk whose 2 MiB of buffers came back from the kernel
    # afresh would fault 512 pages in again
    import resource

    grid = (64, 4096, 65536)
    D = corrector_weak_l2(LATENT, grid)

    def faults(R):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wlln_probe(LATENT, range(1, 65537), D, 0.5, grid, R, 1)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(40)
    assert faults(400) - faults(40) < 2000


@pytest.mark.parametrize("name", sorted(DEMO_STARTS))
def test_union_bound_equals_the_oracle_loop(name):
    model = demo_model(name)
    idx = np.arange(DEMO_STARTS[name], DEMO_STARTS[name] + 4096)
    grid = (64, 256, 1024, 4096)
    gap = truncation_gap_probe(model, idx, grid, 100, seed=0)
    for N in grid:
        loop = N * max(model.marginal_dist(int(k)).survival(float(N))
                       for k in idx[:N])
        assert gap.union_bound[N] == loop


def test_union_bound_falls_back_without_a_dominating_index():
    m = alternating_block_model()
    gap = truncation_gap_probe(m, range(1, 65), (8, 32), 100, seed=0)
    assert m.pointwise_sup_index(range(1, 9)) is None
    assert gap.union_bound == {8: 0.0, 32: 0.0}


# -------------------------------------------------------------------------
# outside sums: read from the entries past the smallest level, they equal
# the partial sums minus the masked truncated sums
# -------------------------------------------------------------------------

def _reference_outside_sums(vals, grid):
    """S_N - T_N over the first N columns: the partial sums minus the sums
    of f 1{|f| <= N}, one masked copy of the chunk per level."""
    truncated = np.column_stack([truncate_array(vals[:, :N], N).sum(axis=1)
                                 for N in grid])
    return _partial_sums(vals, grid) - truncated


OUTSIDE_GRID = (16, 64, 256)
# integer-valued laws, whose sums are exact in any order; the last law has
# atoms on the levels 16 and 256, which lie inside their bands
INTEGER_LAWS = {
    "example41": lambda: demo_model("example41"),
    "example41-one-sided": lambda: demo_model("example41", symmetric=False),
    "latent-shift": lambda: demo_model("latent-shift"),
    "iid-100": lambda: IIDModel(FiniteDiscrete([(-100.0, 0.5),
                                                (100.0, 0.5)])),
    "iid-on-levels": lambda: IIDModel(FiniteDiscrete(
        [(-256.0, 0.1), (-100.0, 0.1), (16.0, 0.1), (64.0, 0.1),
         (300.0, 0.1), (0.0, 0.5)])),
}


def _chunks(model, start, width):
    """64 replications of ``width`` columns: the first 256 as a view of the
    wider chunk, and a chunk of exactly 256 columns."""
    idx = np.arange(start, start + width)
    wide = next(dense_blocks(model, idx, 3, 64))[0].copy()
    exact = next(dense_blocks(model, idx[:256], 3, 64))[0].copy()
    return wide[:, :256], exact


def test_outside_sums_equal_the_masked_reference_bit_for_bit():
    seen = dict.fromkeys(("negative", "row without", "on a level", "all past",
                          "narrow view"), False)
    for name, make in INTEGER_LAWS.items():
        start = 10**12 if name.startswith("example41") else 1
        for vals in _chunks(make(), start, 300):
            got = _outside_sums(vals, OUTSIDE_GRID)
            ref = _reference_outside_sums(vals, OUTSIDE_GRID)
            assert got.tobytes() == ref.tobytes(), name
            past = np.abs(vals) > OUTSIDE_GRID[0]
            seen["negative"] |= bool((vals < -OUTSIDE_GRID[0]).any())
            seen["row without"] |= bool((~past.any(axis=1)).any())
            seen["on a level"] |= bool(np.isin(np.abs(vals),
                                               OUTSIDE_GRID).any())
            seen["all past"] |= bool(past.all())
            seen["narrow view"] |= not vals.flags.c_contiguous
    assert all(seen.values()), seen


def test_outside_sums_on_pareto_values_within_round_off():
    model = TailVanishingModel(Pareto1())
    for vals in _chunks(model, 1, 300):
        got = _outside_sums(vals, OUTSIDE_GRID)
        ref = _reference_outside_sums(vals, OUTSIDE_GRID)
        scale = np.column_stack([np.abs(vals[:, :N]).sum(axis=1)
                                 for N in OUTSIDE_GRID])
        assert (got != 0).any()
        assert np.all(np.abs(got - ref) <= 1e-12 * scale)


def test_corrector_table_is_built_once_per_probe(monkeypatch):
    # the series builds its table at construction: a probe reads it through
    # ``realized`` once per chunk (13 chunks at R = 400, 2 at R = 40)
    calls = []
    realized = CorrectorSeries.realized

    def counted(self, *args, **kwargs):
        calls.append("realized")
        return realized(self, *args, **kwargs)

    monkeypatch.setattr(CorrectorSeries, "realized", counted)
    grid = (64, 1024, 4096)

    def lookups(R):
        D = corrector_weak_l2(LATENT, grid)
        calls.clear()
        wlln_probe(LATENT, range(1, 4097), D, 0.5, grid, R, 1,
                   compute_l2=True)
        return len(calls)

    assert lookups(40) == 2
    assert lookups(400) == 13


# -------------------------------------------------------------------------
# mostly-zero laws: the probes reduce their chunks' non-zero entries, with
# the reports of the dense blocks those entries make
# -------------------------------------------------------------------------

class _Densified:
    """``model`` with its chunks written out as dense blocks, so that
    ``ProbePass`` reduces them on the dense path."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        return getattr(self.model, name)

    def sample_blocks(self, indices, seed, R):
        for chunk, factors in self.model.sample_blocks(indices, seed, R):
            assert isinstance(chunk, Entries)
            yield dense(chunk, len(indices)), factors


MOSTLY_ZERO_LAWS = {
    "counterexample": lambda: demo_model("counterexample"),
    "example41": lambda: demo_model("example41"),
    "example41-one-sided": lambda: demo_model("example41", symmetric=False),
    "example41-comonotone": lambda: Example41Model(
        lambda n: 1.0 - 1.0 / math.log(n + 2), 10**15, "comonotone",
        rho_vec=lambda idx: 1.0 - 1.0 / np.log(idx + 2.0)),
}
ENTRY_GRID = (16, 128, 1024, 4096)


def _entry_index_sets(name):
    """Contiguous indices and a plan-like set with gaps past 512."""
    start = 1 if name == "counterexample" else 10**12
    gaps = np.where(np.arange(ENTRY_GRID[-1]) % 64 == 5, 700, 1)
    gaps[0] = 0
    return np.arange(start, start + ENTRY_GRID[-1]), start + np.cumsum(gaps)


def _entry_pass(model, idx, seed):
    """Every probe on one pass: R = 301 is 9 chunks of 32 rows and 13, and
    the side probes stop inside the fifth chunk."""
    D = zero_corrector(ENTRY_GRID)
    return ProbePass(model, idx, seed).wlln(
        D, 0.25, ENTRY_GRID, 301, compute_l2=True).gap(
        ENTRY_GRID, 150, 0.25).hereditary(
        D, 0.25, ENTRY_GRID[:-1], 150, PATTERNS).run()


@pytest.mark.parametrize("name", sorted(MOSTLY_ZERO_LAWS))
def test_entries_give_the_dense_reports(name):
    model = MOSTLY_ZERO_LAWS[name]()
    for idx in _entry_index_sets(name):
        for seed in (1, 2, 3):
            dense = _entry_pass(_Densified(model), idx, seed)
            entries = _entry_pass(model, idx, seed)
            (wd, gd, hd), (we, ge, he) = dense, entries
            assert (wd.p_hat, wd.ci, wd.verdict, wd.markov_ok) == \
                (we.p_hat, we.ci, we.verdict, we.markov_ok)
            assert gd.to_json() == ge.to_json()
            assert hd.to_json() == he.to_json()
            assert set(he.reports) == set(PATTERNS)
            for N in ENTRY_GRID:
                for a, b in ((wd.l2_hat[N], we.l2_hat[N]),
                             (wd.l2_se[N], we.l2_se[N])):
                    if name == "counterexample":
                        # segment sums by bincount, not reduceat: the sums
                        # of non-integers may differ in their last bits
                        assert abs(a - b) <= 1e-12 * abs(a)
                    else:
                        assert a == b


def _demo_probe_peak(name) -> int:
    """The traced peak of the demo law's probe at R = 500 to N = 65,536."""
    import tracemalloc

    grid = (64, 256, 1024, 4096, 16384, 65536)
    model = demo_model(name)
    idx = np.arange(DEMO_STARTS[name], DEMO_STARTS[name] + grid[-1])
    D = corrector_weak_l2(model, grid)
    tracemalloc.start()
    try:
        wlln_probe(model, idx, D, 0.25, grid, 500, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["counterexample", "example41"])
def test_entries_stay_within_the_chunk_budget(name):
    from wllnlab.models import _BLOCK_VALUES

    peak = _demo_probe_peak(name)
    # a dense chunk's budget: two slots of doubles, a bool mask and an intp
    # index per value (3.125 MiB); the peaks are about 1.6 and 2.9 MiB
    assert peak <= (2 * 8 + 1 + 8) * _BLOCK_VALUES, peak


def test_single_draw_probe_holds_no_values_block():
    # the single draw realizes each chunk from its factor column, so no 1 MiB
    # (B, n) values buffer is allocated: about 0.6 MiB, 1.6 with one
    peak = _demo_probe_peak("counterexample")
    assert peak < 1 << 20, peak
