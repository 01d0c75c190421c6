"""Acceptance suite: one test per release criterion, with the tolerances
spelled out inline.  Each test stands alone as a pass/fail statement about
the whole pipeline at desk scale."""

import json
import math
import os

import numpy as np
import pytest

from wllnlab.cli import main as cli_main
from wllnlab.correctors import (
    corrector_independent,
    corrector_weak_l2,
    zero_corrector,
)
from wllnlab.distributions import (
    FiniteDiscrete,
    HeavyLogLaw,
    Pareto1,
    example41_constant_c,
)
from wllnlab.extract import greedy_extract, verify_plan
from wllnlab.models import (
    Example41Model,
    IIDModel,
    LatentShiftModel,
    TailVanishingModel,
)
from wllnlab.tails import (
    build_tail_profile,
    check_energy_vanishing,
    check_limsup_condition,
    check_weak_l1,
)
from wllnlab.verify import (
    PATTERNS,
    _thinning,
    truncation_gap_probe,
    wlln_probe,
)
from scalar_reference import (
    check_plan_subsequence,
    corrector_second_moment,
    iid_corrector,
    sum_of_squares_check,
)

SEED = 2026
R_FULL = 2000
N_GRID = (64, 256, 1024, 4096)

# normalizer of the heavy-log integer law, frozen from direct series
# summation with an exponential-integral remainder (abs error < 1e-12)
C_FROZEN = 0.8257341175495516


def latent_model():
    return LatentShiftModel(FiniteDiscrete([(-1.0, 0.5), (1.0, 0.5)]),
                            FiniteDiscrete([(-3.0, 0.5), (3.0, 0.5)]))


@pytest.fixture(scope="module")
def counterexample_pipeline():
    model = TailVanishingModel(Pareto1())
    D = zero_corrector(N_GRID)
    plan = greedy_extract(model, max(N_GRID), N_GRID, D, seed=SEED)
    return model, D, plan


@pytest.fixture(scope="module")
def example41_pipeline():
    model = Example41Model(lambda n: 1.0 - 1.0 / np.log(n + 2.0),
                           index_cap=10**15, rho_tends_to_one=True)
    D = corrector_weak_l2(model, N_GRID)
    plan = greedy_extract(model, max(N_GRID), N_GRID, D, seed=SEED,
                          min_index=10**12)
    return model, D, plan


@pytest.fixture(scope="module")
def latent_pipeline():
    model = latent_model()
    D = corrector_weak_l2(model, N_GRID)
    plan = greedy_extract(model, max(N_GRID), N_GRID, D, seed=SEED)
    return model, D, plan


def test_criterion_1_survival_integral_identity():
    """|residual| <= 1e-9 on 20 randomized discrete laws (<= 12 atoms)
    x 16 M-grid points; exact integral vs 1e6-step Riemann to 1e-5."""
    rng = np.random.default_rng(99)
    m_grid = np.linspace(0.5, 24.0, 16)
    for trial in range(20):
        n_atoms = int(rng.integers(1, 13))
        vals = rng.uniform(-20, 20, size=n_atoms)
        probs = rng.dirichlet(np.ones(n_atoms))
        dist = FiniteDiscrete(list(zip(vals, probs)))
        profile = build_tail_profile(IIDModel(dist), m_grid, [1])
        for M in m_grid:
            assert abs(profile.feller_residual[(1, float(M))]) <= 1e-9

        # independent Riemann cross-check of the piecewise integral, built
        # directly from the atom list; the 1e6-step partition is aligned
        # with the survival jump points so the midpoint rule has no
        # discontinuity error
        M = float(m_grid[-1])
        a = np.abs(np.asarray(vals))
        pts = np.sort(np.concatenate([np.linspace(0.0, M, 1_000_001),
                                      a[a < M]]))
        mids = (pts[:-1] + pts[1:]) / 2.0
        surv = (probs[None, :] * (a[None, :] > mids[:, None])).sum(axis=1)
        riemann = float(np.sum(mids * surv * np.diff(pts)))
        assert dist.tau_integral(M) == pytest.approx(riemann, abs=1e-5)


def test_criterion_2_bound_chain():
    """Truncated-moment bound chain to 1e-9 on the heavy-log (rho = 0.5)
    and tail-vanishing models, N in {2, 4, ..., 256}."""
    models = [Example41Model(lambda n: 0.5), TailVanishingModel(Pareto1())]
    grid = [2 ** k for k in range(1, 9)]
    for model in models:
        D = corrector_weak_l2(model, grid)
        for N in grid:
            window = range(1, N + 1)
            profile = build_tail_profile(model, [float(N)], window)
            M = float(N)
            # sigma_n(M) <= (2/M) int_0^M tau_n for every n, hence
            # sigma_sup(M) <= (2/M) int_0^M tau_sup
            for n in window:
                assert profile.sigma[(n, M)] <= (2.0 / M) * \
                    model.marginal_dist(n).tau_integral(M) + 1e-9
            sigma_sup = max(profile.sigma[(n, M)] for n in window)
            # E(f^2 1{|f|<=M}) = M sigma_n(M) <= M sigma_sup(M)
            for n in (1, N):
                t2 = model.marginal_dist(n).trunc_moment(M, 2)
                assert t2 == pytest.approx(M * profile.sigma[(n, M)], abs=1e-9)
                assert t2 <= M * sigma_sup + 1e-9
            # E(D_N^2) <= N sigma_sup(N)
            assert corrector_second_moment(D, N) <= N * sigma_sup + 1e-9
            # sum-of-squares splits
            assert sum_of_squares_check(model, D, N, window)["ok"]


def test_criterion_3_corrector_contract():
    """Every corrector the pipeline builds (zero, iid truncated mean,
    independent average, weak-L2 constant and conditional) satisfies
    |D_N| <= N exactly; symmetric marginals give exactly zero."""
    grid = (2, 8, 32, 128)
    emitted = [
        zero_corrector(grid),
        iid_corrector(Pareto1(), grid),
        iid_corrector(HeavyLogLaw(0.25, symmetric=False), grid),
        corrector_independent(IIDModel(Pareto1()), grid),
        corrector_weak_l2(IIDModel(Pareto1()), grid),
        corrector_weak_l2(TailVanishingModel(Pareto1()), grid),
        corrector_weak_l2(latent_model(), grid),
    ]
    for D in emitted:
        for N in D.n_grid:
            values = (D.values[N].values() if D.kind == "conditional"
                      else [D.values[N]])
            assert all(abs(v) <= N for v in values), D.provenance
    for dist in (FiniteDiscrete([(-2.0, 0.5), (2.0, 0.5)]),
                 HeavyLogLaw(0.5, symmetric=True)):
        D = iid_corrector(dist, grid)
        assert all(D.values[N] == 0.0 for N in grid)
        assert corrector_weak_l2(IIDModel(dist), grid).is_zero()


def test_criterion_4_counterexample_pipeline(counterexample_pipeline):
    """Inverse-law tails: sup-form condition fails with witness tau == 1,
    limit-form holds, truncated energies vanish, and the zero-corrector
    average still converges: final p_hat(0.25) < 0.05 at N = 4096,
    R = 2000."""
    model, D, plan = counterexample_pipeline
    m_grid = [2.0, 8.0, 32.0, 128.0]
    profile = build_tail_profile(model, m_grid, range(1, 17))

    weak = check_weak_l1(profile, model)
    assert weak.status == "fails"
    assert weak.data["limsup_lower_bound"] == 1.0

    limsup = check_limsup_condition(profile, model)
    assert limsup.status == "holds"
    assert "P(|g| > n)" in limsup.witness

    assert check_energy_vanishing(model, m_grid, range(1, 17)).status == "holds"

    report = wlln_probe(model, plan.indices, D, 0.25, N_GRID, R_FULL, SEED)
    assert report.p_hat[4096] < 0.05
    assert report.verdict == "consistent-with-wlln"


def test_criterion_5_heavy_log_demo(example41_pipeline):
    """Vanishing-density heavy-log family: sup-form condition holds on the
    grid under the envelope 2c/log M with c frozen to 1e-10, truncated
    energies vanish along a witnessed subsequence, exact-mode extraction
    succeeds, and the zero-corrector law verifies: final p_hat(0.25) < 0.05
    at N = 4096, R = 2000."""
    model, D, plan = example41_pipeline
    assert example41_constant_c() == pytest.approx(C_FROZEN, abs=1e-10)

    m_grid = [2.0, 8.0, 32.0, 128.0]
    profile = build_tail_profile(model, m_grid, range(1, 17))
    weak = check_weak_l1(profile, model)
    assert weak.status == "holds-on-grid"
    _, env = model.tau_sup_envelope()
    for M in m_grid:
        assert env(M) == pytest.approx(2.0 * C_FROZEN / math.log(M), rel=1e-10)

    energy = check_energy_vanishing(model, m_grid, range(1, 33))
    assert energy.status == "holds"
    assert energy.data["per_M"][2.0]["witness_indices"]

    assert D.is_zero()
    assert plan.mode == "exact"
    assert len(plan.indices) == 4096

    report = wlln_probe(model, plan.indices, D, 0.25, N_GRID, R_FULL, SEED)
    assert report.p_hat[4096] < 0.05
    assert report.verdict == "consistent-with-wlln"


def test_criterion_6_random_corrector_regime(latent_pipeline):
    """Conditionally-iid shifts: the factor-conditional corrector passes and
    the constant zero corrector is flagged as a violation at eps = 0.5."""
    model, D, plan = latent_pipeline
    good = wlln_probe(model, plan.indices, D, 0.5, N_GRID, 500, SEED)
    assert good.verdict == "consistent-with-wlln"
    assert good.p_hat[4096] == 0.0

    bad = wlln_probe(model, plan.indices, zero_corrector(N_GRID),
                     0.5, N_GRID, 500, SEED)
    assert bad.verdict == "violation"
    assert bad.p_hat[4096] > 0.9


def test_criterion_7_plan_integrity(counterexample_pipeline,
                                    example41_pipeline, latent_pipeline):
    """Every stored inner product reproduces to 1e-12 under independent
    recomputation; thinned plans satisfy all inherited constraints."""
    for model, D, plan in (counterexample_pipeline, example41_pipeline,
                           latent_pipeline):
        rep = verify_plan(plan, model, D)
        assert rep["ok"], rep["violations"][:3]
        assert rep["max_abs_diff"] <= 1e-12
        steps = np.arange(1, len(plan.indices) + 1)
        for pattern in PATTERNS:
            kept = steps[_thinning(len(steps), pattern, SEED)]
            sub = check_plan_subsequence(plan, kept)
            assert sub["ok"], (pattern, sub["violations"][:3])


def test_criterion_8_truncation_gap_bound(counterexample_pipeline,
                                          example41_pipeline,
                                          latent_pipeline):
    """Estimated truncation-gap exceedance <= exact union bound + 3 SE on
    every oracle model across the N-grid."""
    cases = [
        (counterexample_pipeline[0], counterexample_pipeline[2].indices),
        (example41_pipeline[0], example41_pipeline[2].indices),
        (latent_pipeline[0], latent_pipeline[2].indices),
        (IIDModel(Pareto1()), range(1, 4097)),
    ]
    for model, indices in cases:
        gap = truncation_gap_probe(model, indices, N_GRID, 500, SEED)
        assert gap.dominated, gap.p_hat


def test_criterion_9_manifest_reproducibility(tmp_path):
    """Re-running any demo from its manifest yields byte-identical CSV and
    JSON artifacts."""
    for name in ("counterexample", "example41", "latent-shift"):
        first = tmp_path / name
        again = tmp_path / (name + "-replay")
        assert cli_main(["demo", name, "--out", str(first),
                         "--reps", "500", "--seed", "7"]) == 0
        assert cli_main(["rerun", "--manifest", str(first / "manifest.json"),
                         "--out", str(again)]) == 0
        names = sorted(os.listdir(first))
        assert sorted(os.listdir(again)) == names
        for fname in names:
            assert (first / fname).read_bytes() == \
                (again / fname).read_bytes(), (name, fname)
        verdicts = json.loads((first / "verdicts.json").read_text())
        assert verdicts["weak_l1"]["status"] in ("fails", "holds-on-grid")
