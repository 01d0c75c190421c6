"""The scalar reference the package is checked against, and the proof-side
checks built on it.

``reference_inner_product`` is the exact centered inner product of one pair
(or one index, on the diagonal) from a per-model ``isinstance`` ladder: the
oracle the package used before the joint moments moved onto the models,
kept here apart from names so that it imports nothing from the search.
The package's row arithmetic must give its values bit for bit.  Its
comonotone branch is the one-pair form of the package's integral in
y = 1 - u: ``comonotone_intervals`` and ``overlap_integral`` take floats or
mpmath numbers alike, so the same integral also serves as a 50-digit
check.

``NumpyFiniteOracles`` holds the numpy expressions that ``FiniteDiscrete``
answered its oracles with before they moved onto Python floats; the
package's oracles must give their values bit for bit.

The proof bounds the corrected sum through a cross-product budget and a
sum-of-squares split; ``cross_product_budget``, ``sum_of_squares_check``
and ``check_plan_subsequence`` check them on a plan, one pair at a time.
"""

import math

import numpy as np

from wllnlab.correctors import CorrectorSeries, corrector_weak_l2
from wllnlab.distributions import _SERIES_TOTAL, UnsupportedOracleError, _tail
from wllnlab.extract import ExtractionPlan, PlanEntries, step_epsilon
from wllnlab.models import (
    Example41Model,
    IIDModel,
    IndependentArrayModel,
    LatentShiftModel,
    SequenceModel,
    TailVanishingModel,
)

# slack of the proof-side bounds for rounding in the oracle sums
TOLERANCE = 1e-9


def is_independent(model: SequenceModel) -> bool:
    if isinstance(model, (IIDModel, IndependentArrayModel)):
        return True
    return isinstance(model, Example41Model) and model.joint_law == "independent"


def iid_corrector(dist, n_grid) -> CorrectorSeries:
    """D_N = E(f 1{|f| <= N}) for iid coordinates of law ``dist``: the
    weak-L2 corrector of the iid model."""
    return corrector_weak_l2(IIDModel(dist), n_grid)


def constant_value(D: CorrectorSeries, N: int) -> float:
    if D.kind == "conditional":
        raise UnsupportedOracleError(
            "conditional correctors are only supported on latent-shift models")
    return D.values[N]


def comonotone_intervals(rho, survival, symmetric: bool):
    """y-intervals (lo, hi, value), y = 1 - u ascending, on which the shared
    uniform gives one index of zero mass ``rho`` a nonzero value up to the
    level N: value m takes (1 - rho) (S[m], S[m - 1]] for S[m] = T(m)/T(1)
    given at m = 1..N, and the symmetric law puts -m below the midpoint
    and +m above it.  Takes floats or mpmath numbers alike."""
    scale = 1 - rho
    out = []
    for m in range(len(survival) - 1, 1, -1):
        lo, hi = survival[m], survival[m - 1]
        if symmetric:
            mid = (lo + hi) / 2
            out += [(scale * lo, scale * mid, -m),
                    (scale * mid, scale * hi, m)]
        else:
            out.append((scale * lo, scale * hi, m))
    return out


def overlap_integral(a, b):
    """int f_a f_b dy for two interval lists in y order, summed in y order."""
    total = 0
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


def _comonotone_product(model: Example41Model, j: int, k: int, N: float) -> float:
    """E[f_j^t f_k^t] under the shared-uniform coupling, by exact overlap
    integration of the two partitions of y = 1 - u."""
    survival = [_tail(m) / _SERIES_TOTAL for m in range(int(N) + 1)]
    a, b = (comonotone_intervals(model.rho(i), survival, model.symmetric)
            for i in (j, k))
    return float(overlap_integral(a, b))


def reference_inner_product(model: SequenceModel, j: int, k: int,
                            N: float, D: CorrectorSeries) -> float:
    """E[(f_j^{[-N,N]} - D_N)(f_k^{[-N,N]} - D_N)] via the model's joint
    oracle."""
    Nlev = int(N)
    if isinstance(model, LatentShiftModel):
        total = 0.0
        for b, p in model.factor_dist.atoms:
            d = D.values[Nlev][b] if D.kind == "conditional" else D.values[Nlev]
            m1 = model.conditional_trunc_moment(b, N, 1)
            if j == k:
                m2 = model.conditional_trunc_moment(b, N, 2)
                total += p * (m2 - 2.0 * d * m1 + d * d)
            else:
                total += p * (m1 - d) ** 2
        return total
    d = constant_value(D, Nlev)
    if is_independent(model):
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


class NumpyFiniteOracles:
    """survival, trunc_moment and tau_integral of a ``FiniteDiscrete``,
    from numpy arrays of its canonical-order atoms."""

    def __init__(self, dist):
        self._values = np.array([v for v, _ in dist.atoms])
        self._probs = np.array([p for _, p in dist.atoms])
        # aggregate mass per distinct |value|
        self._abs_vals = np.unique(np.abs(self._values))
        mass = np.zeros_like(self._abs_vals)
        idx = np.searchsorted(self._abs_vals, np.abs(self._values))
        np.add.at(mass, idx, self._probs)
        # survival just beyond each |value|: P(|X| > abs_vals[i])
        self._abs_tail = np.concatenate([np.cumsum(mass[::-1])[::-1][1:],
                                         [0.0]])

    def survival(self, t: float) -> float:
        if t < 0:
            return 1.0
        i = np.searchsorted(self._abs_vals, t, side="right")
        if i == 0:
            return 1.0
        return float(self._abs_tail[i - 1])

    def trunc_moment(self, M: float, order: int) -> float:
        keep = np.abs(self._values) <= M
        return float(math.fsum(self._probs[keep] * self._values[keep] ** order))

    def tau_integral(self, M: float) -> float:
        if M <= 0:
            return 0.0
        pts = [0.0] + [float(a) for a in self._abs_vals if a < M] + [M]
        total = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            total += self.survival(lo) * (hi * hi - lo * lo) / 2.0
        return total


def entry_keys(entries: PlanEntries) -> list:
    """The keys (j, n, N) of a plan's entries, in their order."""
    return list(zip(entries.j.tolist(), entries.n.tolist(),
                    entries.N.tolist()))


def check_plan_subsequence(plan: ExtractionPlan, keep_steps) -> dict:
    """Hereditary closure at the plan level: the retained steps, checked
    against the ORIGINAL step thresholds, still satisfy every recorded
    constraint involving only retained steps."""
    keep = set(np.asarray(keep_steps).tolist())
    checked, violations = 0, []
    for (j, n, N), row in zip(entry_keys(plan.achieved),
                              plan.achieved.values.tolist()):
        if j in keep and n in keep:
            checked += 1
            amount = abs(row[0]) + (row[1] if plan.mode != "exact" else 0.0)
            if amount > step_epsilon(n, plan.eps_floor):
                violations.append((j, n, N))
    return {"checked": checked, "violations": violations, "ok": not violations}


def corrector_second_moment(D: CorrectorSeries, N: int,
                            factor_law: tuple | None = None) -> float:
    """E(D_N^2): the conditional kind averages over the factor law's
    (atom, mass) pairs."""
    if D.kind != "conditional":
        return float(D.values[N]) ** 2
    return math.fsum(p * D.values[N][b] ** 2 for b, p in factor_law)


def _max_sigma(model: SequenceModel, indices, N: float) -> float:
    return max(model.marginal_dist(int(i)).trunc_moment(N, 2) / N
               for i in indices)


def cross_product_budget(plan: ExtractionPlan, model: SequenceModel,
                         D: CorrectorSeries, N: int) -> dict:
    """2 sum_{j < n <= N} |ip(k_j, k_n)|, split at n = sqrt(log N): the
    head is at most N max sigma log N, the tail at most 2 (n - 1) eps_n
    summed over its steps."""
    if len(plan.indices) < N:
        raise ValueError("plan shorter than the requested level")
    split = math.sqrt(math.log(N))
    head = tail = 0.0
    for n in range(2, N + 1):
        for j in range(1, n):
            v = abs(reference_inner_product(
                model, plan.indices[j - 1], plan.indices[n - 1], float(N), D))
            if n <= split:
                head += 2.0 * v
            else:
                tail += 2.0 * v
    sig = _max_sigma(model, plan.indices[:N], float(N))
    head_bound = N * sig * math.log(N) * (1.0 + TOLERANCE) + TOLERANCE
    tail_bound = sum(2.0 * (n - 1) * step_epsilon(n, plan.eps_floor)
                     for n in range(2, N + 1) if n > split) + TOLERANCE
    return {"head_sum": head, "tail_sum": tail, "total": head + tail,
            "head_bound": head_bound, "tail_bound": tail_bound,
            "ok": head <= head_bound and tail <= tail_bound}


def sum_of_squares_check(model: SequenceModel, D: CorrectorSeries, N: int,
                         index_window) -> dict:
    """sum_i E(f_i^{[N]} - D_N)^2 over the window against the split bound
    2 sum E(f_i^{[N]})^2 + 2 N E(D_N^2) and 4 N^2 max sigma_i(N), and
    E(D_N^2) against N max sigma_i(N)."""
    window = [int(i) for i in index_window]
    lhs = math.fsum(reference_inner_product(model, i, i, float(N), D)
                    for i in window)
    sum_sq = math.fsum(model.marginal_dist(i).trunc_moment(float(N), 2)
                       for i in window)
    d2 = corrector_second_moment(D, N, model.factor_law)
    sig = _max_sigma(model, window, float(N))
    split_bound = 2.0 * sum_sq + 2.0 * N * d2
    sigma_bound = 4.0 * N * N * sig
    return {"lhs": lhs, "split_bound": split_bound,
            "sigma_bound": sigma_bound, "corrector_second_moment": d2,
            "corrector_moment_bound": N * sig,
            "ok": (lhs <= split_bound + TOLERANCE
                   and lhs <= sigma_bound + TOLERANCE
                   and d2 <= N * sig + TOLERANCE)}
