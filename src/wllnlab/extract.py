"""Truncation and greedy near-orthogonal subsequence extraction.

The selection rule mirrors the inductive argument behind the hereditary
WLLN: having chosen k_1 < ... < k_{n-1}, accept the smallest candidate
k > k_{n-1} such that for every already-chosen index and every admissible
level N the centered truncated inner product

    E[(f_{k_j} 1{|f_{k_j}|<=N} - D_N)(f_k 1{|f_k|<=N} - D_N)]

is at most eps_n = max(exp(-n^2), eps_floor) in absolute value.  A level N
is admissible at step n when N <= exp(n^2); the level grid is finite, which
is a documented surrogate for the unbounded family of levels in the
asymptotic argument.

Exact mode requires a joint-moment oracle (independent coordinates, the
single-draw tail-vanishing model, the latent-shift factorization, or the
comonotone coupling); sample mode uses common-random-number Monte Carlo
estimates with 99% half-widths and accepts only when |estimate| +
half-width clears the threshold.

The scan costs time linear in the candidates it examines; steps are
numbered from 1, so the predecessor accepted at step j is indices[j - 1].
Exact mode makes one oracle pass per examined index: ``moment_row`` gives
its truncated moments at every grid level, a pair's inner product is float
arithmetic on two rows, and the model's ``argmax_predecessor`` keeps, per
level, the few accepted steps at which the largest |inner product| with a
later index can sit.  The comonotone coupling has no row form and is
scanned pair by pair.  ``verify_plan`` builds the plan's rows once and
recomputes every recorded entry level by level in numpy, in the scalar
oracle's order of operations, so the values are bit for bit those of
``exact_centered_inner_product``.

Sample mode estimates all predecessors of a candidate at one level in a
single vectorised call.  The sample bank holds one row per index, shape
(horizon, R), C-contiguous, and is reduced along axis 1: that layout makes
the batched estimates bit-identical to one-row-at-a-time reductions, so a
plan does not depend on how estimates are grouped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .correctors import CorrectorSeries
from .models import SequenceModel

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
# exact mode records every predecessor's inner product for the first steps
_DETAIL_STEPS = 16
# slack of the proof-side bounds for rounding in the oracle sums
_TOLERANCE = 1e-9


def truncate_array(x: np.ndarray, N: float) -> np.ndarray:
    """f^{[-N,N]}: zero outside the band [-N, N], not clipped to it."""
    return np.where(np.abs(x) <= N, x, 0.0)


class ExtractionFailure(Exception):
    def __init__(self, step, eps, search_cap, best_candidate, best_violation):
        self.step = step
        self.eps = eps
        self.search_cap = search_cap
        self.best_candidate = best_candidate
        self.best_violation = best_violation
        what = (f"search window exhausted at step {step} before any candidate"
                if best_candidate is None else
                f"candidate pool exhausted at step {step}: threshold {eps:.3e}, "
                f"best candidate {best_candidate} violated by "
                f"{best_violation:.3e}")
        super().__init__(f"{what} (search_cap {search_cap})")


class ExtractConfigError(ValueError):
    """An extraction setting outside its documented range; raised before
    any candidate is examined or any path sampled."""


# -------------------------------------------------------------------------
# exact centered inner products
# -------------------------------------------------------------------------

def exact_centered_inner_product(model: SequenceModel, j: int, k: int,
                                 N: float, D: CorrectorSeries) -> float:
    """E[(f_j^{[-N,N]} - D_N)(f_k^{[-N,N]} - D_N)] via the model's joint
    oracle: a marginal moment on the diagonal, the pair oracle off it."""
    if j == k:
        return model.centered_square(j, N, D)
    return model.pair_inner_product(min(j, k), max(j, k), N, D)


# -------------------------------------------------------------------------
# sampled centered inner products (common random numbers)
# -------------------------------------------------------------------------

# the bank reads replications 2^63, 2^63 + 1, ... of the seed's streams,
# which no Monte Carlo probe reads: checking a sample-mode plan with
# ``wlln_probe`` uses paths the selection was not tuned on
_BANK_REPLICATIONS = 2**63


class _SampleBank:
    """R seeded paths up to a fixed horizon, shared by every estimate.

    ``values`` has shape (horizon, R), C-contiguous: row i - 1 holds f_i on
    every replication.  Estimates reduce gathered rows along axis 1, which
    sums each row exactly as a one-row reduction does; reducing along axis
    0 of an (R, P) block would not.
    """

    def __init__(self, model: SequenceModel, horizon: int, R: int, seed: int):
        if R < 100:
            raise ExtractConfigError("sample mode requires R >= 100")
        self.R = int(R)
        self.seed = int(seed)
        self.values = np.empty((horizon, self.R))
        factors, r0 = [], 0
        for vals, f in model.sample_blocks(np.arange(1, horizon + 1), seed,
                                           self.R, first=_BANK_REPLICATIONS):
            self.values[:, r0:r0 + len(vals)] = vals.T
            factors.append(f)
            r0 += len(vals)
        self.factors = None if factors[0] is None else np.concatenate(factors)

    def estimate(self, js, k: int, N: float, D: CorrectorSeries):
        """Estimates and 99% half-widths of the centered inner products of
        f_k with each f_j, j in ``js``, as two arrays aligned with ``js``."""
        # (R,) for a conditional corrector, a scalar otherwise
        d = D.realized([int(N)], self.factors)[..., 0]
        x = truncate_array(self.values[np.asarray(js, dtype=np.int64) - 1], N) - d
        y = truncate_array(self.values[k - 1], N) - d
        prod = x * y
        est = np.mean(prod, axis=1)
        hw = _Z99 * np.std(prod, axis=1, ddof=1) / math.sqrt(self.R)
        return est, hw


# -------------------------------------------------------------------------
# the greedy plan
# -------------------------------------------------------------------------

@dataclass
class ExtractionPlan:
    indices: tuple          # selected indices k_1 < k_2 < ...
    n_grid: tuple           # truncation levels
    thresholds: dict        # step -> eps_n
    achieved: dict          # (j_step, n_step, N) -> value or (estimate, hw)
    mode: str
    seed: int
    eps_floor: float
    search_cap: int
    detail_steps: int
    corrector_ref: str
    sample_R: int = 0

    def to_json(self) -> dict:
        """``achieved`` as rows in key order, the columns named by
        ``achieved_fields``: [j, n, N, value] exact, [j, n, N, estimate,
        half_width] sampled."""
        exact = self.mode == "exact"
        fields = ["j", "n", "N"] + (["value"] if exact
                                    else ["estimate", "half_width"])
        rows = [[*key, *((v,) if exact else v)]
                for key, v in sorted(self.achieved.items())]
        return {
            "indices": list(self.indices),
            "n_grid": list(self.n_grid),
            "thresholds": {str(k): v for k, v in sorted(self.thresholds.items())},
            "achieved": rows,
            "achieved_fields": fields,
            "mode": self.mode,
            "seed": self.seed,
            "eps_floor": self.eps_floor,
            "search_cap": self.search_cap,
            "detail_steps": self.detail_steps,
            "corrector": self.corrector_ref,
            "sample_R": self.sample_R,
        }


def step_epsilon(n: int, eps_floor: float) -> float:
    raw = math.exp(-float(n) * n) if n * n < 700 else 0.0
    return max(raw, eps_floor)


def admissible_levels(n: int, n_grid) -> list:
    # N <= exp(n^2), enforced literally (step 1 admits only N <= e)
    return [N for N in n_grid if math.log(N) <= float(n) * n]


class _ExactScan:
    """Exact mode's largest inner product of a candidate with its
    predecessors.  After each acceptance the model's ``argmax_predecessor``
    names, per level, the steps ``lead`` that can hold the largest
    |inner product| with any later index, and only their moment rows are
    kept: a candidate costs one moment row and float arithmetic on a few
    rows.  A joint law without a row form (the comonotone coupling) is
    scanned pair by pair with the pair oracle.
    """

    def __init__(self, model, D, n_grid):
        self.model, self.D, self.n_grid = model, D, n_grid
        self.rows, self.lead = {}, None     # rows: step -> moment row
        self.last = (None, None)            # last candidate and its row

    def row(self, k):
        if self.last[0] != k:
            self.last = (k, self.model.moment_row(k, self.n_grid, self.D))
        return self.last[1]

    def worst(self, indices, k, levels):
        """(value, step) of the largest predecessor inner product of f_k for
        each of ``levels``, a prefix of the grid; lazily, level by level,
        from the pair oracle."""
        row = self.row(k)
        if row is None:
            return (self._pair_scan(indices, k, N) for N in levels)
        product, rows, out = self.model.row_inner_product, self.rows, []
        for level in range(len(levels)):
            mine, best = row[level], None
            for st in self.lead[level]:
                v = product(rows[st][level], mine)
                if best is None or abs(v) > abs(best[0]):
                    best = (v, st)
            out.append(best)
        return out

    def _pair_scan(self, indices, k, N):
        best = None
        for st, j in enumerate(indices, 1):
            v = self.model.pair_inner_product(j, k, N, self.D)
            if best is None or abs(v) > abs(best[0]):
                best = (v, st)
        return best

    def accept(self, step, k):
        row = self.row(k)
        if row is None:
            return
        self.rows[step] = row
        self.lead = self.model.argmax_predecessor(self.rows, step, self.lead)
        self.rows = {st: self.rows[st] for steps in self.lead for st in steps}


def greedy_extract(model: SequenceModel, target_length: int, n_grid,
                   D: CorrectorSeries, mode: str = "exact",
                   eps_floor: float | None = None,
                   search_cap: int | None = None, seed: int = 0,
                   R: int = 400, min_index: int = 1) -> ExtractionPlan:
    """``min_index`` restricts the candidate pool to indices >= min_index;
    the zero-corrector route starts the search deep enough along the
    sequence that the truncated energies have already decayed.

    Per examined candidate, exact mode computes one moment row and checks
    every level with arithmetic on a few accepted rows (under the
    comonotone coupling, one pair oracle call per predecessor and level;
    see ``_ExactScan``); sample mode makes one vectorised estimate over all
    predecessors per level."""
    if mode not in ("exact", "sample"):
        raise ExtractConfigError(f"unknown mode {mode!r}")
    if target_length < 1:
        raise ExtractConfigError("target_length must be >= 1")
    n_grid = tuple(sorted(int(N) for N in n_grid))
    if eps_floor is None:
        eps_floor = 0.0 if mode == "exact" else 1e-2
    if search_cap is None:
        search_cap = min(model.index_cap,
                         min_index - 1 + target_length + 2 * max(n_grid) + 64)
    if search_cap > model.index_cap:
        raise ExtractConfigError("search_cap exceeds the model's index_cap")
    if search_cap < max(int(min_index), 1):
        raise ExtractConfigError("empty search window: search_cap is below "
                                 "the first candidate index")

    bank = _SampleBank(model, search_cap, R, seed) if mode == "sample" else None
    scan = _ExactScan(model, D, n_grid) if mode == "exact" else None

    indices: list[int] = []
    thresholds: dict[int, float] = {}
    achieved: dict = {}

    for step in range(1, target_length + 1):
        eps = step_epsilon(step, eps_floor)
        thresholds[step] = eps
        levels = admissible_levels(step, n_grid) if indices else []
        start = max(int(min_index), (indices[-1] + 1) if indices else 1)
        pred_steps = range(1, step)
        best_candidate, best_violation = None, math.inf
        chosen = None
        for k in range(start, search_cap + 1):
            worst = 0.0
            records = []
            feasible = True
            found = scan.worst(indices, k, levels) if scan is not None \
                else (bank.estimate(indices, k, N, D) for N in levels)
            for N, got in zip(levels, found):
                if mode == "exact":
                    val, jstar = got
                    amount = abs(val)
                    records.append(((jstar, step, N), val))
                else:
                    est, hw = got
                    amount = float(np.max(np.abs(est) + hw))
                    records.append((N, est, hw))
                worst = max(worst, amount)
                if amount > eps:
                    feasible = False
                    break
            if feasible:
                chosen = k
                if mode == "sample":
                    for N, est, hw in records:
                        for jstep, e, h in zip(pred_steps, est.tolist(),
                                               hw.tolist()):
                            achieved[(jstep, step, N)] = (e, h)
                else:
                    # shortcut entries go in first and keep their place when
                    # the detail loop overwrites them: verify_plan reports
                    # violations in this order
                    achieved.update(records)
                    if step <= _DETAIL_STEPS:
                        for N in levels:
                            for jstep, jidx in zip(pred_steps, indices):
                                achieved[(jstep, step, N)] = \
                                    exact_centered_inner_product(model, jidx, k, N, D)
                break
            if worst < best_violation:
                best_violation, best_candidate = worst, k
        if chosen is None:
            raise ExtractionFailure(step, eps, search_cap,
                                    best_candidate, best_violation)
        indices.append(chosen)
        if scan is not None:
            scan.accept(step, chosen)

    return ExtractionPlan(tuple(indices), n_grid, thresholds, achieved,
                          mode, int(seed), float(eps_floor), int(search_cap),
                          _DETAIL_STEPS, D.provenance,
                          R if mode == "sample" else 0)


def _violations(plan: ExtractionPlan, keys, stored) -> list:
    """The ``keys`` whose ``stored`` entries exceed their step's threshold:
    |value| in exact mode, |estimate| + half_width in sample mode."""
    if not keys:
        return []
    stored = np.asarray(stored, dtype=float)
    amounts = np.abs(stored) if plan.mode == "exact" \
        else np.abs(stored[:, 0]) + stored[:, 1]
    thresholds = np.array([plan.thresholds[n] for _, n, _ in keys])
    return [key for key, bad in zip(keys, amounts > thresholds) if bad]


def _exact_values(plan: ExtractionPlan, model: SequenceModel,
                  D: CorrectorSeries) -> np.ndarray:
    """Fresh exact values of the plan's entries, aligned with
    ``plan.achieved``: one moment row per plan index, then every entry's
    pair arithmetic at once, bit for bit what the scalar oracle gives."""
    first = model.moment_row(plan.indices[0], plan.n_grid, D)
    if first is None:
        idx = plan.indices
        return np.array([model.pair_inner_product(idx[j - 1], idx[n - 1], N, D)
                         for j, n, N in plan.achieved])
    flat = itertools.chain.from_iterable
    rows = itertools.chain([first], (model.moment_row(i, plan.n_grid, D)
                                     for i in plan.indices[1:]))
    # streamed into one array, so no list of every row is ever held
    rows = np.fromiter(flat(flat(rows)), float).reshape(
        len(plan.indices), len(first), len(first[0]))
    keys = np.fromiter(flat(plan.achieved), np.int64,
                       3 * len(plan.achieved)).reshape(-1, 3)
    lev = np.searchsorted(plan.n_grid, keys[:, 2])
    return model.row_inner_product(rows[keys[:, 0] - 1, lev].T,
                                   rows[keys[:, 1] - 1, lev].T)


def verify_plan(plan: ExtractionPlan, model: SequenceModel,
                D: CorrectorSeries) -> dict:
    """Recompute every stored inner product from scratch and check the
    recorded constraints: every pair the plan records, not only the
    maximising predecessors the search relies on.  Exact mode builds the
    plan's moment rows once; sample mode makes one estimate per (step,
    level) over all the predecessors recorded there."""
    max_diff = 0.0
    if plan.mode == "exact":
        stored = np.fromiter(plan.achieved.values(), float, len(plan.achieved))
        if plan.achieved:
            max_diff = float(np.max(np.abs(_exact_values(plan, model, D)
                                           - stored)))
    else:
        bank = _SampleBank(model, plan.search_cap, plan.sample_R, plan.seed)
        groups: dict = {}
        for jstep, nstep, N in plan.achieved:
            groups.setdefault((nstep, N), []).append(jstep)
        for (nstep, N), jsteps in groups.items():
            est, _ = bank.estimate([plan.indices[j - 1] for j in jsteps],
                                   plan.indices[nstep - 1], N, D)
            recorded = [plan.achieved[(j, nstep, N)][0] for j in jsteps]
            max_diff = max(max_diff, float(np.max(np.abs(est - recorded))))
        stored = list(plan.achieved.values())
    violations = _violations(plan, list(plan.achieved), stored)
    return {"checked": len(plan.achieved), "max_abs_diff": max_diff,
            "violations": violations, "ok": not violations}


def check_plan_subsequence(plan: ExtractionPlan, keep_steps) -> dict:
    """Hereditary closure at the plan level: the retained steps, checked
    against the ORIGINAL step thresholds, still satisfy every recorded
    constraint involving only retained steps."""
    keep = set(keep_steps)
    keys = [key for key in plan.achieved if key[0] in keep and key[1] in keep]
    violations = _violations(plan, keys, [plan.achieved[k] for k in keys])
    return {"checked": len(keys), "violations": violations,
            "ok": not violations}


# -------------------------------------------------------------------------
# proof-side bookkeeping: cross products and sums of squares
# -------------------------------------------------------------------------

@dataclass
class CrossProductBudget:
    N: int
    head_sum: float
    tail_sum: float
    total: float
    head_bound: float
    tail_bound: float
    ok: bool


def _sigma_sup(model, indices, N: float) -> float:
    return max(model.marginal_dist(int(i)).trunc_moment(N, 2) / N
               for i in indices)


def cross_product_budget(plan: ExtractionPlan, model: SequenceModel,
                         D: CorrectorSeries, N: int) -> CrossProductBudget:
    if len(plan.indices) < N:
        raise ValueError("plan shorter than the requested level")
    split = math.sqrt(math.log(N))
    head = tail = 0.0
    for n in range(2, N + 1):
        for j in range(1, n):
            v = abs(exact_centered_inner_product(
                model, plan.indices[j - 1], plan.indices[n - 1], float(N), D))
            if n <= split:
                head += 2.0 * v
            else:
                tail += 2.0 * v
    sig = _sigma_sup(model, plan.indices[:N], float(N))
    head_bound = N * sig * math.log(N) * (1.0 + _TOLERANCE) + _TOLERANCE
    tail_bound = sum(2.0 * (n - 1) * step_epsilon(n, plan.eps_floor)
                     for n in range(2, N + 1) if n > split) + _TOLERANCE
    total = head + tail
    ok = head <= head_bound and tail <= tail_bound
    return CrossProductBudget(N, head, tail, total, head_bound, tail_bound, ok)


@dataclass
class SumOfSquaresCheck:
    N: int
    lhs: float
    split_bound: float       # 2 sum E(f^t)^2 + 2 N E(D^2)
    sigma_bound: float       # 4 N^2 sigma_sup(N)
    corrector_second_moment: float
    corrector_moment_bound: float  # N * sigma_sup(N)
    ok: bool


def sum_of_squares_check(model: SequenceModel, D: CorrectorSeries, N: int,
                         index_window) -> SumOfSquaresCheck:
    window = [int(i) for i in index_window]
    lhs = math.fsum(
        exact_centered_inner_product(model, i, i, float(N), D) for i in window)
    sum_sq = math.fsum(model.marginal_dist(i).trunc_moment(float(N), 2)
                       for i in window)
    d2 = D.second_moment(N, model.factor_law)
    sig = _sigma_sup(model, window, float(N))
    split_bound = 2.0 * sum_sq + 2.0 * N * d2
    sigma_bound = 4.0 * N * N * sig
    ok = (lhs <= split_bound + _TOLERANCE and lhs <= sigma_bound + _TOLERANCE
          and d2 <= N * sig + _TOLERANCE)
    return SumOfSquaresCheck(N, lhs, split_bound, sigma_bound, d2,
                             N * sig, ok)
