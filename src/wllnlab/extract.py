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
Exact mode works on blocks of candidates: ``moment_rows`` gives a window's
truncated moments at every grid level as one (candidates, levels, width)
array, a pair's inner product is float arithmetic on two rows, and the
model's ``lead_slots`` name, per level, the few accepted steps at which the
largest |inner product| with a later index can sit.  One kernel keeps those
steps, with running maxima while a run of candidates is accepted step
after step and a fixed lead while a step rejects them, so the greedy rule
stays sequential (see ``_exact_search``).  The comonotone coupling has no
row form and is scanned one candidate at a time, pair by pair.  The plan's
entries are numpy columns.  ``verify_plan`` builds the plan's rows once and
recomputes every recorded entry in numpy, in the scalar oracle's order of
operations, so the values are bit for bit those of
``exact_centered_inner_product``.

Sample mode estimates all predecessors of a candidate at one level in a
single vectorised call.  The sample bank holds one row per index, shape
(horizon, R), C-contiguous, and is reduced along axis 1: that layout makes
the batched estimates bit-identical to one-row-at-a-time reductions, so a
plan does not depend on how estimates are grouped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correctors import CorrectorSeries
from .models import SequenceModel

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
# exact mode records every predecessor's inner product for the first steps
_DETAIL_STEPS = 16
# most candidates one exact scan scores at once; bounds its arrays
_BLOCK = 2048
# candidates the first block after a rejection scores; sizes then double
_FIRST_BLOCK = 8
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

class PlanEntries:
    """The recorded inner products in insertion order, as parallel columns:
    predecessor step ``j``, step ``n`` and level ``N`` (int64), and
    ``values``, one row per entry: [value] in exact mode, [estimate,
    half_width] in sample mode.  Iterating yields the keys (j, n, N)."""

    def __init__(self, j, n, N, values):
        self.j, self.n, self.N, self.values = j, n, N, values

    @classmethod
    def from_parts(cls, parts: list, width: int) -> "PlanEntries":
        """One column per field from chunks (j, n, N, values) of the same
        layout; ``width`` is the number of value fields.  Empties ``parts``,
        so the chunks of each column are freed once it is joined."""
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, empty, np.empty((0, width)))
        columns = [list(col) for col in zip(*parts)]
        parts.clear()
        return cls(*(np.concatenate(columns.pop(0)) for _ in range(4)))

    def __len__(self) -> int:
        return len(self.j)

    def __iter__(self):
        return zip(self.j.tolist(), self.n.tolist(), self.N.tolist())


@dataclass
class ExtractionPlan:
    indices: tuple          # selected indices k_1 < k_2 < ...
    n_grid: tuple           # truncation levels
    thresholds: dict        # step -> eps_n
    achieved: PlanEntries   # (j_step, n_step, N) with value or (estimate, hw)
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
        e = self.achieved
        fields = ["j", "n", "N"] + (["value"] if self.mode == "exact"
                                    else ["estimate", "half_width"])
        order = np.lexsort((e.N, e.n, e.j))
        keys = np.stack((e.j, e.n, e.N), axis=1)[order].tolist()
        return {
            "indices": list(self.indices),
            "n_grid": list(self.n_grid),
            "thresholds": {str(k): v for k, v in sorted(self.thresholds.items())},
            "achieved": list(map(list.__add__, keys,
                                 e.values[order].tolist())),
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


def _schedule(n_grid, eps_floor):
    """A function of (step, count): for steps step, ..., step + count - 1,
    eps_n, the admissible levels as a (count, levels) mask, and the bound
    |value| must not pass per level, eps_n where admissible and inf
    elsewhere; ``count`` is at most ``_BLOCK``.  All three are constant
    from step ``last`` on, where ``step_epsilon`` takes exp(-n^2) as 0 and
    every level is admissible, so the tables hold ``_BLOCK`` copies of that
    step's row after the earlier ones, and any block is a slice."""
    last = 1
    while step_epsilon(last, 0.0) > 0.0 \
            or len(admissible_levels(last, n_grid)) < len(n_grid):
        last += 1
    steps = np.minimum(np.arange(last + _BLOCK + 1), last)
    eps = np.array([step_epsilon(n, eps_floor) for n in range(last + 1)])
    nlev = np.array([len(admissible_levels(n, n_grid))
                     for n in range(last + 1)])
    eps, admissible = eps[steps], np.arange(len(n_grid)) < nlev[steps, None]
    limit = np.where(admissible, eps[:, None], np.inf)

    def at(step, count):
        s = min(step, last)
        return eps[s:s + count], admissible[s:s + count], limit[s:s + count]
    return at


class _RowScan:
    """Exact mode's lead: per level, the accepted steps in the model's
    ``lead_slots`` and their moment rows.  A block of candidates costs one
    ``moment_rows`` call, for the rows not computed yet, and array
    arithmetic against the lead rows, either with the lead fixed or with it
    running, as if each candidate of the block were accepted in turn."""

    def __init__(self, model, D, n_grid, row):
        self.model, self.D, self.n_grid = model, D, n_grid
        # after step 1 every slot holds step 1
        self.rows = np.repeat(row[:, None], len(model.lead_slots), axis=1)
        self.steps = np.ones(self.rows.shape[:2], dtype=np.int64)
        self._t = np.arange(_BLOCK + 1)[:, None]
        self._levels = np.arange(len(n_grid))
        # the rows of candidates _k, _k + 1, ... computed so far
        self._k, self._ahead = 0, row[None, :0]
        # what ``running`` leaves for ``commit``
        self._pending = None

    def _rows(self, k, count):
        """The rows of candidates k, ..., k + count - 1.  Candidates only
        move forward, so the rows past the end of a block cut short are
        kept for the next one."""
        ahead = self._ahead[k - self._k:]
        if len(ahead) < count:
            new = self.model.moment_rows(
                np.arange(k + len(ahead), k + count), self.n_grid, self.D)
            ahead = np.concatenate((ahead, new)) if len(ahead) else new
        self._k, self._ahead = k, ahead
        return ahead[:count]

    def _leads(self, rows):
        """Lead rows (T + 1, G, S, W) once the first t of the T ``rows`` are
        accepted in turn, for t = 0..T, and where each slot's row comes
        from: 0 for the current lead, i for rows[i - 1].  Running
        argmax/argmin by accumulation."""
        t = self._t[:len(rows) + 1]
        lead = np.empty((len(t),) + self.rows.shape)
        pos = np.zeros((len(t),) + self.steps.shape, dtype=np.int64)
        for s, kind in enumerate(self.model.lead_slots):
            stack = np.concatenate((self.rows[None, :, s], rows))
            if kind == "last":
                pos[:, :, s] = t
            elif kind != "first":
                key = self.model.lead_key(stack)
                if kind == "max":    # the earliest of equal maxima
                    new = key[1:] > np.maximum.accumulate(key)[:-1]
                else:                # the latest of equal minima
                    new = key[1:] <= np.minimum.accumulate(key)[:-1]
                pos[1:, :, s] = np.maximum.accumulate(np.where(new, t[1:], 0))
            lead[:, :, s] = stack[pos[:, :, s], self._levels]
        return lead, pos

    def _worst(self, rows, lead):
        """Per candidate and level, the inner product of largest modulus
        over the lead slots, the first of equal moduli, and its slot."""
        v = self.model.row_inner_product(lead, rows[:, :, None])
        slot = np.argmax(np.abs(v), axis=2)
        return v[self._t[:len(v)], self._levels, slot], slot

    def running(self, k, count, step):
        """Candidates k, ..., k + count - 1 at steps step, step + 1, ...,
        each against the lead of all the earlier ones accepted."""
        rows = self._rows(k, count)
        lead, pos = self._leads(rows)
        vals, slot = self._worst(rows, lead[:-1])
        self._pending = lead, pos, slot, step
        return vals

    def commit(self, accepted):
        """The first ``accepted`` candidates of the last ``running`` block
        were accepted: the lead moves on, and the result is the step of
        the predecessor each one's value is with, per level."""
        lead, pos, slot, step = self._pending
        pos = pos[:accepted + 1]
        steps = np.where(pos == 0, self.steps, pos + (step - 1))
        self.rows, self.steps = lead[accepted].copy(), steps[accepted]
        self._pending = None
        return steps[self._t[:accepted], self._levels, slot[:accepted]]

    def fixed(self, k, count):
        """Candidates k, ..., k + count - 1 against the current lead."""
        return self._worst(self._rows(k, count), self.rows)[0]


class _PairScan:
    """A joint law without a row form (the comonotone coupling): one
    candidate per call, against every predecessor with the pair oracle."""

    def __init__(self, model, D, n_grid, indices):
        self.model, self.D, self.n_grid = model, D, n_grid
        self.indices = indices      # the search's list, as it grows
        self._last = None           # (candidate, predecessors, vals, steps)

    def fixed(self, k, count):
        """Candidate k alone, whatever ``count``: a candidate costs an
        oracle call per predecessor and level, too much to spend past the
        first one accepted.  The run that follows a fixed scan starts at
        the candidate it found, so the last candidate's values are kept."""
        if self._last is None or self._last[:2] != (k, len(self.indices)):
            vals = np.empty((1, len(self.n_grid)))
            steps = np.empty((1, len(self.n_grid)), dtype=np.int64)
            for level, N in enumerate(self.n_grid):
                v = [self.model.pair_inner_product(j, k, N, self.D)
                     for j in self.indices]
                best = int(np.argmax(np.abs(v)))  # the first of equal maxima
                vals[0, level], steps[0, level] = v[best], best + 1
            self._last = k, len(self.indices), vals, steps
        return self._last[2]

    def running(self, k, count, step):
        return self.fixed(k, count)

    def commit(self, accepted):
        return self._last[3][:accepted]


def _exact_search(model, target_length, n_grid, D, eps_floor, search_cap,
                  start):
    """(indices, thresholds, entry chunks) of the exact-mode plan.

    The search alternates two block scans.  A run takes candidates k, k + 1,
    ... at consecutive steps, each scored against the lead of the earlier
    ones accepted, and keeps the longest prefix accepted step after step.
    At a rejection the step stays and the next run starts after the
    rejected candidate, so its first candidate is scored against the lead
    of the steps before.  If that one is rejected too, the lead is fixed
    until the first feasible candidate, where the next run starts (scored
    against the same lead, it is accepted).  Block sizes double up to
    ``_BLOCK`` while a block goes one way and restart at ``_FIRST_BLOCK``;
    the rows past a cut are kept, so a block cut short wastes only its
    arithmetic."""
    schedule = _schedule(n_grid, eps_floor)
    # step 1 admits no level: the first candidate is accepted
    indices, thresholds, parts = [start], {1: step_epsilon(1, eps_floor)}, []
    rows = model.moment_rows((start,), n_grid, D)
    scan = _PairScan(model, D, n_grid, indices) if rows is None \
        else _RowScan(model, D, n_grid, rows[0])
    grid = np.array(n_grid, dtype=np.int64)

    def record(first, vals, jsteps, admissible):
        """Entries of the candidates accepted at steps first, first + 1,
        ...; detail steps also record every predecessor, after the
        shortcut's entry and keeping its place."""
        detail = max(0, min(len(vals), _DETAIL_STEPS + 1 - first))
        for t in range(detail):
            step, levels = first + t, n_grid[:int(admissible[t].sum())]
            keys = dict.fromkeys(zip(jsteps[t].tolist(), [step] * len(levels),
                                     levels))
            keys.update(dict.fromkeys((jstep, step, N) for N in levels
                                      for jstep in range(1, step)))
            j, n, N = np.array(list(keys), dtype=np.int64).reshape(-1, 3).T
            parts.append((j, n, N, _pair_values(model, D, indices[:step],
                                                n_grid, j, n, N)[:, None]))
        t, level = np.nonzero(admissible[detail:])
        t += detail
        parts.append((jsteps[t, level], first + t, grid[level],
                      vals[t, level][:, None]))

    first_block = min(_FIRST_BLOCK, _BLOCK)
    step, k, size = 2, start + 1, first_block
    # the rejected candidate of least violation at this step
    best_candidate, best_violation = None, math.inf
    while step <= target_length:
        count = min(size, target_length - step + 1, search_cap - k + 1)
        if count < 1:
            raise ExtractionFailure(step, step_epsilon(step, eps_floor),
                                    search_cap, best_candidate, best_violation)
        vals = scan.running(k, count, step)
        eps, admissible, limit = schedule(step, len(vals))
        bad = np.abs(vals) > limit
        rejected = bad.any(axis=1)
        p = int(np.argmax(rejected)) if rejected.any() else len(vals)
        indices.extend(range(k, k + p))
        thresholds.update(zip(range(step, step + p), eps[:p].tolist()))
        record(step, vals[:p], scan.commit(p), admissible[:p])
        step, k = step + p, k + p
        if p:
            best_candidate, best_violation = None, math.inf
        if p == len(vals):
            size = min(2 * size, _BLOCK)
            continue
        # candidate k is rejected at this step, scored against the lead of
        # the steps before it
        violation = float(abs(vals[p, np.argmax(bad[p])]))
        if violation < best_violation:
            best_violation, best_candidate = violation, k
        k, size = k + 1, first_block
        if p:
            continue
        # the first candidate of a run is rejected: the lead stays fixed
        # until the first feasible candidate, where the next run starts
        limit = limit[0]
        while True:
            count = min(size, search_cap - k + 1)
            if count < 1:
                raise ExtractionFailure(step, float(eps[0]), search_cap,
                                        best_candidate, best_violation)
            vals = scan.fixed(k, count)
            bad = np.abs(vals) > limit
            rejected = bad.any(axis=1)
            if not rejected.all():
                k, size = k + int(np.argmin(rejected)), first_block
                break
            worst = np.abs(vals[np.arange(len(vals)), np.argmax(bad, axis=1)])
            c = int(np.argmin(worst))
            if worst[c] < best_violation:
                best_violation, best_candidate = float(worst[c]), k + c
            k, size = k + len(vals), min(2 * size, _BLOCK)
    return indices, thresholds, parts


def _sample_search(model, target_length, n_grid, D, eps_floor, search_cap,
                   start, bank):
    """(indices, thresholds, entry chunks) of the sample-mode plan: per
    candidate, one vectorised estimate over all predecessors per level."""
    indices, thresholds, parts = [], {}, []
    for step in range(1, target_length + 1):
        eps = step_epsilon(step, eps_floor)
        thresholds[step] = eps
        levels = admissible_levels(step, n_grid) if indices else []
        best_candidate, best_violation = None, math.inf
        for k in range(indices[-1] + 1 if indices else start, search_cap + 1):
            worst, records = 0.0, []
            for N in levels:
                est, hw = bank.estimate(indices, k, N, D)
                amount = float(np.max(np.abs(est) + hw))
                records.append((N, est, hw))
                worst = max(worst, amount)
                if amount > eps:
                    break
            else:       # no level is violated: k is accepted
                break
            if worst < best_violation:
                best_violation, best_candidate = worst, k
        else:           # the search window is exhausted
            raise ExtractionFailure(step, eps, search_cap,
                                    best_candidate, best_violation)
        indices.append(k)
        js = np.arange(1, step, dtype=np.int64)
        for N, est, hw in records:
            parts.append((js, np.full(len(js), step), np.full(len(js), N),
                          np.stack((est, hw), axis=1)))
    return indices, thresholds, parts


def greedy_extract(model: SequenceModel, target_length: int, n_grid,
                   D: CorrectorSeries, mode: str = "exact",
                   eps_floor: float | None = None,
                   search_cap: int | None = None, seed: int = 0,
                   R: int = 400, min_index: int = 1) -> ExtractionPlan:
    """``min_index`` restricts the candidate pool to indices >= min_index;
    the zero-corrector route starts the search deep enough along the
    sequence that the truncated energies have already decayed.

    Exact mode scans blocks of candidates against the lead rows (see
    ``_exact_search``; under the comonotone coupling, one pair oracle call
    per predecessor and level); sample mode makes one vectorised estimate
    over all predecessors per candidate and level."""
    if mode not in ("exact", "sample"):
        raise ExtractConfigError(f"unknown mode {mode!r}")
    if target_length < 1:
        raise ExtractConfigError("target_length must be >= 1")
    n_grid = tuple(sorted(int(N) for N in n_grid))
    if len(set(n_grid)) < len(n_grid):
        raise ExtractConfigError("n_grid repeats a level")
    if eps_floor is None:
        eps_floor = 0.0 if mode == "exact" else 1e-2
    if search_cap is None:
        search_cap = min(model.index_cap,
                         min_index - 1 + target_length + 2 * max(n_grid) + 64)
    if search_cap > model.index_cap:
        raise ExtractConfigError("search_cap exceeds the model's index_cap")
    start = max(int(min_index), 1)
    if search_cap < start:
        raise ExtractConfigError("empty search window: search_cap is below "
                                 "the first candidate index")

    if mode == "exact":
        indices, thresholds, parts = _exact_search(
            model, target_length, n_grid, D, eps_floor, search_cap, start)
    else:
        bank = _SampleBank(model, search_cap, R, seed)
        indices, thresholds, parts = _sample_search(
            model, target_length, n_grid, D, eps_floor, search_cap, start,
            bank)
    return ExtractionPlan(tuple(indices), n_grid, thresholds,
                          PlanEntries.from_parts(parts,
                                                 1 if mode == "exact" else 2),
                          mode, int(seed), float(eps_floor), int(search_cap),
                          _DETAIL_STEPS, D.provenance,
                          R if mode == "sample" else 0)


def _violations(plan: ExtractionPlan, keep) -> list:
    """The keys of the entries in the mask ``keep`` whose stored values
    exceed their step's threshold: |value| in exact mode, |estimate| +
    half_width in sample mode."""
    e = plan.achieved
    amounts = np.abs(e.values[:, 0])
    if plan.mode != "exact":
        amounts = amounts + e.values[:, 1]
    thresholds = np.zeros(max(plan.thresholds, default=0) + 1)
    thresholds[list(plan.thresholds)] = list(plan.thresholds.values())
    bad = keep & (amounts > thresholds[e.n])
    return list(zip(e.j[bad].tolist(), e.n[bad].tolist(), e.N[bad].tolist()))


def _pair_values(model: SequenceModel, D: CorrectorSeries, indices, n_grid,
                 j, n, N) -> np.ndarray:
    """Exact inner products of the entries (j, n, N) of a plan with these
    ``indices``: the moment rows of all indices in one call, then the
    entries' pair arithmetic in blocks of ``_BLOCK * 32``, bit for bit what
    the scalar oracle gives.  Without a row form, the pair oracle per
    entry."""
    rows = model.moment_rows(indices, n_grid, D)
    if rows is None:
        return np.array([model.pair_inner_product(indices[a - 1],
                                                  indices[b - 1], c, D)
                         for a, b, c in zip(j.tolist(), n.tolist(),
                                            N.tolist())], dtype=float)
    out = np.empty(len(j))
    for a in range(0, len(j), _BLOCK * 32):
        part = slice(a, a + _BLOCK * 32)
        lev = np.searchsorted(n_grid, N[part])
        out[part] = model.row_inner_product(rows[j[part] - 1, lev],
                                            rows[n[part] - 1, lev])
    return out


def _exact_values(plan: ExtractionPlan, model: SequenceModel,
                  D: CorrectorSeries) -> np.ndarray:
    """Fresh exact values of the plan's entries, aligned with
    ``plan.achieved``."""
    e = plan.achieved
    return _pair_values(model, D, plan.indices, plan.n_grid, e.j, e.n, e.N)


def verify_plan(plan: ExtractionPlan, model: SequenceModel,
                D: CorrectorSeries) -> dict:
    """Recompute every stored inner product from scratch and check the
    recorded constraints: every pair the plan records, not only the
    maximising predecessors the search relies on.  Exact mode builds the
    plan's moment rows once; sample mode makes one estimate per (step,
    level) over all the predecessors recorded there."""
    e, max_diff = plan.achieved, 0.0
    if plan.mode == "exact" and len(e):
        max_diff = float(np.max(np.abs(_exact_values(plan, model, D)
                                       - e.values[:, 0])))
    elif len(e):
        bank = _SampleBank(model, plan.search_cap, plan.sample_R, plan.seed)
        order = np.lexsort((e.N, e.n))
        n, N = e.n[order], e.N[order]
        cuts = np.flatnonzero((n[1:] != n[:-1]) | (N[1:] != N[:-1])) + 1
        idx = np.array(plan.indices)
        for group in np.split(order, cuts):
            est, _ = bank.estimate(idx[e.j[group] - 1],
                                   plan.indices[e.n[group[0]] - 1],
                                   e.N[group[0]], D)
            max_diff = max(max_diff, float(np.max(np.abs(
                est - e.values[group, 0]))))
    violations = _violations(plan, np.ones(len(e), dtype=bool))
    return {"checked": len(e), "max_abs_diff": max_diff,
            "violations": violations, "ok": not violations}


def check_plan_subsequence(plan: ExtractionPlan, keep_steps) -> dict:
    """Hereditary closure at the plan level: the retained steps, checked
    against the ORIGINAL step thresholds, still satisfy every recorded
    constraint involving only retained steps."""
    e, keep = plan.achieved, list(keep_steps)
    mask = np.isin(e.j, keep) & np.isin(e.n, keep)
    violations = _violations(plan, mask)
    return {"checked": int(mask.sum()), "violations": violations,
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
