"""Truncation and greedy near-orthogonal subsequence extraction.

The selection rule mirrors the inductive argument behind the hereditary
WLLN: having chosen k_1 < ... < k_{n-1}, accept the smallest candidate
k > k_{n-1} such that for every already-chosen index and every admissible
level N the centered truncated inner product

    E[(f_{k_j} 1{|f_{k_j}|<=N} - D_N)(f_k 1{|f_k|<=N} - D_N)]

is at most eps_n = max(exp(-n^2), eps_floor) in absolute value.  A level N
is admissible at step n when N <= exp(n^2).  Only the admissible levels
of the finite grid are checked, a surrogate for the unbounded family of
levels in the asymptotic argument, so a plan may break eps_n off the grid
(README gives the counterexample demo's case, 4,095 at N = 8,192).

``_schedule`` is the one owner of this rule: the searches, the plan's
check and the ``thresholds`` object of ``plan.json`` all read eps_n from
it, and a plan stores no thresholds of its own.  Steps are numbered from
1, so the predecessor accepted at step j is indices[j - 1].

Two searches serve the laws, each in time linear in the candidates it
examines.  A law with moment rows (independent coordinates, the
single-draw tail-vanishing model, the latent-shift factorization) goes to
``_exact_search``: ``moment_rows`` gives a block of candidates' truncated
moments at every level as one (candidates, levels, width) array, a pair's
inner product is float arithmetic on two rows, and the model's
``lead_slots`` name, per level, the few accepted steps at which the
largest |inner product| with a later index can sit.  One kernel keeps
those steps, running while candidates are accepted step after step and
fixed while a step rejects them.  Everything else goes to one candidate
loop, ``_candidate_search``: sample mode, on common-random-number Monte
Carlo estimates whose |estimate| + 99% half-width must clear eps_n, and
exact mode under the comonotone coupling, which has no row form and is
scored with the pair oracle.  The sample bank samples the search window
once, at most 2^25 values (256 MiB; a larger window is a config error),
and caches per level the centered truncated rows of the indices accepted
so far, so an estimate at step n is one product and two reductions over
n - 1 cached rows.  The rows are C-contiguous (rows, R) and reduced along
axis 1, so batched estimates are bit for bit one-row-at-a-time
reductions.  ``verify_plan`` recomputes every recorded entry, in exact
mode from the plan's rows, bit for bit the one-pair-at-a-time formulas
of ``reference_inner_product`` in ``tests/scalar_reference.py``, in
sample mode from a bank of the plan's indices only.

Sample mode certifies nothing: its 99% half-width is a normal
approximation, 0 for a band no replication hits, and the recheck reads the
search's own paths, so ``plan_check.json`` cannot catch a false entry.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .correctors import CorrectorSeries
from .models import Entries, SequenceModel

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
# exact mode records every predecessor's inner product for the first steps
_DETAIL_STEPS = 16
# most candidates one exact scan scores at once; bounds its arrays
_BLOCK = 2048
# candidates the first block after a rejection scores; sizes then double
_FIRST_BLOCK = 8
# rows of a growing member of plan.json encoded at once
_WRITE_ROWS = 1024
# plan.json's encoder: sorted keys, no whitespace, strict JSON (a NaN or an
# infinity is a ValueError).  It encodes batches built fresh from scalars,
# which hold no cycle, so it skips the cycle check
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           allow_nan=False, check_circular=False).encode


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
# sampled centered inner products (common random numbers)
# -------------------------------------------------------------------------

# the bank reads replications 2^63, 2^63 + 1, ... of the seed's streams,
# which no Monte Carlo probe reads: checking a sample-mode plan with
# ``wlln_probe`` uses paths the selection was not tuned on
_BANK_REPLICATIONS = 2**63
# most values a bank samples: 2^25 doubles, 256 MiB
_BANK_VALUES = 1 << 25


class _SampleBank:
    """R seeded paths of the increasing ``indices``, shared by every
    estimate under the centering D.

    ``values`` (R, len(indices)) holds the chunks of ``sample_blocks``,
    ``Entries`` written over zeros: column c holds f_{indices[c]} on every
    replication.  Per level N the bank caches the centered rows f_j^{[-N,N]} - D_N of the indices it has
    scored against (the search's accepted indices in step order, the
    plan's in the recheck), each computed once, C-contiguous as (rows, R).
    An estimate multiplies a prefix of the rows by the candidate's
    centered row and reduces the product along axis 1, once for the mean
    and once for the squared deviations, in the order of operations of
    ``np.mean`` and ``np.std(ddof=1)``: each row is summed exactly as a
    one-row reduction sums it, so estimates do not depend on how many are
    made together.  Reducing along axis 0 of an (R, rows) block would
    not."""

    def __init__(self, model: SequenceModel, indices, R: int, seed: int,
                 D: CorrectorSeries):
        if R < 100:
            raise ExtractConfigError("sample mode requires R >= 100")
        if len(indices) * R > _BANK_VALUES:
            raise ExtractConfigError(
                f"sample bank of {len(indices)} indices x R {R} = "
                f"{len(indices) * R} values exceeds the cap of 2^25 values "
                f"(256 MiB): lower search_cap or sample_R")
        self.indices = np.asarray(indices, dtype=np.int64)
        self.R, self.D = int(R), D
        self.values = np.zeros((self.R, len(self.indices)))
        factors, r0 = [], 0
        for chunk, f in model.sample_blocks(self.indices, seed, self.R,
                                            first=_BANK_REPLICATIONS):
            if isinstance(chunk, Entries):
                self.values[r0 + chunk.row, chunk.col] = chunk.val
            else:
                self.values[r0:r0 + len(chunk)] = chunk
            factors.append(f)
            r0 += len(chunk)
        self.factors = None if factors[0] is None else np.concatenate(factors)
        # the columns of the indices scored against, in order, and per
        # level [their centered rows, how many are filled, D_N]
        self._kept, self._levels = [], {}

    def _level(self, N: int):
        """The level's centered rows, filled for every kept column, and
        D_N: (R,) for a conditional corrector, a scalar otherwise."""
        level = self._levels.get(N)
        if level is None:
            d = self.D.realized([int(N)], self.factors)[..., 0]
            level = self._levels[N] = [np.empty((0, self.R)), 0, d]
        rows, filled, d = level
        kept = len(self._kept)
        if filled < kept:
            if len(rows) < kept:     # capacity doubles
                grown = np.empty((max(kept, 2 * len(rows)), self.R))
                grown[:filled] = rows[:filled]
                level[0] = rows = grown
            rows[filled:kept] = \
                truncate_array(self.values[:, self._kept[filled:]].T, N) - d
            level[1] = kept
        return rows, d

    def estimate(self, kept, k: int, N: int):
        """Estimates and 99% half-widths of the centered inner products of
        f_k with each f_j, j in ``kept``, as two arrays aligned with
        ``kept``.  Successive calls pass prefixes of one sequence, so the
        rows already cached are the first ones of ``kept``."""
        if len(kept) > len(self._kept):
            self._kept.extend(self.indices.searchsorted(
                kept[len(self._kept):]).tolist())
        rows, d = self._level(N)
        y = truncate_array(self.values[:, self.indices.searchsorted(k)], N) - d
        prod = rows[:len(kept)] * y
        est = np.add.reduce(prod, axis=1) / self.R
        prod -= est[:, None]
        prod *= prod
        std = np.sqrt(np.add.reduce(prod, axis=1) / (self.R - 1))
        return est, _Z99 * std / math.sqrt(self.R)


# -------------------------------------------------------------------------
# the greedy plan
# -------------------------------------------------------------------------

class PlanEntries:
    """The recorded inner products in key order, sorted by (j, n, N), as
    parallel columns: predecessor step ``j``, step ``n`` and level ``N``
    (int64), and ``values``, one row per entry: [value] in exact mode,
    [estimate, half_width] in sample mode."""

    def __init__(self, j, n, N, values):
        self.j, self.n, self.N, self.values = j, n, N, values

    @classmethod
    def from_parts(cls, parts: list, width: int) -> "PlanEntries":
        """The entries of chunks (j, n, N, values) of the same layout, put
        in key order; ``width`` is the number of value fields.  The searches
        give the chunks in step order and a predecessor's entries within a
        step in level order, so a stable sort by j alone, a merge of a few
        runs, finishes the order.  Empties ``parts``, so the chunks of each
        column are freed once it is joined, and reorders one column at a
        time."""
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, empty, np.empty((0, width)))
        columns = [list(col) for col in zip(*parts)]
        parts.clear()
        for c in range(4):
            columns[c] = np.concatenate(columns[c])
        order = np.argsort(columns[0], kind="stable")
        for c in range(4):
            columns[c] = columns[c][order]
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.j)


@dataclass
class ExtractionPlan:
    indices: tuple          # selected indices k_1 < k_2 < ...
    n_grid: tuple           # truncation levels
    achieved: PlanEntries   # (j_step, n_step, N) with value or (estimate, hw)
    mode: str
    seed: int
    eps_floor: float
    search_cap: int
    detail_steps: int
    corrector_ref: str
    sample_R: int = 0

    def write_json(self, fh) -> None:
        """Write ``plan.json`` to the text file ``fh``: the bytes of
        ``json.dumps(tree, sort_keys=True, separators=(",", ":"))`` and a
        newline, where ``achieved`` holds the entries as rows in key order,
        their columns named by ``achieved_fields``: (j, n, N, value) exact,
        (j, n, N, estimate, half_width) sampled.  The members that grow with
        the plan (``achieved``, ``indices`` and ``thresholds``, whose keys
        are the steps as strings, in string order) are encoded
        ``_WRITE_ROWS`` rows at a time from slices of the plan's columns,
        so writing holds one batch beside the plan at any length."""
        e, length = self.achieved, len(self.indices)
        steps = _string_order(length)

        def rows(a, b):
            return list(zip(*(col[a:b].tolist() for col in (e.j, e.n, e.N)),
                            *e.values[a:b].T.tolist()))

        def thresholds(a, b):
            batch = list(itertools.islice(steps, b - a))
            return dict(zip(map(str, batch),
                            self.step_thresholds(batch).tolist()))

        members = {
            "achieved_fields": ["j", "n", "N"] + (
                ["value"] if self.mode == "exact"
                else ["estimate", "half_width"]),
            "n_grid": self.n_grid,
            "mode": self.mode,
            "seed": self.seed,
            "eps_floor": self.eps_floor,
            "search_cap": self.search_cap,
            "detail_steps": self.detail_steps,
            "corrector": self.corrector_ref,
            "sample_R": self.sample_R,
        }
        # per growing member: its brackets, its row count, and rows a..b,
        # asked for in order, as a list or an object
        growing = {"achieved": ("[]", len(e), rows),
                   "indices": ("[]", length, lambda a, b: self.indices[a:b]),
                   "thresholds": ("{}", length, thresholds)}
        for i, key in enumerate(sorted({**members, **growing})):
            fh.write(("," if i else "{") + _encode(key) + ":")
            if key in members:
                fh.write(_encode(members[key]))
                continue
            brackets, count, batch = growing[key]
            fh.write(brackets[0])
            for a in range(0, count, _WRITE_ROWS):
                fh.write(("," if a else "")
                         + _encode(batch(a, a + _WRITE_ROWS))[1:-1])
            fh.write(brackets[1])
        fh.write("}\n")

    def step_thresholds(self, steps) -> np.ndarray:
        """eps_n of each step n in ``steps``, from the step rule."""
        eps = _schedule(tuple(self.n_grid), self.eps_floor)[0]
        return eps[np.minimum(steps, len(eps) - 1)]


def _string_order(last: int):
    """Steps 1, ..., last in the order of their decimal strings (at last =
    200: 1, 10, 100, 101, ..., 109, 11, 110, ...): the walk of the decimal
    prefix tree."""
    n = 1
    for _ in range(last):
        yield n
        if n * 10 <= last:
            n *= 10
        else:
            while n % 10 == 9 or n == last:
                n //= 10
            n += 1


def step_epsilon(n: int, eps_floor: float) -> float:
    raw = math.exp(-float(n) * n) if n * n < 700 else 0.0
    return max(raw, eps_floor)


def admissible_levels(n: int, n_grid) -> list:
    # N <= exp(n^2), enforced literally (step 1 admits only N <= e)
    return [N for N in n_grid if math.log(N) <= float(n) * n]


@functools.lru_cache(maxsize=64)
def _schedule(n_grid: tuple, eps_floor: float):
    """The step rule as two tables for steps 0, ..., last: ``eps``, eps_n,
    and ``limit``, per level the bound |value| must not pass, eps_n where
    the level is admissible and inf elsewhere.  Both are constant from step
    ``last`` on, where ``step_epsilon`` takes exp(-n^2) as 0 and every
    level is admissible, so step n reads row min(n, last).  Built once per
    (grid, floor); the tables are read-only."""
    last = 1
    while step_epsilon(last, 0.0) > 0.0 \
            or len(admissible_levels(last, n_grid)) < len(n_grid):
        last += 1
    eps = [step_epsilon(n, eps_floor) for n in range(last + 1)]
    limit = [[e if N in admissible_levels(n, n_grid) else math.inf
              for N in n_grid] for n, e in enumerate(eps)]
    tables = np.array(eps), np.array(limit)
    for t in tables:
        t.flags.writeable = False
    return tables


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


def _entry_keys(step, leads, levels):
    """(j, n, N) of an exact-mode step's entries in key order: per level the
    lead's, and at detail steps every predecessor at every level."""
    keys = set(zip(leads, levels))
    if step <= _DETAIL_STEPS:
        keys.update((j, N) for N in levels for j in range(1, step))
    j, N = np.array(sorted(keys), dtype=np.int64).reshape(-1, 2).T
    return j, np.full(len(j), step), N


def _exact_search(model, target_length, n_grid, D, eps_floor, search_cap,
                  start, row):
    """(indices, entry chunks) of the exact-mode plan of a law with moment
    rows; ``row`` is the first candidate's.

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
    eps, limit = _schedule(n_grid, eps_floor)
    last = len(eps) - 1
    # step 1 admits no level: the first candidate is accepted
    indices, parts, detail_keys = [start], [], []
    scan = _RowScan(model, D, n_grid, row)
    grid = np.array(n_grid, dtype=np.int64)

    def record(first, vals, jsteps, admissible):
        """Entry chunks of the candidates accepted from step ``first`` on;
        the keys of detail steps, whose values come after the search."""
        detail = max(0, min(len(vals), _DETAIL_STEPS + 1 - first))
        for t in range(detail):
            step, levels = first + t, n_grid[:int(admissible[t].sum())]
            detail_keys.append(_entry_keys(step, jsteps[t].tolist(), levels))
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
            raise ExtractionFailure(step, float(eps[min(step, last)]),
                                    search_cap, best_candidate, best_violation)
        vals = scan.running(k, count, step)
        bound = limit[np.minimum(np.arange(step, step + len(vals)), last)]
        bad = np.abs(vals) > bound
        rejected = bad.any(axis=1)
        p = int(np.argmax(rejected)) if rejected.any() else len(vals)
        indices.extend(range(k, k + p))
        record(step, vals[:p], scan.commit(p), np.isfinite(bound[:p]))
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
        # until the first feasible candidate, where the next run starts (an
        # exhausted window fails there)
        bound = bound[0]
        while k <= search_cap:
            vals = scan.fixed(k, min(size, search_cap - k + 1))
            bad = np.abs(vals) > bound
            rejected = bad.any(axis=1)
            if not rejected.all():
                k, size = k + int(np.argmin(rejected)), first_block
                break
            worst = np.abs(vals[np.arange(len(vals)), np.argmax(bad, axis=1)])
            c = int(np.argmin(worst))
            if worst[c] < best_violation:
                best_violation, best_candidate = float(worst[c]), k + c
            k, size = k + len(vals), min(2 * size, _BLOCK)
    # the detail steps are steps 2, 3, ..., so their entries come first;
    # one ``moment_rows`` call serves them all
    if detail_keys:
        j, n, N = map(np.concatenate, zip(*detail_keys))
        parts.insert(0, (j, n, N, _pair_values(
            model, D, indices[:_DETAIL_STEPS], n_grid, j, n, N)[:, None]))
    return indices, parts


def _candidate_search(target_length, n_grid, eps_floor, search_cap, start,
                      score, record):
    """(indices, entry chunks) of a plan scanned one candidate at a time.
    ``score(indices, k, N)`` gives, per predecessor, the amount that must
    stay within eps_n and what its entry holds, level by level up to the
    first violated one; ``record(step, scored)`` turns the accepted
    candidate's (N, amounts, values) per level into entry chunks."""
    eps, limit = _schedule(n_grid, eps_floor)
    indices, parts = [], []
    for step in range(1, target_length + 1):
        s = min(step, len(eps) - 1)
        threshold = float(eps[s])
        # the first candidate has no predecessor to be scored against
        levels = n_grid[:int(np.isfinite(limit[s]).sum())] if indices else ()
        best_candidate, best_violation = None, math.inf
        for k in range(indices[-1] + 1 if indices else start, search_cap + 1):
            worst, scored = 0.0, []
            for N in levels:
                amounts, values = score(indices, k, N)
                scored.append((N, amounts, values))
                worst = max(worst, float(np.max(amounts)))
                if worst > threshold:
                    break
            else:       # no level is violated: k is accepted
                break
            if worst < best_violation:
                best_violation, best_candidate = worst, k
        else:           # the search window is exhausted
            raise ExtractionFailure(step, threshold, search_cap,
                                    best_candidate, best_violation)
        indices.append(k)
        parts.extend(record(step, scored))
    return indices, parts


def _sample_scoring(bank):
    """Sample mode's ``score`` and ``record``: the bank's estimates and
    half-widths, every predecessor recorded."""
    def score(indices, k, N):
        est, hw = bank.estimate(indices, k, N)
        return np.abs(est) + hw, (est, hw)

    def record(step, scored):
        js = np.arange(1, step, dtype=np.int64)
        return [(js, np.full(len(js), step), np.full(len(js), N),
                 np.stack(values, axis=1)) for N, _, values in scored]
    return score, record


def _pair_scoring(model, D):
    """The comonotone coupling's ``score`` and ``record``: the pair oracle's
    values; the lead is the first predecessor of largest |value|."""
    def score(indices, k, N):
        v = np.array([model.pair_inner_product(j, k, N, D) for j in indices])
        return np.abs(v), v

    def record(step, scored):
        levels = [N for N, _, _ in scored]
        j, n, N = _entry_keys(step, [int(np.argmax(amounts)) + 1
                                     for _, amounts, _ in scored], levels)
        vals = np.array([v for _, _, v in scored], ndmin=2)
        return [(j, n, N, vals[np.searchsorted(levels, N), j - 1][:, None])]
    return score, record


def greedy_extract(model: SequenceModel, target_length: int, n_grid,
                   D: CorrectorSeries, mode: str = "exact",
                   eps_floor: float | None = None,
                   search_cap: int | None = None, seed: int = 0,
                   R: int = 400, min_index: int = 1) -> ExtractionPlan:
    """``min_index`` restricts the candidate pool to indices >= min_index;
    the zero-corrector route starts the search deep enough along the
    sequence that the truncated energies have already decayed.  A law with
    moment rows goes to ``_exact_search``, anything else to
    ``_candidate_search``."""
    if mode not in ("exact", "sample"):
        raise ExtractConfigError(f"unknown mode {mode!r}")
    if target_length < 1:
        raise ExtractConfigError("target_length must be >= 1")
    n_grid = tuple(sorted(int(N) for N in n_grid))
    if len(set(n_grid)) < len(n_grid):
        raise ExtractConfigError("n_grid repeats a level")
    if eps_floor is None:
        eps_floor = 0.0 if mode == "exact" else 1e-2
    if not math.isfinite(eps_floor):
        raise ExtractConfigError("eps_floor must be finite")
    if min_index < 1:
        raise ExtractConfigError("min_index must be >= 1")
    if search_cap is None:
        search_cap = min(model.index_cap,
                         min_index - 1 + target_length + 2 * max(n_grid) + 64)
    if search_cap > model.index_cap:
        raise ExtractConfigError("search_cap exceeds the model's index_cap")
    start = int(min_index)
    if search_cap < start:
        raise ExtractConfigError("empty search window: search_cap is below "
                                 "the first candidate index")

    rows = model.moment_rows((start,), n_grid, D) if mode == "exact" \
        else None
    if rows is not None:
        indices, parts = _exact_search(model, target_length, n_grid, D,
                                       eps_floor, search_cap, start, rows[0])
    else:
        scoring = _pair_scoring(model, D) if mode == "exact" else \
            _sample_scoring(_SampleBank(model, range(start, search_cap + 1),
                                        R, seed, D))
        indices, parts = _candidate_search(target_length, n_grid, eps_floor,
                                           search_cap, start, *scoring)
    return ExtractionPlan(tuple(indices), n_grid,
                          PlanEntries.from_parts(parts,
                                                 1 if mode == "exact" else 2),
                          mode, int(seed), float(eps_floor), int(search_cap),
                          _DETAIL_STEPS, D.provenance,
                          R if mode == "sample" else 0)


def _pair_values(model: SequenceModel, D: CorrectorSeries, indices, n_grid,
                 j, n, N) -> np.ndarray:
    """Exact inner products of the entries (j, n, N) of a plan with these
    ``indices``: the moment rows of all indices in one call, then the
    entries' pair arithmetic in blocks of ``_BLOCK * 32``, bit for bit the
    scalar pair formulas of ``tests/scalar_reference.py``.  Without a row
    form, the pair oracle per entry."""
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


def verify_plan(plan: ExtractionPlan, model: SequenceModel,
                D: CorrectorSeries) -> dict:
    """Recompute every stored inner product from scratch and check the
    recorded constraints: every pair the plan records, not only the
    maximising predecessors the search relies on.  Exact mode builds the
    plan's moment rows once; sample mode makes one estimate per (step,
    level) over all the predecessors recorded there."""
    e, max_diff = plan.achieved, 0.0
    if plan.mode == "exact" and len(e):
        fresh = _pair_values(model, D, plan.indices, plan.n_grid, e.j, e.n,
                             e.N)
        max_diff = float(np.max(np.abs(fresh - e.values[:, 0])))
    elif len(e):
        bank = _SampleBank(model, plan.indices, plan.sample_R, plan.seed, D)
        order = np.lexsort((e.N, e.n))
        n, N = e.n[order], e.N[order]
        cuts = np.flatnonzero((n[1:] != n[:-1]) | (N[1:] != N[:-1])) + 1
        for group in np.split(order, cuts):
            j = e.j[group]
            est, _ = bank.estimate(plan.indices[:int(j.max())],
                                   plan.indices[e.n[group[0]] - 1],
                                   int(e.N[group[0]]))
            max_diff = max(max_diff, float(np.max(np.abs(
                est[j - 1] - e.values[group, 0]))))
    # a stored entry breaks its step's threshold by |value| in exact mode,
    # by |estimate| + half_width in sample mode
    amounts = np.abs(e.values[:, 0])
    if plan.mode != "exact":
        amounts = amounts + e.values[:, 1]
    bad = amounts > plan.step_thresholds(e.n)
    violations = list(zip(e.j[bad].tolist(), e.n[bad].tolist(),
                          e.N[bad].tolist()))
    return {"checked": len(e), "max_abs_diff": max_diff,
            "violations": violations, "ok": not violations}
