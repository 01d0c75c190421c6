"""Monte Carlo verification of convergence in probability.

The probed quantity is P(|(1/N) sum_{n<=N} f_{k_n} - D_N| > eps) across a
grid of N, estimated from R seeded replications with Wilson 99% intervals.
"Convergence in probability" is an asymptotic claim, so the verdict is a
falsifiable finite-sample reading:

* ``consistent-with-wlln``  -- final-grid-point exceedance below the pass
  threshold and no statistically significant increase across the grid
* ``violation``             -- a later grid point's lower confidence bound
  exceeds an earlier point's upper bound AND the final exceedance is above
  the pass threshold; or, on two or more grid points, every lower bound is
  above the pass threshold AND the exceedance does not fall: the final
  estimate is at least the first and no later interval lies wholly below
  an earlier one.  The law fails when the exceedance does not tend to 0,
  and one near 1 at the first grid point cannot rise
* ``inconclusive``          -- anything else

Every replication r reads f_k from position k of its PCG64DXSM stream (see
``streams``), so f_k is a pure function of (seed, r, k).  Every probe runs
through ``ProbePass``: one loop over ``SequenceModel.sample_blocks``, whose
chunks hold a fixed number of values, so memory stays fixed at any R and
N, and are reduced with array operations only.  Probes queued on one pass
read the same paths: each accumulator takes its first replications and its
columns of every chunk, so the thinning patterns of the hereditary suite,
the truncation gap and the full-sequence probe all read one draw of each
path.

A chunk comes in its law's own form.  A dense block is a view of one of
the sampling call's two buffer slots, into which the chunk after next is
drawn, so every accumulator reduces it before the loop asks for another.
The single draw f_n = g 1{|g| > n} and example41, whose paths are mostly
zeros, yield their non-zero entries (row, column, value), at most the
chunk's 2^17 values of 16 bytes each, let go before the next chunk is
made.  An accumulator reads entries through a map from column to the
segment between its grid points, built once per pass, so its partial sums
are one bincount over row * (G + 1) + segment.  The truncation gap's
outside sums O_N = sum_{n<=N} f 1{|f| > N} are read from the entries past
the smallest level only, a few per chunk on the demo laws: one pass finds
them and each level filters those few.  The L2 terms take the truncated
sums as S_N - O_N.  Realized correctors come from a table each series
builds once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .correctors import CorrectorSeries
from .extract import _Z99
from .models import Entries, SequenceModel
from .streams import Positions


def wilson_interval(successes: int, trials: int, z: float = _Z99):
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class ConvergenceReport:
    n_grid: tuple
    epsilon: float
    replications: int
    p_hat: dict            # N -> exceedance fraction
    ci: dict               # N -> (lo, hi)
    verdict: str
    seed: int
    l2_hat: dict | None = None
    l2_se: dict | None = None
    markov_ok: bool | None = None
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        rows = []
        for N in self.n_grid:
            row = {"N": N, "p_hat": self.p_hat[N],
                   "ci_lo": self.ci[N][0], "ci_hi": self.ci[N][1]}
            if self.l2_hat is not None:
                row["l2_hat"] = self.l2_hat[N]
                row["l2_se"] = self.l2_se[N]
            rows.append(row)
        return {"epsilon": self.epsilon, "replications": self.replications,
                "seed": self.seed, "verdict": self.verdict,
                "markov_ok": self.markov_ok, "notes": self.notes,
                "grid": rows}


def _verdict(n_grid, p_hat, ci, pass_threshold):
    grid = list(n_grid)
    cis = [ci[N] for N in grid]
    pairs = list(combinations(cis, 2))
    increase = any(later[0] > earlier[1] for earlier, later in pairs)
    decrease = any(later[1] < earlier[0] for earlier, later in pairs)
    final_bad = p_hat[grid[-1]] > pass_threshold
    # high and not falling: one that starts near the threshold, or falls
    # however slowly, may still tend to 0
    saturated = (len(grid) > 1 and p_hat[grid[-1]] >= p_hat[grid[0]]
                 and all(lo > pass_threshold for lo, _ in cis)
                 and not decrease)
    if (increase and final_bad) or saturated:
        return "violation"
    if not increase and not final_bad:
        return "consistent-with-wlln"
    return "inconclusive"


class ProbeInputError(ValueError):
    """A probe argument outside its documented range, raised before any
    path is sampled; or values whose sums overflow a double, raised as the
    paths are read."""


def _grid(n_grid) -> tuple:
    grid = tuple(sorted({int(N) for N in n_grid}))
    if not grid or grid[0] < 1:
        raise ProbeInputError("the N grid must be non-empty and positive")
    return grid


def _epsilon(epsilon) -> float:
    if not epsilon > 0:
        raise ProbeInputError("epsilon must be positive")
    return float(epsilon)


def _finite(sums, grid, what: str) -> np.ndarray:
    """The (B, G) ``sums``, N in ``grid``, refused at the first N where one
    is not finite: an overflowing sum, or inf - inf, would compare as no
    exceedance.  ``ProbePass.run`` reads the paths with numpy's overflow
    warnings off, so numpy does not warn of what this refuses."""
    if not np.isfinite(sums).all():
        bad = ~np.isfinite(sums).all(axis=0)
        raise ProbeInputError(f"{what} at N = {grid[int(np.argmax(bad))]} "
                              "overflow a double")
    return sums


def _partial_sums(vals, grid) -> np.ndarray:
    """(B, G) sums S_N of the first N columns, N in ``grid``: sums over the
    segments between grid points, then running sums.  Entries (see
    ``_segments``) are summed by one bincount over row * (G + 1) + segment,
    whose segment G is dropped."""
    if isinstance(vals, Entries):
        # the key is made in intp, bincount's index type, from the int32
        # rows and segments, so bincount reads it without a copy
        G = len(grid) + 1
        key = np.multiply(vals.row, G, dtype=np.intp)
        key += vals.col
        segs = np.bincount(key, weights=vals.val,
                           minlength=len(vals) * G).reshape(-1, G)[:, :-1]
    else:
        segs = np.add.reduceat(vals, (0,) + grid[:-1], axis=1)
    return _finite(np.cumsum(segs, axis=1), grid, "the partial sums")


def _past(vals, grid) -> tuple:
    """The entries with |f| > grid[0], found in one pass: their rows,
    positions, values and the mask that found them, with the last position
    in the first N columns per level (an entry's segment is at most N's)."""
    if isinstance(vals, Entries):
        past = (vals.val > grid[0]) | (vals.val < -grid[0])
        rows, at, f = vals.row[past], vals.col[past], vals.val[past]
        last = range(len(grid))
    else:
        past = (vals > grid[0]) | (vals < -grid[0])   # no float copy of |vals|
        rows, at = np.divmod(np.flatnonzero(past), vals.shape[1])
        f = vals[rows, at]
        last = [N - 1 for N in grid]
    return rows, at, f, last, past


def _level_sums(past, B: int, grid, outside: bool) -> np.ndarray:
    """(B, G) sums over the first N columns, N in ``grid``, of the entries
    ``past`` grid[0] (see ``_past``) with |f| > N (``outside``) or with
    |f| <= N."""
    rows, at, f, last, _ = past
    size = np.abs(f)
    out = np.empty((B, len(grid)))
    for g, N in enumerate(grid):
        keep = (at <= last[g]) & ((size > N) if outside else (size <= N))
        out[:, g] = np.bincount(rows[keep], weights=f[keep], minlength=B)
    return out


def _outside_sums(vals, grid) -> np.ndarray:
    """(B, G) sums O_N of f 1{|f| > N} over the first N columns, N in
    ``grid``, read only from the entries with |f| > grid[0]: one pass finds
    them, and each level then filters and sums those few entries."""
    return _finite(_level_sums(_past(vals, grid), len(vals), grid, True),
                   grid, "the sums outside the band")


def _inside_sums(vals, grid) -> np.ndarray:
    """(B, G) sums of f 1{|f| <= N} over the first N columns, N in
    ``grid``: the partial sums of the values with |f| <= grid[0], plus per
    level the entries past grid[0] with |f| <= N.  No summand exceeds N in
    size, where S_N - O_N would carry the rounding error of the largest
    values f takes."""
    past = _past(vals, grid)
    if isinstance(vals, Entries):
        small = Entries(vals.row, vals.col, np.where(past[-1], 0.0, vals.val),
                        vals.rows)
    else:
        small = np.where(past[-1], 0.0, vals)
    return (_partial_sums(small, grid)
            + _level_sums(past, len(vals), grid, False))


def _segments(cols, width: int, grid) -> np.ndarray:
    """The map that an accumulator reads entries through: for each column,
    the segment g of its position p among ``cols`` (a slice or an index
    array of ``range(width)``): the g with grid[g - 1] <= p < grid[g],
    g = 0 for p < grid[0], and len(grid) for the columns off ``cols`` or
    past the last grid point."""
    kept = range(width)[cols] if isinstance(cols, slice) else cols
    seg = np.full(width, len(grid), dtype=np.min_scalar_type(len(grid)))
    for g, (lo, hi) in enumerate(zip((0,) + grid[:-1], grid)):
        span = kept[lo:hi]
        # a range is written through a slice, with no index array
        seg[slice(span.start, span.stop, span.step)
            if isinstance(span, range) else span] = g
    return seg


def _select(chunk: Entries, b: int, segments: np.ndarray) -> Entries:
    """The entries of rows 0..b-1, each with its segment from ``segments``
    in place of its column."""
    end = np.searchsorted(chunk.row, b)   # the rows are in order
    return Entries(chunk.row[:end], segments[chunk.col[:end]],
                   chunk.val[:end], b)


_L2_BLOCK = 256


class _Moments:
    """The count, the sum and the squared deviations per column of rows
    added a chunk at a time, in memory fixed in the number of rows: each
    block of ``_L2_BLOCK`` rows, fixed by row number whatever the chunks
    are, is merged into the running values (Chan, Golub and LeVeque).  The
    sum adds row after row, as ``np.mean`` adds the rows of an (R, G)
    array (bit for bit when G > 1)."""

    def __init__(self, width: int):
        self.merged = (0, np.zeros(width), np.zeros(width))
        self.block, self.filled = np.empty((_L2_BLOCK, width)), 0

    def add(self, rows: np.ndarray) -> None:
        while len(rows):
            take = min(_L2_BLOCK - self.filled, len(rows))
            self.block[self.filled:self.filled + take] = rows[:take]
            self.filled, rows = self.filled + take, rows[take:]
            if self.filled == _L2_BLOCK:
                self.merged, self.filled = self.moments(), 0

    def moments(self):
        """(n, sum, M2) of the rows added so far."""
        (n, total, m2), block = self.merged, self.block[:self.filled]
        if not len(block):
            return self.merged
        b, mean = len(block), np.mean(block, axis=0)
        delta = total / max(n, 1) - mean
        return (n + b,
                np.add.reduce(np.concatenate((total[None], block)), axis=0),
                m2 + np.sum((block - mean) ** 2, axis=0)
                + delta * delta * (n * b / (n + b)))


class _Exceedance:
    """Counts of |(1/N) S_N - D_N| > eps per grid point, and optionally the
    L2-criterion terms, accumulated one block of replications at a time;
    ``vals`` has exactly ``n_grid[-1]`` columns, or is entries that give
    segments in place of columns (see ``_segments``)."""

    def __init__(self, D: CorrectorSeries, epsilon: float, n_grid,
                 compute_l2: bool = False):
        self.D, self.epsilon, self.n_grid = D, _epsilon(epsilon), n_grid
        self.levels = np.array(n_grid, dtype=float)
        self.exceed = np.zeros(len(n_grid), dtype=np.int64)
        self.l2 = _Moments(len(n_grid)) if compute_l2 else None

    def add(self, vals: np.ndarray, factors) -> None:
        d = self.D.realized(self.n_grid, factors)
        sums = _partial_sums(vals, self.n_grid)
        self.exceed += np.count_nonzero(
            np.abs(sums / self.levels - d) > self.epsilon, axis=0)
        if self.l2 is not None:
            t = _inside_sums(vals, self.n_grid) - self.levels * d
            self.l2.add((t / self.levels) ** 2)

    def report(self, R: int, seed: int,
               pass_threshold: float) -> ConvergenceReport:
        grid, eps = self.n_grid, self.epsilon
        p_hat = {N: int(c) / R for N, c in zip(grid, self.exceed)}
        ci = {N: wilson_interval(int(c), R) for N, c in zip(grid, self.exceed)}
        report = ConvergenceReport(
            grid, float(eps), R, p_hat, ci,
            _verdict(grid, p_hat, ci, pass_threshold), int(seed))
        if self.l2 is not None:
            _, total, m2 = self.l2.moments()
            report.l2_hat = dict(zip(grid, (total / R).tolist()))
            report.l2_se = dict(zip(grid, (np.sqrt(m2 / (R - 1))
                                           / math.sqrt(R)).tolist()))
            # divided by eps twice: a float eps ** 2 raises past 1.34e154
            # and is 0 below 1.5e-162, where the quotients give inf or 0
            report.markov_ok = all(
                p_hat[N] <= report.l2_hat[N] / eps / eps
                + 3.0 * (_se(p_hat[N], R) + report.l2_se[N] / eps / eps)
                for N in grid)
        return report


def _se(p: float, R: int) -> float:
    return math.sqrt(max(p * (1 - p), 1.0 / R) / R)


@dataclass
class GapReport:
    n_grid: tuple
    epsilon: float
    replications: int
    p_hat: dict
    union_bound: dict
    se: dict
    dominated: bool
    seed: int

    def to_json(self) -> dict:
        return {"epsilon": self.epsilon, "replications": self.replications,
                "seed": self.seed, "dominated": self.dominated,
                "grid": [{"N": N, "p_hat": self.p_hat[N],
                          "union_bound": self.union_bound[N],
                          "se": self.se[N]} for N in self.n_grid]}


class _Gap:
    """Counts of |(1/N) sum_{n<=N} f_{k_n} 1{|f_{k_n}| > N}| > eps per grid
    point, accumulated one block of replications at a time."""

    def __init__(self, epsilon: float, n_grid):
        self.epsilon, self.n_grid = epsilon, n_grid
        self.levels = np.array(n_grid, dtype=float)
        self.exceed = np.zeros(len(n_grid), dtype=np.int64)

    def add(self, vals: np.ndarray, factors) -> None:
        outside = _outside_sums(vals, self.n_grid)
        self.exceed += np.count_nonzero(
            np.abs(outside / self.levels) > self.epsilon, axis=0)

    def report(self, model: SequenceModel, idx, R: int, seed: int) -> GapReport:
        """The counts over R replications against the exact union bound."""
        n_grid = self.n_grid
        p_hat = {N: int(c) / R for N, c in zip(n_grid, self.exceed)}
        bound = {}
        for N in n_grid:
            top = model.pointwise_sup_index(idx[:N])
            ks = idx[:N] if top is None else [top]
            bound[N] = N * max(model.marginal_dist(int(k)).survival(float(N))
                               for k in ks)
        se = {N: _se(p_hat[N], R) for N in n_grid}
        dominated = all(p_hat[N] <= bound[N] + 3.0 * se[N] for N in n_grid)
        return GapReport(n_grid, self.epsilon, R, p_hat, bound, se,
                         dominated, int(seed))


# -------------------------------------------------------------------------
# hereditary behavior
# -------------------------------------------------------------------------

PATTERNS = ("every-2nd", "every-3rd", "random-thinning", "prefix-shift")


def _thinning(n: int, pattern: str, seed: int):
    """The positions, out of n, that ``pattern`` keeps: a slice or a mask."""
    if pattern == "every-2nd":
        return slice(None, None, 2)
    if pattern == "every-3rd":
        return slice(None, None, 3)
    if pattern == "random-thinning":
        # a stream off the replication range
        r = 2**32 + 17
        keep = Positions(np.arange(n)).uniforms(seed, r, r + 1)[0] < 0.5
        keep[0] = True
        return keep
    if pattern == "prefix-shift":
        return slice(1, None)
    raise ValueError(f"unknown pattern {pattern!r}")


@dataclass
class HereditaryReport:
    reports: dict          # pattern -> ConvergenceReport
    all_consistent: bool
    notes: list

    def to_json(self) -> dict:
        return {"all_consistent": self.all_consistent, "notes": self.notes,
                "patterns": {p: r.to_json() for p, r in self.reports.items()}}


# -------------------------------------------------------------------------
# one sampling pass for every probe on an index sequence
# -------------------------------------------------------------------------

class ProbePass:
    """Probes that read one set of sampled paths of ``indices``.

    Each queued probe adds accumulators, and each accumulator reads the
    first ``rows`` replications and some columns of the index sequence.
    ``run`` makes one ``sample_blocks`` loop over the most replications and
    the widest column range any accumulator asks for, hands every
    accumulator its rows and columns of each block, and returns the
    reports in the order the probes were queued.  f_k is a pure function of
    (seed, r, k), so each report equals the one a pass of its own gives.
    A probe's inputs are checked when it is queued, before any path is
    sampled; values whose sums overflow a double can only be found as the
    paths are read, and are refused then, at the first grid point they
    reach.
    """

    def __init__(self, model: SequenceModel, indices, seed: int):
        self.model, self.indices, self.seed = model, indices, int(seed)
        # (rows, columns, accumulator) and one report maker per probe
        self.idx, self._parts, self._reports, self._width = None, [], [], 0

    def _checked(self, length: int = 0) -> np.ndarray:
        """The indices as the model checks them for sampling (past its cap
        a ``CapacityError``), below 2^63 and at least ``length`` long."""
        try:
            self.idx = self.model._checked_indices(self.indices)
        except OverflowError:
            raise ProbeInputError("indices must be below 2^63") from None
        except ValueError as exc:
            raise ProbeInputError(str(exc)) from None
        if len(self.idx) < length:
            raise ProbeInputError(
                "index sequence shorter than the largest grid point")
        return self.idx

    def _read(self, R: int, cols, acc) -> None:
        """``acc`` reads replications 0..R-1 at ``cols``, a slice with an
        explicit stop or an index array."""
        if R < 1:
            raise ProbeInputError("R must be at least 1")
        end = cols.stop if isinstance(cols, slice) else int(cols[-1]) + 1
        self._width = max(self._width, end)
        self._parts.append((int(R), cols, acc))

    def wlln(self, D: CorrectorSeries, epsilon: float, n_grid, R: int,
             pass_threshold: float = 0.05,
             compute_l2: bool = False) -> "ProbePass":
        """Queues ``wlln_probe``."""
        n_grid = _grid(n_grid)
        self._checked(n_grid[-1])
        if compute_l2 and R < 2:
            raise ProbeInputError("compute_l2 needs R >= 2")
        acc = _Exceedance(D, epsilon, n_grid, compute_l2)
        self._read(R, slice(0, n_grid[-1]), acc)
        self._reports.append(lambda: acc.report(int(R), self.seed,
                                                pass_threshold))
        return self

    def gap(self, n_grid, R: int, epsilon: float = 0.25) -> "ProbePass":
        """Queues ``truncation_gap_probe``."""
        if R < 100:
            raise ProbeInputError("R must be at least 100")
        acc = _Gap(_epsilon(epsilon), _grid(n_grid))
        idx = self._checked(acc.n_grid[-1])
        self._read(int(R), slice(0, acc.n_grid[-1]), acc)
        self._reports.append(lambda: acc.report(self.model, idx, int(R),
                                                self.seed))
        return self

    def hereditary(self, D: CorrectorSeries, epsilon: float, n_grid, R: int,
                   patterns=PATTERNS,
                   pass_threshold: float = 0.05) -> "ProbePass":
        """Queues ``hereditary_suite``: one accumulator per pattern, on the
        pattern's columns of the shared block."""
        epsilon = _epsilon(epsilon)
        n_grid = _grid(n_grid)
        idx = self._checked()
        accs, notes = {}, []
        for pattern in patterns:
            keep = _thinning(len(idx), pattern, self.seed)
            cols = np.arange(len(idx))[keep]
            grid = tuple(N for N in n_grid if N <= len(cols))
            if grid != n_grid:
                notes.append(f"{pattern}: grid truncated to {grid} "
                             f"(subsequence length {len(cols)})")
            if not grid:
                notes.append(f"{pattern}: subsequence too short for any grid point")
                continue
            # a slice reads a view of the block; a mask gathers columns
            keep = slice(keep.start, int(cols[grid[-1] - 1]) + 1, keep.step) \
                if isinstance(keep, slice) else cols[: grid[-1]]
            accs[pattern] = (keep, _Exceedance(D, epsilon, grid))
        if not accs:
            raise ProbeInputError("no thinning pattern leaves a subsequence as "
                                  f"long as the smallest grid point {n_grid[0]}")
        for keep, acc in accs.values():
            self._read(R, keep, acc)

        def report():
            reports = {p: acc.report(int(R), self.seed, pass_threshold)
                       for p, (_, acc) in accs.items()}
            return HereditaryReport(reports, all(
                r.verdict == "consistent-with-wlln" for r in reports.values()),
                notes)
        self._reports.append(report)
        return self

    @np.errstate(over="ignore", invalid="ignore")
    def run(self) -> list:
        """Samples the paths once and returns the queued probes' reports."""
        if self._parts:
            R, r0 = max(rows for rows, _, _ in self._parts), 0
            maps = {}   # part -> its column segments, made on first use
            for chunk, factors in self.model.sample_blocks(
                    self.idx[: self._width], self.seed, R):
                for i, (rows, cols, acc) in enumerate(self._parts):
                    b = min(len(chunk), rows - r0)
                    if b <= 0:
                        continue
                    if isinstance(chunk, Entries):
                        if i not in maps:
                            maps[i] = _segments(cols, self._width, acc.n_grid)
                        part = _select(chunk, b, maps[i])
                    else:
                        part = chunk[:b, cols]
                    acc.add(part, None if factors is None else factors[:b])
                r0 += len(chunk)
                # entries are made afresh: let them go before the next chunk
                chunk = part = None
        return [report() for report in self._reports]


def wlln_probe(model: SequenceModel, indices, D: CorrectorSeries,
               epsilon: float, n_grid, R: int, seed: int,
               pass_threshold: float = 0.05,
               compute_l2: bool = False) -> ConvergenceReport:
    """The exceedance probe; ``compute_l2`` adds the L2-criterion estimate
    N^-2 E(sum (f^{[-N,N]} - D_N))^2 and the Markov cross-check."""
    return ProbePass(model, indices, seed).wlln(
        D, epsilon, n_grid, R, pass_threshold, compute_l2).run()[0]


def truncation_gap_probe(model: SequenceModel, indices, n_grid, R: int,
                         seed: int, epsilon: float = 0.25) -> GapReport:
    """Estimates P(|(1/N) sum_{n<=N} f_{k_n} 1{|f_{k_n}| > N}| > eps) and
    compares with the exact union bound N * max_{n<=N} P(|f_{k_n}| > N),
    read at the model's dominating index when it has one."""
    return ProbePass(model, indices, seed).gap(n_grid, R, epsilon).run()[0]


def hereditary_suite(model: SequenceModel, indices, D: CorrectorSeries,
                     epsilon: float, n_grid, R: int, seed: int,
                     patterns=PATTERNS,
                     pass_threshold: float = 0.05) -> HereditaryReport:
    """Runs the WLLN probe on derived subsequences with the SAME corrector
    series, indexed by the new position count.  Every pattern reads its
    columns from one base block per chunk of replications, so each report
    equals ``wlln_probe`` on the indices ``_thinning(len(indices), pattern,
    seed)`` keeps.
    A pattern too short for every grid point is skipped with a note; when
    every pattern is, nothing would be probed, and that is an input error."""
    return ProbePass(model, indices, seed).hereditary(
        D, epsilon, n_grid, R, patterns, pass_threshold).run()[0]
