"""Monte Carlo verification of convergence in probability.

The probed quantity is P(|(1/N) sum_{n<=N} f_{k_n} - D_N| > eps) across a
grid of N, estimated from R seeded replications with Wilson 99% intervals.
"Convergence in probability" is an asymptotic claim, so the verdict is a
falsifiable finite-sample reading:

* ``consistent-with-wlln``  -- final-grid-point exceedance below the pass
  threshold and no statistically significant increase across the grid
* ``violation``             -- a later grid point's lower confidence bound
  exceeds an earlier point's upper bound AND the final exceedance is above
  the pass threshold
* ``inconclusive``          -- anything else

Every replication r reads f_k from position k of its PCG64DXSM stream (see
``streams``), so f_k is a pure function of (seed, r, k).
Every probe runs through ``ProbePass``: one loop over
``SequenceModel.sample_blocks`` whose replications come in chunks of a
fixed number of values, so memory stays fixed at any R and N, and each
chunk is reduced with array operations only.  A chunk is a view of one
of the sampling call's two buffer slots, into which the chunk after next
is drawn, so every accumulator reduces it before the loop asks for
another; drawing a value costs 3-4.5 ns, on a thread that draws the next
chunk while this one is reduced, and its inverse CDF 1.2-2.6 ns on the
demo laws.  The truncation gap's outside sums
O_N = sum_{n<=N} f 1{|f| > N} are read from the entries past the smallest
level only, a few per chunk on the demo laws: one pass finds them and
each level filters those few.  On example41's 2 x 65,536 chunks the gap
accumulator costs 1.8-2.5 ns per value, against 6.5-7.6 ns for one
masked copy of the chunk per level.
The L2 terms take the truncated sums as S_N - O_N.  Realized correctors
come from a table each series builds once per grid.  Probes queued on one pass
read the same paths: each accumulator takes its first replications and
its columns of every chunk, so the thinning patterns of the hereditary
suite, the truncation gap and the full-sequence probe all read one draw
of each path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correctors import CorrectorSeries
from .extract import _Z99
from .models import SequenceModel
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
    increase = any(
        ci[grid[b]][0] > ci[grid[a]][1]
        for a in range(len(grid)) for b in range(a + 1, len(grid))
    )
    final_bad = p_hat[grid[-1]] > pass_threshold
    if increase and final_bad:
        return "violation"
    if not increase and not final_bad:
        return "consistent-with-wlln"
    return "inconclusive"


class ProbeInputError(ValueError):
    """A probe argument outside its documented range; raised before any
    path is sampled."""


def _grid(n_grid) -> tuple:
    grid = tuple(sorted({int(N) for N in n_grid}))
    if not grid or grid[0] < 1:
        raise ProbeInputError("the N grid must be non-empty and positive")
    return grid


def _epsilon(epsilon) -> float:
    if not epsilon > 0:
        raise ProbeInputError("epsilon must be positive")
    return float(epsilon)


def _probe_indices(indices, length: int = 0) -> np.ndarray:
    """The indices as an array, checked to be non-empty, strictly
    increasing from 1, below 2^63 and at least ``length`` long."""
    try:
        idx = np.asarray(indices, dtype=np.int64)
    except OverflowError:
        raise ProbeInputError("indices must be below 2^63")
    if not idx.size or np.any(np.diff(idx) <= 0) or idx[0] < 1:
        raise ProbeInputError("indices must be non-empty, strictly "
                              "increasing and >= 1")
    if len(idx) < length:
        raise ProbeInputError(
            "index sequence shorter than the largest grid point")
    return idx


def _partial_sums(vals: np.ndarray, grid) -> np.ndarray:
    """(B, G) sums S_N of the first N columns, N in ``grid``: sums over the
    segments between grid points, then running sums."""
    return np.cumsum(np.add.reduceat(vals, (0,) + grid[:-1], axis=1), axis=1)


def _outside_sums(vals: np.ndarray, grid) -> np.ndarray:
    """(B, G) sums O_N of f 1{|f| > N} over the first N columns, N in
    ``grid``, read only from the entries with |f| > grid[0]: one pass finds
    them, and each level then filters and sums those few entries."""
    B, W = vals.shape
    past = (vals > grid[0]) | (vals < -grid[0])   # no float copy of |vals|
    rows, cols = np.divmod(np.flatnonzero(past), W)
    f = vals[rows, cols]
    size = np.abs(f)
    out = np.empty((B, len(grid)))
    for g, N in enumerate(grid):
        keep = (cols < N) & (size > N)
        out[:, g] = np.bincount(rows[keep], weights=f[keep], minlength=B)
    return out


class _Exceedance:
    """Counts of |(1/N) S_N - D_N| > eps per grid point, and optionally the
    L2-criterion terms, accumulated one block of replications at a time;
    ``vals`` has exactly ``n_grid[-1]`` columns."""

    def __init__(self, D: CorrectorSeries, epsilon: float, n_grid,
                 compute_l2: bool = False):
        self.D, self.epsilon, self.n_grid = D, _epsilon(epsilon), n_grid
        self.levels = np.array(n_grid, dtype=float)
        self.exceed = np.zeros(len(n_grid), dtype=np.int64)
        self.sq = [] if compute_l2 else None

    def add(self, vals: np.ndarray, factors) -> None:
        d = self.D.realized(self.n_grid, factors)
        sums = _partial_sums(vals, self.n_grid)
        self.exceed += np.count_nonzero(
            np.abs(sums / self.levels - d) > self.epsilon, axis=0)
        if self.sq is not None:
            t = sums - _outside_sums(vals, self.n_grid) - self.levels * d
            self.sq.append((t / self.levels) ** 2)

    def report(self, R: int, seed: int,
               pass_threshold: float) -> ConvergenceReport:
        grid, eps = self.n_grid, self.epsilon
        p_hat = {N: int(c) / R for N, c in zip(grid, self.exceed)}
        ci = {N: wilson_interval(int(c), R) for N, c in zip(grid, self.exceed)}
        report = ConvergenceReport(
            grid, float(eps), R, p_hat, ci,
            _verdict(grid, p_hat, ci, pass_threshold), int(seed))
        if self.sq is not None:
            sq = np.concatenate(self.sq)
            report.l2_hat = dict(zip(grid, np.mean(sq, axis=0).tolist()))
            report.l2_se = dict(zip(grid, (np.std(sq, axis=0, ddof=1)
                                           / math.sqrt(R)).tolist()))
            report.markov_ok = all(
                p_hat[N] <= report.l2_hat[N] / eps ** 2
                + 3.0 * (_se(p_hat[N], R) + report.l2_se[N] / eps ** 2)
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


def thin_indices(indices, pattern: str, seed: int = 0) -> np.ndarray:
    idx = np.asarray(indices, dtype=int)
    return idx[_thinning(len(idx), pattern, seed)]


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
    sampled.
    """

    def __init__(self, model: SequenceModel, indices, seed: int):
        self.model, self.indices, self.seed = model, indices, int(seed)
        # (rows, columns, accumulator) and one report maker per probe
        self.idx, self._parts, self._reports, self._width = None, [], [], 0

    def _checked(self, length: int = 0) -> np.ndarray:
        self.idx = _probe_indices(self.indices, length)
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

    def run(self) -> list:
        """Samples the paths once and returns the queued probes' reports."""
        if self._parts:
            R, r0 = max(rows for rows, _, _ in self._parts), 0
            for vals, factors in self.model.sample_blocks(
                    self.idx[: self._width], self.seed, R):
                for rows, cols, acc in self._parts:
                    b = min(len(vals), rows - r0)
                    if b > 0:
                        acc.add(vals[:b, cols],
                                None if factors is None else factors[:b])
                r0 += len(vals)
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
    equals ``wlln_probe`` on ``thin_indices(indices, pattern, seed)``.
    A pattern too short for every grid point is skipped with a note; when
    every pattern is, nothing would be probed, and that is an input error."""
    return ProbePass(model, indices, seed).hereditary(
        D, epsilon, n_grid, R, patterns, pass_threshold).run()[0]
