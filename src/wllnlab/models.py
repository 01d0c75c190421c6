"""Sequence models: generative sampling plus exact marginal oracles.

A model describes the joint law of a random sequence f_1, f_2, ...  Five
kinds are supported:

* ``iid``               -- independent copies of one law
* ``independent_array`` -- independent with a per-index law
* ``tail_vanishing``    -- f_n = g * 1{|g| > n} for a single draw g
* ``example41``         -- heavy-tailed integer marginals with per-index
                           zero mass rho_n, coordinates either independent
                           or comonotone (driven by one shared uniform)
* ``latent_shift``      -- f_n = B + eta_n with B drawn once per path and
                           eta_n conditionally iid; the model whose natural
                           centering is a random variable, not a constant

Marginal tail probabilities and truncated moments are exact (closed form or
atom enumeration with a remainder below 1e-12), so every sampled estimate
in the package can be audited against an oracle.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Distribution,
    FiniteDiscrete,
    HeavyLogLaw,
    Pareto1,
    Scratch,
    UnsupportedOracleError,
    convolve,
    example41_constant_c,
    heavy_log_entries,
)
from .streams import Positions, _stream_keys


# values per chunk of replications in ``sample_blocks``: whatever R and n
# are, each call holds two 1 MiB (B, n) slots, each drawn into and then
# realized in place, chunk after chunk (models without coordinate noise
# draw two (B,) factor columns only), plus the kernels' scratch (a 128 KiB
# mask and a 1 MiB index); a chunk of ``Entries`` holds 16 bytes per
# non-zero value on top
_BLOCK_VALUES = 1 << 17


class CapacityError(Exception):
    """Requested index exceeds the model's index_cap."""


@dataclass
class Entries:
    """A chunk of ``rows`` replications given by its non-zero entries, in
    row-major order: ``val[i]`` sits in row ``row[i]`` and column
    ``col[i]`` (int32: a chunk holds at most max(``_BLOCK_VALUES``, n)
    values), and every other entry of the chunk is zero."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    rows: int

    def __len__(self) -> int:
        return self.rows


class SequenceModel:
    kind = "abstract"
    index_cap: int = 0
    #: whether a path carries a factor (g, B or the shared uniform), drawn
    #: at stream position 0, and whether coordinate k draws its own
    #: uniform at position k
    has_factor = False
    coordinate_noise = True
    #: ((z, P(z)), ...), the atoms of the path factor Z and their masses in
    #: the factor law's order (a repeated atom is kept), when the
    #: coordinates are independent given a Z with finitely many atoms and
    #: the weak-L2 centering is a function of Z; None for a trivial Z (one
    #: atom of mass 1 in the moment rows) or one with no finite atoms
    factor_law: tuple | None = None
    #: how ``weak_l2_centering`` pins D_N down, recorded in ``corrector.json``
    weak_l2_provenance = ""
    #: whether every coordinate has the law ``marginal_dist(1)``, whose
    #: analytic facts are then the model's tail facts
    identically_distributed = False

    def marginal_dist(self, n: int) -> Distribution:
        raise NotImplementedError

    def weak_l2_centering(self, N: int):
        """D_N, the weak-L2 limit of the truncated coordinates where the
        model structure pins it down: a float, or a map from factor value
        to float when it is a function of the factor (see ``factor_law``)."""
        raise UnsupportedOracleError(
            f"model kind {self.kind!r} unsupported for weak-L2 correctors")

    def marginal_sum(self, N: int, term) -> float:
        """sum_{n <= N} term(marginal_dist(n)), correctly rounded, reading
        one law at a time.  Coordinates that share one law read it once, at
        index N, which keeps the index cap: N * v is the correctly rounded
        sum of N copies of v, as ``math.fsum``'s is, and + 0.0 turns a -0.0
        into fsum's 0.0."""
        if self.identically_distributed:
            return N * term(self.marginal_dist(N)) + 0.0
        return math.fsum(term(self.marginal_dist(n)) for n in range(1, N + 1))

    def _check_index(self, n: int) -> None:
        if not 1 <= n <= self.index_cap:
            raise CapacityError(f"index {n} outside 1..{self.index_cap}")

    def sample_blocks(self, indices, seed: int, R: int, first: int = 0):
        """Realize (f_i)_{i in indices} on replications first, ...,
        first + R - 1: yields ``(chunk, factors)`` per chunk of B
        replications (at most ``_BLOCK_VALUES`` values), in replication
        order.  ``chunk`` is a (B, len(indices)) block, or ``Entries`` for
        the laws whose paths are mostly zeros (the single draw and
        example41), which the probes reduce as they are and the sample bank
        writes over zeros; ``factors`` is (B,), or None for models without
        a factor.  The uniform behind f_k on replication r is position k of
        stream (seed, r) and the factor's is position 0 (see ``streams``),
        so sampling ``idx[s]`` gives the columns ``s`` of sampling ``idx``,
        whichever replications are requested.

        The call allocates two buffer slots once.  While a chunk is
        realized in place in one slot and reduced by the caller, a daemon
        thread of the call's own draws the next chunk's uniforms into the
        other: chunk j + 1 goes into slot (j + 1) % 2, which the caller
        handed back by asking for chunk j, once chunk j is drawn, and an
        error in a draw is raised in the caller.  The thread starts with the first chunk drawn
        ahead (chunk 0 is drawn inline, and a model without coordinate noise
        draws its factor column in the loop, faster than a hand-over), and
        ends with the generator: closing it waits for the draw in flight.
        A yielded block is a view that is valid until the next iteration,
        so a caller that keeps it copies it.  ``Entries`` and ``factors``
        are fresh each chunk."""
        if not 0 <= first < first + R:
            raise ValueError("need replications 0 <= first < first + R")
        idx = self._checked_indices(indices)
        per_index = self._per_index(idx)
        keys = _stream_keys(seed, first, first + R)
        step = max(1, _BLOCK_VALUES // len(idx))
        rows = min(step, R)

        def slots(*shape):
            # two arrays, not one of twice the size: 1 MiB blocks reuse heap
            # that earlier calls freed, where 2 MiB was mapped afresh (+0.5
            # MiB peak RSS on the probes)
            return [np.empty(shape), np.empty(shape)]

        if self.coordinate_noise:
            # a chunk is realized over its uniforms, in place
            positions, u = Positions(idx), slots(rows, len(idx))
            factor = u0 = slots(rows) if self.has_factor else None
        else:
            # the factor is the one position drawn, so only its column has
            # two slots, and the chunk is realized from it alone
            positions, u, factor = Positions([0]), slots(rows, 1), None
            u0 = [c[:, 0] for c in u]
        scratch = Scratch(rows * len(idx))

        def chunk(j):
            """``Positions.draw``'s arguments for chunk j, in slot j % 2."""
            k = keys[j * step:(j + 1) * step]
            return (k, u[j % 2][:len(k)],
                    None if factor is None else factor[j % 2][:len(k)])

        def draw_ahead(free, done):
            # takes chunks until None, sends back each error or None
            for args in iter(free.get, None):
                try:
                    positions.draw(*args)
                    done.put(None)
                except BaseException as exc:  # raised in the caller
                    done.put(exc)

        chunks = -(-R // step)
        positions.draw(*chunk(0))
        thread = None
        if self.coordinate_noise and chunks > 1:
            free, done = queue.SimpleQueue(), queue.SimpleQueue()
            thread = threading.Thread(target=draw_ahead, args=(free, done),
                                      name="wllnlab-draw-ahead", daemon=True)
            thread.start()
        try:
            for j in range(chunks):
                if thread is not None:
                    if j:
                        error = done.get()
                        if error is not None:
                            raise error
                    # only once chunk j is in: handed over sooner, the thread
                    # goes straight on into it with the GIL, row state alive
                    if j + 1 < chunks:
                        free.put(chunk(j + 1))   # the slot chunk j - 1 left
                elif j:
                    positions.draw(*chunk(j))
                b, s = min(step, R - j * step), j % 2
                yield self._realize(
                    per_index, u[s][:b] if self.coordinate_noise else None,
                    None if u0 is None else u0[s][:b], scratch)
        finally:
            if thread is not None:
                free.put(None)
                # not when the collector closes the generator on its thread
                if thread is not threading.current_thread():
                    thread.join()

    def _per_index(self, idx: np.ndarray):
        """What ``_realize`` needs of the indices, computed once per call."""
        return idx

    def _realize(self, per_index, out, u0, scratch: Scratch):
        """(chunk, factors): the values (B, n) written into ``out``, or
        ``Entries``, with ``out`` free for the kernels to overwrite.  ``out``
        holds the coordinate uniforms on entry for models with coordinate
        noise and is None for the others, ``u0`` the factor uniforms (B,;
        None without a factor) and ``scratch`` the kernels' work buffers.
        ``u0`` is a view of a buffer slot, so ``factors`` must not be one."""
        raise NotImplementedError

    def _checked_indices(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("empty index set")
        if idx[0] < 1 or (idx[1:] <= idx[:-1]).any():
            raise ValueError("indices must be strictly increasing and >= 1")
        if idx[-1] > self.index_cap:
            raise CapacityError(
                f"indices outside 1..{self.index_cap}")
        return idx

    # exact joint moments: for every hosted joint law but the comonotone
    # coupling, E[(f_j^{[N]} - D_N)(f_k^{[N]} - D_N)], j < k, is arithmetic
    # on two per-index moment rows, so a scan makes one oracle pass per index

    #: the steps, among the accepted steps 1..n, at which the largest
    #: |inner product| with a later index can sit, tried in this order with
    #: the first of equal moduli winning: "first" and "last" are steps 1 and
    #: n, "max" the earliest step of largest ``lead_key`` and "min" the
    #: latest step of smallest ``lead_key``
    lead_slots = ("max",)

    def moment_rows(self, indices, levels, D) -> np.ndarray | None:
        """The moments of f_i the pair oracle needs under the centering D,
        as a (len(indices), len(levels), width) array for increasing
        ``indices``; None without a row form, and then the model answers
        ``pair_inner_product(j, k, N, D)``.  Coordinates independent given
        a factor Z of finitely many atoms (``factor_law``; one atom of mass
        1 without a factor) have one column per atom z:
        m_i(z, N) - D_N(z), where m_i(z, N) = E(f_i 1{|f_i| <= N} | Z = z)."""
        idx = self._checked_indices(indices)
        atoms = None if self.factor_law is None else \
            [z for z, _ in self.factor_law]
        # (levels, atoms), or (levels, 1) for a constant D
        d = np.atleast_2d(D.realized(levels, atoms)).T
        return self._trunc_means(idx, levels) - d

    def _trunc_means(self, idx: np.ndarray, levels) -> np.ndarray:
        """m_i(z, N) for i in ``idx``, N in ``levels`` and the factor's
        atoms z, as a (len(idx), len(levels), atoms) array."""
        return np.array([[self.marginal_dist(i).trunc_moment(N, 1)
                          for N in levels] for i in idx.tolist()],
                        dtype=float).reshape(len(idx), len(levels), 1)

    def row_inner_product(self, row_j, row_k):
        """The inner product for j < k from rows whose last axis holds the
        moments (broadcast elementwise over the others), in the operation
        order of the scalar oracle: any grouping of pairs gives its bits.
        Here ip(j, k) = sum_z P(z) row_j[z] row_k[z], summed in atom order
        from the first atom's term (0.0 + x would turn a -0.0 into 0.0);
        without a factor the largest |m_j - D_N| wins."""
        masses = (1.0,) if self.factor_law is None else \
            [p for _, p in self.factor_law]
        total = masses[0] * (row_j[..., 0] * row_k[..., 0])
        for a in range(1, len(masses)):
            total = total + masses[a] * (row_j[..., a] * row_k[..., a])
        return total

    def lead_key(self, rows):
        """What the "max" and "min" lead slots compare, per row."""
        return np.abs(rows[..., 0])

    # analytic facts for the condition checkers, each None where the model
    # has none; identically distributed models read them off their law

    def pointwise_sup_index(self, n_range) -> int | None:
        """Index in n_range whose tail functional dominates pointwise, if
        the family is pointwise ordered."""
        return int(n_range[0]) if self.identically_distributed else None

    def tau_sup_envelope(self):
        """(description, fn) with sup_n tau_n(M) <= fn(M) and fn -> 0."""
        if self.identically_distributed:
            return self.marginal_dist(1).tau_envelope()
        return None

    def tau_sup_positive_limsup(self):
        """(description, value) with limsup_M sup_n tau_n(M) >= value > 0."""
        if self.identically_distributed:
            return self.marginal_dist(1).tau_positive_limsup()
        return None

    def tau_limit_envelope(self):
        """(description, fn) bounding lim_n tau_n(M) with fn -> 0; an
        envelope of the sup over n is one."""
        return self.tau_sup_envelope()

    def energy_liminf_witness(self, M: float):
        """Why liminf_n E(f_n^2 1{|f_n| <= M}) = 0, as a description."""
        return None


# -------------------------------------------------------------------------


class IIDModel(SequenceModel):
    kind = "iid"
    weak_l2_provenance = "weak-l2/iid"
    identically_distributed = True

    def __init__(self, dist: Distribution, index_cap: int = 10**9):
        self.dist = dist
        self.index_cap = int(index_cap)

    def marginal_dist(self, n: int) -> Distribution:
        self._check_index(n)
        return self.dist

    def _realize(self, idx, out, u0, scratch):
        return self.dist.quantile_array(out, out, scratch), None

    def weak_l2_centering(self, N):
        return self.dist.trunc_moment(float(N), 1)


class IndependentArrayModel(SequenceModel):
    kind = "independent_array"
    weak_l2_provenance = "weak-l2/stabilized-truncated-mean"

    def __init__(self, dists):
        self.dists = list(dists)
        if not self.dists:
            raise ValueError("need at least one coordinate law")
        self.index_cap = len(self.dists)

    def marginal_dist(self, n):
        self._check_index(n)
        return self.dists[n - 1]

    def _realize(self, idx, out, u0, scratch):
        for col, i in enumerate(idx):
            out[:, col] = self.dists[i - 1].quantile_array(out[:, col])
        return out, None

    def weak_l2_centering(self, N):
        means = [d.trunc_moment(float(N), 1) for d in self.dists]
        tail = means[len(means) // 2:]
        if max(tail) - min(tail) > 1e-9:
            raise UnsupportedOracleError(
                "truncated means do not stabilize over the array")
        return tail[-1]


class _TailRestricted(Distribution):
    """Law of G * 1{|G| > n}: the base law outside a central band, with the
    remaining mass collapsed onto zero."""

    def __init__(self, base: Distribution, n: int):
        self.base = base
        self.n = int(n)

    def survival(self, t):
        return self.base.survival(max(float(t), float(self.n)))

    def trunc_moment(self, M, order):
        if M <= self.n:
            return 0.0
        return self.base.band_moment(float(self.n), float(M), order)

    def tau_integral(self, M):
        n = float(self.n)
        if M <= n:
            return self.base.survival(n) * M * M / 2.0
        head = self.base.survival(n) * n * n / 2.0
        return head + self.base.tau_integral(M) - self.base.tau_integral(n)


class TailVanishingModel(SequenceModel):
    """f_n = g * 1{|g| > n} for one draw of g per path.

    Each marginal tail vanishes as n grows even when g itself is so heavy
    that sup_n of the tail functional stays bounded away from zero; the
    standard counterexample separating the sup-form and limit-form tail
    conditions.
    """

    kind = "tail_vanishing"
    has_factor = True
    coordinate_noise = False
    weak_l2_provenance = "weak-l2/tail-vanishing"

    def __init__(self, g_dist: Distribution, index_cap: int = 10**9):
        self.g_dist = g_dist
        self.index_cap = int(index_cap)

    def marginal_dist(self, n):
        self._check_index(n)
        return _TailRestricted(self.g_dist, n)

    def _per_index(self, idx):
        return idx.astype(float)  # what |g| is compared with

    def _realize(self, idx, out, u0, scratch):
        # row r is g_r on the columns whose index is below |g_r|
        g = self.g_dist.quantile_array(u0)
        count = np.searchsorted(idx, np.abs(g))
        row = np.repeat(np.arange(len(g), dtype=np.int32), count)
        # an entry's column is its place in the chunk less its row's start
        col = np.arange(len(row), dtype=np.int32)
        col -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
        return Entries(row, col, np.repeat(g, count), len(g)), g

    def weak_l2_centering(self, N):
        # truncated moments vanish once the index passes the level, so the
        # weak limit is zero at every level
        return 0.0

    # f_j f_k = g^2 1{|g| > max(j, k)}: a pair's cross moment is the second
    # band moment of its later index, and ip(j, k) is affine in the band
    # mean mu_j, so it peaks at the earliest largest or the latest smallest
    # mu_j.  The first and the last step go first: for g of one sign mu_j is
    # monotone in j and they attain both extremes, so the others never win
    # a tie
    lead_slots = ("first", "last", "max", "min")

    def moment_rows(self, indices, levels, D):
        a = self._checked_indices(indices).astype(float)
        g, rows = self.g_dist, np.empty((len(a), len(levels), 3))
        below = [g.trunc_moments(a, order) for order in (1, 2)]
        rows[:, :, 2] = D.realized(levels)
        for col, N in enumerate(levels):
            x = float(N)
            for w, order in ((0, 1), (1, 2)):
                # band_moment(a, N): zero unless a < N
                rows[:, col, w] = np.where(
                    a < x, g.trunc_moment(x, order) - below[w], 0.0)
        return rows

    def row_inner_product(self, row_j, row_k):
        d = row_k[..., 2]
        return row_k[..., 1] - d * (row_j[..., 0] + row_k[..., 0]) + d * d

    def lead_key(self, rows):
        return rows[..., 0]

    def pointwise_sup_index(self, n_range):
        return int(min(n_range))

    def tau_sup_envelope(self):
        # sup over n of tau_n(M) equals the tau of g itself
        return self.g_dist.tau_envelope()

    def tau_sup_positive_limsup(self):
        return self.g_dist.tau_positive_limsup()

    def tau_limit_envelope(self):
        def env(M):
            return 0.0

        return ("lim_n tau_n(M) = M * P(|g| > n) -> 0 for every fixed M", env)

    def energy_liminf_witness(self, M):
        return f"E(f_n^2 1{{|f_n|<=M}}) = 0 exactly for n >= {math.ceil(M)}"


class Example41Model(SequenceModel):
    """Heavy-tailed integer marginals with zero mass rho_n per index.

    ``joint_law`` is "independent" (coordinates independent) or "comonotone"
    (every coordinate is the quantile transform of one shared uniform; the
    maximally dependent coupling).
    """

    kind = "example41"
    weak_l2_provenance = "weak-l2/symmetric-marginals"

    def __init__(self, rho, index_cap: int = 10**7,
                 joint_law: str = "independent", symmetric: bool = True,
                 rho_sup_is_one: bool | None = None, rho_vec=None):
        if joint_law not in ("independent", "comonotone"):
            raise ValueError(f"unknown joint_law {joint_law!r}")
        self._rho = rho  # callable index -> rho_n in (0, 1)
        # optional vectorised form: int64 index array -> rho array
        self._rho_vec = rho_vec
        self.joint_law = joint_law
        self.has_factor = joint_law == "comonotone"
        self.coordinate_noise = not self.has_factor
        self.symmetric = bool(symmetric)
        self.index_cap = int(index_cap)
        self.rho_sup_is_one = rho_sup_is_one

    def rho(self, n: int) -> float:
        return float(self._rho(n))

    def rho_array(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if self._rho_vec is not None:
            return self._rho_vec(idx)
        return np.array([self._rho(int(n)) for n in idx], dtype=float)

    def marginal_dist(self, n):
        self._check_index(n)
        return HeavyLogLaw(self.rho(n), symmetric=self.symmetric)

    def _per_index(self, idx):
        return self.rho_array(idx)

    def _realize(self, rho, out, u0, scratch):
        # the comonotone coupling's coordinates all read the shared uniform
        u = u0[:, None] if self.has_factor else out
        at, val = heavy_log_entries(u, rho, self.symmetric, scratch)
        row, col = np.divmod(at.astype(np.int32), len(rho))
        return Entries(row, col, val, len(u)), None if u0 is None else u0.copy()

    def weak_l2_centering(self, N):
        if not self.symmetric:
            raise UnsupportedOracleError(
                "one-sided heavy-log marginals have no model-pinned weak-L2 limit")
        return 0.0

    def moment_rows(self, indices, levels, D):
        # the comonotone coupling has no row form
        return None if self.has_factor else super().moment_rows(indices,
                                                                levels, D)

    def _trunc_means(self, idx, levels):
        if self.symmetric:
            return np.zeros((len(idx), len(levels), 1))
        return super()._trunc_means(idx, levels)

    def pair_inner_product(self, j, k, N, D):
        """E[(f_j^{[N]} - D_N)(f_k^{[N]} - D_N)] for j < k under the
        comonotone coupling; the independent one answers ``moment_rows``."""
        if not self.has_factor:
            raise UnsupportedOracleError(
                "the independent coupling's pair moments come from moment rows")
        if N > 1 << 16:  # its O(N) intervals take about 256 bytes per unit
            raise UnsupportedOracleError(
                f"the comonotone pair oracle takes levels up to 65536, not {N}")
        d = float(D.realized((int(N),))[0])
        mu_j = self.marginal_dist(j).trunc_moment(N, 1)
        mu_k = self.marginal_dist(k).trunc_moment(N, 1)
        return self._comonotone_product(j, k, N) - d * (mu_j + mu_k) + d * d

    def _comonotone_partition(self, i: int, den: np.ndarray):
        """(points, values): the shared uniform maps [points[t],
        points[t + 1]) to values[t], the nonzero values up to the level of
        ``den``, the denominators k^2 log k for k = 2, 3, ..."""
        rho = self.rho(i)
        q = (1.0 - rho) * (2.0 * example41_constant_c()) / den
        # the interval ends as a running sum: np.cumsum adds in order
        lo = np.cumsum(np.concatenate(([rho], q)))
        k = np.arange(2.0, len(den) + 2.0)
        if not self.symmetric:
            return lo, k
        points = np.empty(2 * len(q) + 1)
        points[0::2], points[1::2] = lo, lo[:-1] + q / 2.0
        return points, np.stack((k, -k), axis=1).ravel()

    def _comonotone_product(self, j: int, k: int, N: float) -> float:
        """E[f_j^t f_k^t] under the shared-uniform coupling, by exact overlap
        integration of the two quantile partitions, summed in u order."""
        n = range(2, int(math.floor(N)) + 1)
        den = np.square(np.array(n, dtype=float)) * np.fromiter(
            map(math.log, n), float, len(n))
        (pa, va), (pb, vb) = (self._comonotone_partition(i, den)
                              for i in (j, k))
        # every overlap of positive length is a gap between consecutive
        # distinct breakpoints inside both partitions
        x = np.unique(np.concatenate((pa, pb)))
        lo, hi = x[:-1], x[1:]
        keep = (lo >= max(pa[0], pb[0])) & (hi <= min(pa[-1], pb[-1]))
        lo, hi = lo[keep], hi[keep]
        terms = ((hi - lo) * va[np.searchsorted(pa, lo, side="right") - 1]
                 * vb[np.searchsorted(pb, lo, side="right") - 1])
        return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])

    def pointwise_sup_index(self, n_range):
        return int(n_range[int(np.argmin(self.rho_array(n_range)))])

    def tau_sup_envelope(self):
        two_c = 2.0 * example41_constant_c()

        def env(M):
            return two_c / math.log(M) if M > 1 else float("inf")

        return ("M*P(|f_n|>M) <= 2c(1-rho_n)/log M <= 2c/log M for integer M >= 2",
                env)

    def tau_limit_envelope(self):
        if self.rho_sup_is_one:
            def env(M):
                return 0.0

            return ("liminf_n tau_n(M) = 0 since 1 - rho_n -> 0 along a "
                    "subsequence (sup_n rho_n = 1)", env)
        return None

    def energy_liminf_witness(self, M):
        if not self.rho_sup_is_one:
            return None
        return ("E(f_n^2 1{|f_n|<=M}) <= 2cM(1-rho_n)/log 2 -> 0 along "
                "indices with rho_n -> 1")


class LatentShiftModel(SequenceModel):
    """f_n = B + eta_n: one latent factor B per path plus conditionally iid
    noise.  Conditionally on B the sequence is iid, so the natural centering
    at every level is a function of B, i.e. a genuinely random corrector.
    """

    kind = "latent_shift"
    has_factor = True
    identically_distributed = True
    weak_l2_provenance = ("weak-l2/conditional-truncated-mean "
                          "(test family: bounded functions of the factor)")

    def __init__(self, factor_dist: FiniteDiscrete, noise_dist: FiniteDiscrete,
                 index_cap: int = 10**9):
        self.factor_dist = factor_dist
        self.noise_dist = noise_dist
        self.factor_law = factor_dist.atoms
        self.index_cap = int(index_cap)
        self._marginal = convolve(factor_dist, noise_dist)

    def marginal_dist(self, n):
        self._check_index(n)
        return self._marginal

    def _realize(self, idx, out, u0, scratch):
        b = self.factor_dist.quantile_array(u0)
        self.noise_dist.quantile_array(out, out, scratch)
        out += b[:, None]
        return out, b

    def conditional_trunc_moment(self, b: float, N: float, order: int) -> float:
        """E((b + eta)^order 1{|b + eta| <= N})."""
        total = 0.0
        for e, p in self.noise_dist.atoms:
            v = b + e
            if abs(v) <= N:
                total += p * v ** order
        return total

    def weak_l2_centering(self, N):
        return {b: self.conditional_trunc_moment(b, float(N), 1)
                for b, _ in self.factor_law}

    # given B the coordinates are iid, so every index has the same row and
    # every pair j != k the same inner product: the last step holds it
    lead_slots = ("last",)

    def _trunc_means(self, idx, levels):
        means = [[self.conditional_trunc_moment(b, N, 1)
                  for b, _ in self.factor_law] for N in levels]
        return np.broadcast_to(np.array(means, dtype=float),
                               (len(idx), len(levels), len(self.factor_law)))


# -------------------------------------------------------------------------
# JSON model specifications
# -------------------------------------------------------------------------

def dist_from_spec(spec: dict) -> Distribution:
    spec = dict(spec)
    family = spec.pop("family", None)
    if family == "finite":
        atoms = spec.pop("atoms")
        _reject_unknown(spec, "finite distribution")
        return FiniteDiscrete(atoms)
    if family == "pareto1":
        scale = spec.pop("scale", 1.0)
        _reject_unknown(spec, "pareto1 distribution")
        return Pareto1(scale)
    if family == "heavy_log":
        rho = spec.pop("rho")
        symmetric = _symmetric(spec)
        _reject_unknown(spec, "heavy_log distribution")
        return HeavyLogLaw(rho, symmetric=symmetric)
    raise ValueError(f"unknown distribution family {family!r}")


def _rho_from_spec(spec: dict):
    """(scalar rho, vectorised rho, sup rho == 1, number of indices with a
    rho or None for all).  The oracles use the scalar form; sampling uses
    the vectorised one, whose numpy log may differ from libm's in the last
    bit."""
    spec = dict(spec)
    family = spec.pop("family", None)
    if family == "one-minus-one-over-log":
        _reject_unknown(spec, "rho spec")
        return (lambda n: 1.0 - 1.0 / math.log(n + 2)), \
            (lambda idx: 1.0 - 1.0 / np.log(idx + 2.0)), True, None
    if family == "constant":
        values = [float(spec.pop("value"))]
    elif family == "explicit":
        values = [float(v) for v in spec.pop("values")]
    else:
        raise ValueError(f"unknown rho family {family!r}")
    _reject_unknown(spec, "rho spec")
    if not values or not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"rho needs values in [0, 1], not {values}")
    if family == "constant":
        value = values[0]
        return (lambda n: value), (lambda idx: np.full(len(idx), value)), \
            False, None
    table = np.array(values)
    return (lambda n: values[n - 1]), (lambda idx: table[idx - 1]), None, \
        len(values)


def _symmetric(spec: dict) -> bool:
    symmetric = spec.pop("symmetric", True)
    if not isinstance(symmetric, bool):  # "no" must not read as true
        raise ValueError(f"symmetric must be true or false, not {symmetric!r}")
    return symmetric


def _reject_unknown(leftover: dict, where: str) -> None:
    if leftover:
        raise ValueError(f"unknown fields in {where}: {sorted(leftover)}")


def model_from_spec(spec: dict) -> SequenceModel:
    spec = dict(spec)
    kind = spec.pop("kind", None)
    params = dict(spec.pop("params", {}))
    index_cap = spec.pop("index_cap", None)
    # 0 must not read as the default cap; indices are int64
    if index_cap is not None and (type(index_cap) is not int
                                  or not 1 <= index_cap < 2**63):
        raise ValueError("index_cap must be an integer in [1, 2^63), "
                         f"not {index_cap!r}")
    joint_law = spec.pop("joint_law", None)
    _reject_unknown(spec, "model spec")

    if kind == "iid":
        dist = dist_from_spec(params.pop("dist"))
        _reject_unknown(params, "iid params")
        return IIDModel(dist, index_cap or 10**9)
    if kind == "independent_array":
        dists = [dist_from_spec(d) for d in params.pop("dists")]
        _reject_unknown(params, "independent_array params")
        if (index_cap or 0) > len(dists):
            raise ValueError(f"index_cap {index_cap} exceeds the "
                             f"{len(dists)} coordinate laws")
        return IndependentArrayModel(dists[:index_cap])
    if kind == "tail_vanishing":
        g = dist_from_spec(params.pop("g"))
        _reject_unknown(params, "tail_vanishing params")
        return TailVanishingModel(g, index_cap or 10**9)
    if kind == "example41":
        rho_fn, rho_vec, sup_one, rho_cap = _rho_from_spec(params.pop("rho"))
        symmetric = _symmetric(params)
        _reject_unknown(params, "example41 params")
        if rho_cap and (index_cap or 0) > rho_cap:
            raise ValueError(f"index_cap {index_cap} exceeds the "
                             f"{rho_cap} explicit rho values")
        return Example41Model(rho_fn, index_cap or rho_cap or 10**7,
                              joint_law or "independent", symmetric,
                              rho_sup_is_one=sup_one, rho_vec=rho_vec)
    if kind == "latent_shift":
        factor = dist_from_spec(params.pop("factor"))
        noise = dist_from_spec(params.pop("noise"))
        _reject_unknown(params, "latent_shift params")
        if not isinstance(factor, FiniteDiscrete) or not isinstance(noise, FiniteDiscrete):
            raise ValueError("latent_shift requires finite factor and noise laws")
        return LatentShiftModel(factor, noise, index_cap or 10**9)
    raise ValueError(f"unknown model kind {kind!r}")
