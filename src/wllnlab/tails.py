"""Tail functionals, the Feller identity, and hypothesis-condition checks.

For a sequence model this module computes, on a grid of levels M:

* ``tau_n(M)``   = M * P(|f_n| > M)
* ``sigma_n(M)`` = (1/M) * E(f_n^2 1{|f_n| <= M})

together with sup-aggregates over an index window, and certifies the exact
relation  sigma_n(M) = (2/M) int_0^M tau_n(t) dt - tau_n(M)  by piecewise
integration (no step-size dependence).

Asymptotic hypotheses (tail conditions as M -> oo or n -> oo) cannot be
decided from finitely many numbers, so every checker returns a three-valued
verdict; "fails" and "holds" require an analytic witness supplied by the
model, and purely numeric evidence yields "holds-on-grid" or "inconclusive"
with the observed trend attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import UnsupportedOracleError
from .models import SequenceModel

MAX_LEVEL = 1e150  # the oracles square M, which overflows past ~1.34e154


@dataclass
class Verdict:
    status: str  # "holds" | "holds-on-grid" | "fails" | "inconclusive"
    witness: str
    data: dict = field(default_factory=dict)


def tau_sup_integral(model: SequenceModel, n_range, M: float) -> float:
    """Exact int_0^M sup_{n in n_range} tau_n(t) dt.

    If the family is pointwise ordered the sup is one coordinate's tau and
    its own exact integral applies; otherwise the survivals are step
    functions and the integral is taken over the union of breakpoints.
    """
    idx = model.pointwise_sup_index(n_range)
    if idx is not None:
        return model.marginal_dist(idx).tau_integral(M)
    dists = [model.marginal_dist(n) for n in n_range]
    pieces = [d.survival_breakpoints(M) for d in dists]
    if any(p is None for p in pieces):
        raise UnsupportedOracleError(
            "sup-integral needs a pointwise-ordered family or step survivals")
    pts = np.unique(np.concatenate([np.array([0.0, M])] + list(pieces)))
    pts = pts[(pts >= 0.0) & (pts <= M)]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        s = max(d.survival(lo) for d in dists)
        total += s * (hi * hi - lo * lo) / 2.0
    return total


@dataclass
class TailProfile:
    m_grid: tuple
    n_range: tuple
    tau: dict            # (n, M) -> tau_n(M)
    sigma: dict          # (n, M) -> sigma_n(M)
    tau_sup: dict        # M -> sup over n_range
    sigma_sup: dict
    tau_sup_int: dict    # M -> exact int_0^M sup tau
    feller_residual: dict  # (n, M) -> residual

    def rows(self):
        for n in self.n_range:
            for M in self.m_grid:
                yield (n, M, self.tau[(n, M)], self.sigma[(n, M)],
                       self.feller_residual[(n, M)])


def build_tail_profile(model: SequenceModel, m_grid, n_range) -> TailProfile:
    m_grid = tuple(sorted(float(M) for M in m_grid))
    n_range = tuple(sorted(int(n) for n in n_range))
    if not m_grid or not all(0 < M <= MAX_LEVEL for M in m_grid):
        raise ValueError(f"the M grid must be non-empty, in (0, {MAX_LEVEL:g}]")
    if not n_range:
        raise ValueError("empty index window")
    tau, sigma, res = {}, {}, {}
    for n in n_range:
        dist = model.marginal_dist(n)
        for M in m_grid:
            t = M * dist.survival(M)
            s = dist.trunc_moment(M, 2) / M
            tau[(n, M)] = t
            sigma[(n, M)] = s
            res[(n, M)] = s - ((2.0 / M) * dist.tau_integral(M) - t)
    tau_sup = {M: max(tau[(n, M)] for n in n_range) for M in m_grid}
    sigma_sup = {M: max(sigma[(n, M)] for n in n_range) for M in m_grid}
    sup_int = {M: tau_sup_integral(model, n_range, M) for M in m_grid}
    return TailProfile(m_grid, n_range, tau, sigma, tau_sup, sigma_sup,
                       sup_int, res)


# -------------------------------------------------------------------------
# condition checks
# -------------------------------------------------------------------------

def _grid_trend(values) -> dict:
    vals = list(values)
    return {"first": vals[0], "last": vals[-1],
            "decreasing": all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))}


def _envelope_verdict(env, values: dict, fallback: str) -> Verdict:
    """``values`` (M -> value, ascending M) against the model's envelope
    ``env`` = (description, fn), or None: "holds-on-grid" if every value is
    at most fn(M) + 1e-9, else "inconclusive" with the ``fallback`` witness."""
    trend = _grid_trend(values.values())
    if env is not None:
        desc, fn = env
        if all(v <= fn(M) + 1e-9 for M, v in values.items()):
            # null where the envelope gives no finite bound (M <= 1)
            bound = fn(max(values))
            return Verdict("holds-on-grid", desc, {
                "envelope_at_largest": bound if math.isfinite(bound) else None,
                **trend})
    return Verdict("inconclusive", fallback, trend)


def check_weak_l1(profile: TailProfile, model: SequenceModel) -> Verdict:
    """Does sup_n tau_n(M) -> 0 as M -> oo?"""
    lower = model.tau_sup_positive_limsup()
    if lower is not None:
        desc, value = lower
        return Verdict("fails", desc, {"limsup_lower_bound": value})
    return _envelope_verdict(model.tau_sup_envelope(), profile.tau_sup,
                             "no analytic witness; grid trend only")


def _check_limit_condition(profile, model, mode: str) -> Verdict:
    """liminf/limsup over n estimated from the tail half of the window; an
    envelope of the limit that vanishes at the largest M decides it."""
    half = profile.n_range[len(profile.n_range) // 2:]
    agg = min if mode == "liminf" else max
    est = {M: agg(profile.tau[(n, M)] for n in half) for M in profile.m_grid}
    env = model.tau_limit_envelope()
    if env is not None and env[1](profile.m_grid[-1]) == 0.0:
        return Verdict("holds", env[0], {"estimates": est})
    fallback = (f"index window too short to estimate {mode}"
                if len(profile.n_range) < 4
                else "no analytic witness; grid trend only")
    return _envelope_verdict(env, est, fallback)


def check_liminf_condition(profile: TailProfile, model: SequenceModel) -> Verdict:
    """Does liminf_n tau_n(M) -> 0 as M -> oo?"""
    return _check_limit_condition(profile, model, "liminf")


def check_limsup_condition(profile: TailProfile, model: SequenceModel) -> Verdict:
    """Does limsup_n tau_n(M) -> 0 as M -> oo (after a subsequence)?"""
    return _check_limit_condition(profile, model, "limsup")


def check_energy_vanishing(model: SequenceModel, m_grid, n_range) -> Verdict:
    """Does liminf_k E(f_k^2 1{|f_k| <= M}) = 0 hold for every M?"""
    m_grid = sorted(float(M) for M in m_grid)
    n_range = sorted(int(n) for n in n_range)
    per_m = {}
    statuses = []
    for M in m_grid:
        energies = {n: model.marginal_dist(n).trunc_moment(M, 2) for n in n_range}
        witness = model.energy_liminf_witness(M)
        order = sorted(n_range, key=lambda n: energies[n])
        small = order[: min(8, len(order))]
        entry = {"min": energies[order[0]], "witness_indices": small}
        if witness is not None:
            entry["witness"] = witness
            statuses.append("holds")
        elif energies[order[0]] <= 1e-12:
            entry["witness"] = "window index with exactly vanishing energy"
            statuses.append("holds")
        elif max(energies.values()) - min(energies.values()) <= 1e-12:
            # constant in n (iid-like): the liminf equals the constant
            entry["witness"] = "energy constant in n; liminf equals it"
            statuses.append("fails")
        else:
            statuses.append("inconclusive")
        per_m[M] = entry
    if all(s == "holds" for s in statuses):
        return Verdict("holds", "vanishing truncated energy witnessed per M",
                       {"per_M": per_m})
    if "fails" in statuses:
        bad = [M for M, s in zip(m_grid, statuses) if s == "fails"]
        return Verdict("fails",
                       f"positive constant truncated energy at M in {bad}",
                       {"per_M": per_m})
    return Verdict("inconclusive", "no witness for some M", {"per_M": per_m})


def check_feller_necessary(model: SequenceModel, N_grid) -> tuple[Verdict, Verdict]:
    """The two classical independent-case conditions on an N-grid:
    sum_{n<=N} P(|f_n| > N) -> 0 and N^-2 sum_{n<=N} E(f_n^2 1{|f_n|<=N}) -> 0.
    For independent arrays these are necessary and sufficient for a WLLN
    with constant correctors.
    """
    N_grid = sorted(int(N) for N in N_grid)
    s1, s2 = {}, {}
    for N in N_grid:
        dists = [model.marginal_dist(n) for n in range(1, N + 1)]
        s1[N] = math.fsum(d.survival(N) for d in dists)
        s2[N] = math.fsum(d.trunc_moment(N, 2) for d in dists) / (N * N)
    verdicts = []
    for seq in (s1, s2):
        vals = [seq[N] for N in N_grid]
        trend = _grid_trend(vals)
        if max(vals) - min(vals) <= 1e-12 and vals[-1] > 1e-12:
            verdicts.append(Verdict("fails",
                                    "sequence exactly constant and positive on grid",
                                    {"values": seq, **trend}))
        elif vals[-1] <= 1e-12:
            verdicts.append(Verdict("holds-on-grid", "vanishes on grid",
                                    {"values": seq, **trend}))
        elif trend["decreasing"] and vals[-1] <= 0.5 * vals[0]:
            verdicts.append(Verdict("holds-on-grid",
                                    "monotone decay on grid",
                                    {"values": seq, **trend}))
        else:
            verdicts.append(Verdict("inconclusive", "no clear decay on grid",
                                    {"values": seq, **trend}))
    return verdicts[0], verdicts[1]
