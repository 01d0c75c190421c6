"""Centering sequences ("correctors") for the truncated sample averages.

A corrector series assigns to each level N a centering value D_N with
|D_N| <= N in every realization.  Two kinds exist:

* ``constant``    -- one real number per level (classical formulas)
* ``conditional`` -- a map from the latent factor value to a real, for
                     conditionally-iid models where the natural centering
                     is itself random
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .distributions import UnsupportedOracleError

# how far a realized factor may sit from its atom: float round-off
_ATOM_TOLERANCE = 1e-9

if TYPE_CHECKING:   # annotations only: the exact centerings live on the models
    from .models import SequenceModel


@dataclass
class CorrectorSeries:
    n_grid: tuple
    kind: str  # "constant" | "conditional"
    values: dict  # N -> float, or N -> {factor_value: float}
    provenance: str
    # D_N per (factor atom, level), read-only, NaN where a level lacks the
    # atom; the constant kind is one row, at a nominal atom 0
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n_grid = tuple(int(N) for N in self.n_grid)
        self._column = {N: g for g, N in enumerate(self.n_grid)}
        maps = [self.values[N] if self.kind == "conditional"
                else {0.0: self.values[N]} for N in self.n_grid]
        self._atoms = np.array(sorted({float(b) for m in maps for b in m}))
        rows = {b: a for a, b in enumerate(self._atoms.tolist())}
        self.table = np.full((len(rows), len(maps)), np.nan)
        for g, m in enumerate(maps):
            for b, v in m.items():
                self.table[rows[float(b)], g] = v
        self.table.flags.writeable = False
        # a factor resolves to the atom whose midpoints enclose it
        self._mid = (self._atoms[1:] + self._atoms[:-1]) / 2
        worst = np.fmax.reduce(np.abs(self.table), initial=0.0)  # skips NaN
        for N, w in zip(self.n_grid, worst):
            if w > N:
                raise ValueError(f"corrector magnitude {w} exceeds level {N}")

    def realized(self, levels, factors=None) -> np.ndarray:
        """D_N for N in ``levels`` on every path, or at every factor atom:
        (len(levels),) for the constant kind, (len(factors), len(levels))
        for the conditional kind, which takes each factor's nearest atom
        within float round-off.  A level off the grid, or a factor near no
        atom (NaN is near none) or near one that a level's table lacks,
        raises ``KeyError``; a conditional series without factors has no
        value, and only a model with a finite factor law can take it."""
        levels = tuple(levels)
        table = self.table if levels == self.n_grid else self.table.take(
            [self._column[int(N)] for N in levels], axis=1)
        if self.kind != "conditional":
            return table[0]
        if factors is None:
            raise UnsupportedOracleError(
                "conditional correctors are only supported on models with a "
                "finite factor law (latent shift)")
        f = np.asarray(factors, dtype=float).ravel()
        near = np.searchsorted(self._mid, f)
        found = np.where(np.isnan(table).any(axis=1), np.nan, self._atoms)
        ok = np.abs(found[near] - f) <= _ATOM_TOLERANCE
        if not ok.all():
            raise KeyError(f"factor {f[~ok][0]} not in corrector table")
        return table[near]

    def is_zero(self) -> bool:
        return not np.nan_to_num(self.table).any()

    def to_json(self) -> dict:
        out = {"kind": self.kind, "provenance": self.provenance, "series": []}
        for N in self.n_grid:
            entry: dict = {"N": N}
            if self.kind == "conditional":
                entry["table"] = [[b, v] for b, v in sorted(self.values[N].items())]
            else:
                entry["value"] = self.values[N]
            out["series"].append(entry)
        return out


def zero_corrector(n_grid) -> CorrectorSeries:
    return CorrectorSeries(tuple(n_grid), "constant",
                           {int(N): 0.0 for N in n_grid}, "zero")


def corrector_independent(model: SequenceModel, n_grid) -> CorrectorSeries:
    """D_N = (1/N) sum_{n<=N} E(f_n 1{|f_n| <= N}) for independent
    coordinates."""
    values = {}
    for N in map(int, n_grid):
        values[N] = model.marginal_sum(
            N, lambda dist: dist.trunc_moment(float(N), 1)) / N
    return CorrectorSeries(tuple(n_grid), "constant", values,
                           "independent-average-truncated-mean")


def corrector_weak_l2(model: SequenceModel, n_grid) -> CorrectorSeries:
    """Exact weak-L2 limits of the truncated coordinates, where the model
    structure pins them down (``SequenceModel.weak_l2_centering``)."""
    n_grid = tuple(int(N) for N in n_grid)
    values = {N: model.weak_l2_centering(N) for N in n_grid}
    kind = "constant" if model.factor_law is None else "conditional"
    return CorrectorSeries(n_grid, kind, values, model.weak_l2_provenance)

