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

from .distributions import Distribution, UnsupportedOracleError

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
    # levels -> what ``realized`` reads, built on its first call
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.n_grid = tuple(int(N) for N in self.n_grid)
        for N in self.n_grid:
            if self.kind == "conditional":
                worst = max(abs(v) for v in self.values[N].values())
            else:
                worst = abs(self.values[N])
            if worst > N:
                raise ValueError(f"corrector magnitude {worst} exceeds level {N}")

    def value(self, N: int, factor: float | None = None) -> float:
        """D_N; the conditional kind reads the table at the factor's exact
        atom (``realized`` resolves sampled factors)."""
        if self.kind != "conditional":
            return float(self.values[N])
        if factor is None:
            raise ValueError("conditional corrector needs the factor value")
        table = self.values[N]
        if factor not in table:
            raise KeyError(f"factor {factor} not in corrector table")
        return float(table[factor])

    def constant(self, N: int) -> float:
        """D_N of a non-random series; a conditional series has none, and
        only the latent-shift oracles can take it."""
        if self.kind == "conditional":
            raise UnsupportedOracleError(
                "conditional correctors are only supported on latent-shift models")
        return float(self.values[N])

    def realized(self, levels, factors=None) -> np.ndarray:
        """D_N for N in ``levels`` on every path: shape (len(levels),) for
        the constant kinds, (len(factors), len(levels)) for the conditional
        kind.  Both read a table built by ``value`` on the first call for
        ``levels``; the conditional kind takes each factor's nearest atom,
        tolerating float round-off, and a factor near no atom (NaN is near
        none), or on one that a level's table lacks, raises ``KeyError``."""
        levels = tuple(levels)
        if levels not in self._tables:
            self._tables[levels] = self._table(levels)
        if self.kind != "conditional":
            return self._tables[levels]
        if factors is None:
            raise ValueError(
                "conditional corrector needs a model exposing the factor")
        mid, atoms, table = self._tables[levels]
        f = np.asarray(factors, dtype=float).ravel()
        near = np.searchsorted(mid, f)
        ok = np.abs(atoms[near] - f) <= _ATOM_TOLERANCE
        if not ok.all():
            raise KeyError(f"factor {f[~ok][0]} not in corrector table")
        return table[near]

    def _table(self, levels: tuple):
        """(len(levels),) values; or, for the conditional kind, the
        midpoints between the sorted atoms of every level's table, the
        atoms (NaN where a level's table resolves no value) and their
        (atoms, len(levels)) values."""
        if self.kind != "conditional":
            table = np.array([self.value(N) for N in levels])
            table.flags.writeable = False
            return table
        atoms = np.array(sorted({float(b) for N in levels
                                 for b in self.values[N]}))
        table = np.full((len(atoms), len(levels)), np.nan)
        for g, N in enumerate(levels):
            for a, b in enumerate(atoms):
                try:
                    table[a, g] = self.value(N, factor=float(b))
                except KeyError:
                    pass
        found = np.where(np.isnan(table).any(axis=1), np.nan, atoms)
        return (atoms[1:] + atoms[:-1]) / 2, found, table

    def is_zero(self) -> bool:
        if self.kind == "conditional":
            return all(v == 0.0 for N in self.n_grid
                       for v in self.values[N].values())
        return all(self.values[N] == 0.0 for N in self.n_grid)

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


def corrector_iid(dist: Distribution, n_grid) -> CorrectorSeries:
    """D_N = E(f 1{|f| <= N}) for identically distributed coordinates."""
    values = {int(N): dist.trunc_moment(float(N), 1) for N in n_grid}
    return CorrectorSeries(tuple(n_grid), "constant", values, "iid-truncated-mean")


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

