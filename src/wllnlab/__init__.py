"""Numerical laboratory for weak laws of large numbers under dependence.

Pipeline: model -> tail functionals -> correctors -> near-orthogonal
subsequence extraction -> Monte Carlo convergence verification.
"""

from .correctors import (
    CorrectorSeries,
    corrector_independent,
    corrector_weak_l2,
    zero_corrector,
)
from .distributions import (
    Distribution,
    FiniteDiscrete,
    HeavyLogLaw,
    Pareto1,
    UnsupportedOracleError,
    convolve,
    example41_constant_c,
)
from .extract import (
    ExtractConfigError,
    ExtractionFailure,
    ExtractionPlan,
    greedy_extract,
    truncate_array,
    verify_plan,
)
from .models import (
    CapacityError,
    Example41Model,
    IIDModel,
    IndependentArrayModel,
    LatentShiftModel,
    SequenceModel,
    TailVanishingModel,
    dist_from_spec,
    model_from_spec,
)
from .streams import Positions
from .tails import (
    TailProfile,
    Verdict,
    build_tail_profile,
    check_energy_vanishing,
    check_feller_necessary,
    check_liminf_condition,
    check_limsup_condition,
    check_weak_l1,
)
from .verify import (
    ConvergenceReport,
    GapReport,
    HereditaryReport,
    ProbeInputError,
    ProbePass,
    hereditary_suite,
    truncation_gap_probe,
    wilson_interval,
    wlln_probe,
)

__version__ = "0.1.0"
