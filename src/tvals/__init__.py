"""Certified enclosures and order structure of nested odd-denominator series.

The library evaluates the values ``t(k_1,...,k_d) = sum over
m_1 > ... > m_d > 0 of prod (2 m_i - 1)**(-k_i)`` and their tails (the same
sums with the innermost variable required to exceed a fixed offset) as
validated interval enclosures, certifies comparisons between them, builds
the decreasing table of tail values with its band structure and coordinate
map, and runs mechanical verification scans over the identities and
conjectures this order structure satisfies.
"""

from .enclosure import Enclosure, RoundingError
from .errors import BudgetExceededError, DivergentError, UnresolvedComparisonError
from .evaluator import (
    DEFAULT_TARGET_WIDTH,
    EvalRequest,
    evaluate,
    evaluate_direct,
    evaluate_direct_many,
    evaluate_direct_family,
    evaluate_spec,
    odd_power_tail,
)
from .indices import (
    IndexParseError,
    MultiIndex,
    ValueSpec,
    depth,
    enumerate_admissible,
    enumerate_admissible_up_to,
    index_str,
    is_admissible,
    parse_index,
    parse_value_spec,
    weight,
)
from .numerics import (
    PrecisionBudget,
    bernoulli_fraction,
    const_catalan,
    const_pi,
    euler_int,
)


def __getattr__(name: str):
    """Resolve the names of ``__all__`` that the order layer or the scans
    define on first access (PEP 562), so that importing the package, or
    running ``tv eval``, loads neither.  ``verify`` imports ``order``, so
    trying ``order`` first loads nothing extra."""
    from importlib import import_module

    if name in __all__:
        for module in ("order", "verify"):
            value = getattr(import_module(f".{module}", __name__), name, None)
            if value is not None:
                globals()[name] = value
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "Enclosure",
    "RoundingError",
    "BudgetExceededError",
    "DivergentError",
    "UnresolvedComparisonError",
    "DEFAULT_TARGET_WIDTH",
    "EvalRequest",
    "evaluate",
    "evaluate_direct",
    "evaluate_direct_many",
    "evaluate_direct_family",
    "evaluate_spec",
    "IndexParseError",
    "MultiIndex",
    "ValueSpec",
    "depth",
    "enumerate_admissible",
    "enumerate_admissible_up_to",
    "index_str",
    "is_admissible",
    "parse_index",
    "parse_value_spec",
    "weight",
    "PrecisionBudget",
    "bernoulli_fraction",
    "const_catalan",
    "const_pi",
    "euler_int",
    "odd_power_tail",
    "BetaEntry",
    "ComparisonOutcome",
    "PhiCoord",
    "Verdict",
    "band_of_value",
    "band_prefix",
    "beta_table",
    "compare",
    "enumerate_tails_above",
    "phi",
    "rank_of_tail",
    "Finding",
    "ScanReport",
    "ScanStatus",
    "check_phi_conjecture",
    "scan_p_sets",
    "scan_tail_collisions",
    "verify_catalan",
    "verify_chain",
    "verify_limits",
    "verify_monotonicity",
    "verify_repeated",
    "verify_sum_formula",
    "verify_tail_recurrence",
    "__version__",
]
