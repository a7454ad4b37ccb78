"""Randomized voting rules and worst-case distortion oracles.

The package has two halves. ``rules`` holds the voting rules themselves:
classics (plurality, Copeland, random dictatorship), veto-based winners,
harmonic-weight lotteries and their anchored truncations, the top-t
variants that only see ranking prefixes, and a convex-combination
combinator. ``oracles`` answers "how bad can this lottery be on this
profile": linear programs search over every consistent metric, a
per-agent choice of polytope vertices (Dinkelbach's iteration) over every
consistent utility profile, with an exact enumeration twin for
cross-checking and a worst-case search over whole profiles.

``instances`` generates the structured profiles used by the worst-case
demonstrations and handles the JSON file formats; ``lp`` is the dense
two-phase simplex solver underneath the metric oracle.
"""

from .core import (
    LOTTERY_TOL,
    RATIO_TOL,
    STRUCT_TOL,
    DistortionValue,
    Lottery,
    MetricSpace,
    Profile,
    Ranking,
    TopTProfile,
    UtilityProfile,
    eval_distortion,
    is_metric_consistent,
    is_utility_consistent,
    plurality_scores,
    restrict_profile,
    social_cost,
    social_welfare,
    truncate_profile,
    validate_profile,
)
from .instances import (
    GENERATOR_KINDS,
    InstanceFormatError,
    load_instance,
    load_lottery,
    load_metric,
    load_utilities,
    prop31_profile,
    random_profile,
    save_instance,
    save_lottery,
    save_metric,
    save_utilities,
    thm36_instance,
    thm51_profile,
    thm53_instance,
)
from .lp import LinearProgram, LPOutcome, solve
from .oracles import (
    BudgetExceededError,
    DistortionReport,
    exhaustive_worst_case,
    metric_distortion,
    rule_distortion,
    utilitarian_distortion,
    utilitarian_distortion_bruteforce,
)
from .rules import (
    VetoTrace,
    copeland,
    harmonic_number,
    harmonic_rule,
    mix,
    plurality,
    plurality_veto,
    pruned_plurality_veto,
    random_dictatorship,
    top_t_det_rule,
    top_t_truncated_harmonic,
    truncated_harmonic,
    truncated_weights,
)

__version__ = "0.1.0"

__all__ = [
    "LOTTERY_TOL",
    "RATIO_TOL",
    "STRUCT_TOL",
    "DistortionValue",
    "Lottery",
    "MetricSpace",
    "Profile",
    "Ranking",
    "TopTProfile",
    "UtilityProfile",
    "eval_distortion",
    "is_metric_consistent",
    "is_utility_consistent",
    "plurality_scores",
    "restrict_profile",
    "social_cost",
    "social_welfare",
    "truncate_profile",
    "validate_profile",
    "GENERATOR_KINDS",
    "InstanceFormatError",
    "load_instance",
    "load_lottery",
    "load_metric",
    "load_utilities",
    "prop31_profile",
    "random_profile",
    "save_instance",
    "save_lottery",
    "save_metric",
    "save_utilities",
    "thm36_instance",
    "thm51_profile",
    "thm53_instance",
    "LinearProgram",
    "LPOutcome",
    "solve",
    "BudgetExceededError",
    "DistortionReport",
    "exhaustive_worst_case",
    "metric_distortion",
    "rule_distortion",
    "utilitarian_distortion",
    "utilitarian_distortion_bruteforce",
    "VetoTrace",
    "copeland",
    "harmonic_number",
    "harmonic_rule",
    "mix",
    "plurality",
    "plurality_veto",
    "pruned_plurality_veto",
    "random_dictatorship",
    "top_t_det_rule",
    "top_t_truncated_harmonic",
    "truncated_harmonic",
    "truncated_weights",
    "__version__",
]
