"""Data-driven decision-making in heterogeneous environments.

Worst-case regret of SAA and robustified policies (deviated SAA, capped
rental) for newsvendor, pricing, and ski-rental when historical samples
come from distributions within a Kolmogorov, total-variation, or
Wasserstein ball around the out-of-sample distribution.
"""

from .measures import (
    FiniteMeasure,
    from_text,
    make_finite_measure,
    quantile,
    to_text,
)
from .metrics import DistanceKind, in_ball, kolmogorov, total_variation, wasserstein1
from .policies import PolicySpec, apply_policy, policy_action, recommended_parameter
from .problems import ProblemSpec, expected_objective, objective, opt_value, oracle
from .regret import (
    AdversarialPair,
    RegretReport,
    ScanGrid,
    adversarial_instance,
    analytic_bounds,
    dro_regret_scan,
    exact_regret,
    exhaustive_regret_n2,
    monte_carlo_regret,
    ski_indifference_measure,
)
from .approx import ObjectiveStats, bernstein_eval, objective_stats, saa_diagnostic

__all__ = [
    "AdversarialPair",
    "DistanceKind",
    "FiniteMeasure",
    "ObjectiveStats",
    "PolicySpec",
    "ProblemSpec",
    "RegretReport",
    "ScanGrid",
    "adversarial_instance",
    "analytic_bounds",
    "apply_policy",
    "bernstein_eval",
    "dro_regret_scan",
    "exact_regret",
    "exhaustive_regret_n2",
    "expected_objective",
    "from_text",
    "in_ball",
    "kolmogorov",
    "make_finite_measure",
    "monte_carlo_regret",
    "objective",
    "objective_stats",
    "opt_value",
    "oracle",
    "policy_action",
    "quantile",
    "recommended_parameter",
    "saa_diagnostic",
    "ski_indifference_measure",
    "to_text",
    "total_variation",
    "wasserstein1",
]
