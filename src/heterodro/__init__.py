"""Data-driven decision-making in heterogeneous environments.

Worst-case regret of SAA and robustified policies (deviated SAA, capped
rental) for newsvendor, pricing, and ski-rental when historical samples
come from distributions within a Kolmogorov, total-variation, or
Wasserstein ball around the out-of-sample distribution.
"""
