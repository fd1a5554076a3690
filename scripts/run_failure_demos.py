#!/usr/bin/env python3
"""SAA failure demos and their fixes, on the named adversarial instances.

Three cells where plain SAA is not rate-optimal:
  * pricing under Wasserstein: regret stuck at M; deflating the price by
    sqrt(M*eps) restores a sqrt(M*eps) rate;
  * ski rental under Kolmogorov/TV: regret scales with the support size M;
    capping the rental at b*ln(1/eps) removes the M dependence;
  * ski rental under Wasserstein: regret of order b; inflating the buy time
    by sqrt(b*eps) restores a sqrt(b*eps) rate.
"""

import argparse
import math

from heterodro.cli import default_scan_grid
from heterodro.metrics import DistanceKind
from heterodro.policies import recommended_parameter
from heterodro.regret import adversarial_instance, dro_regret_scan, evaluate_pair

K, W = DistanceKind.KOLMOGOROV, DistanceKind.WASSERSTEIN


def show(label, saa_value, fixed_label, fixed_value, bound):
    print(f"  SAA regret            {saa_value:10.5f}")
    print(f"  {fixed_label:<21} {fixed_value:10.5f}  (analytic cap {bound:.5f})")
    print()


def run(eps: float) -> None:
    print(f"heterogeneity radius eps = {eps}\n")

    print("pricing, Wasserstein (M = 1)")
    pair = adversarial_instance("pr_w_saa_fail", dict(M=1.0, eps=eps, eta=1e-3))
    saa_val = evaluate_pair(pair)
    pol = recommended_parameter(pair.problem, W, eps)
    rep = dro_regret_scan(pair.problem, pol, W, eps, default_scan_grid(pair.problem, W, pol, eps))
    show("pricing", saa_val, f"deflate by {-pol.delta:.3f}", rep.estimate, 4 * math.sqrt(eps))

    print("ski rental, Kolmogorov (SAA on b = 3, capped on b = 1; M = 10)")
    pair = adversarial_instance("ski_k_saa_fail", dict(M=10, b=3, eps=eps))
    saa_val = evaluate_pair(pair)
    ski = adversarial_instance("ski_k_lower", dict(b=1.0, M=10.0, eps=eps)).problem
    pol = recommended_parameter(ski, K, eps)
    rep = dro_regret_scan(ski, pol, K, eps, default_scan_grid(ski, K, pol, eps))
    bound = (math.log(1 / eps) + 2) * eps
    show("ski-K", saa_val, f"cap rental at {pol.cap:.2f}", rep.estimate, bound)

    print("ski rental, Wasserstein (b = 2, M = 10)")
    pair = adversarial_instance("ski_w_saa_fail", dict(b=2.0, M=10.0, eps=eps))
    saa_val = evaluate_pair(pair)
    pol = recommended_parameter(pair.problem, W, eps)
    rep = dro_regret_scan(pair.problem, pol, W, eps, default_scan_grid(pair.problem, W, pol, eps))
    bound = 4 * math.sqrt(2 * eps) + 2 * eps
    show("ski-W", saa_val, f"inflate by {pol.delta:.3f}", rep.estimate, bound)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=0.04)
    run(parser.parse_args().eps)
