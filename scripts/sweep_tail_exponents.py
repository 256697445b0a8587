#!/usr/bin/env python3
"""Tabulate stationary log-wealth moments over the leverage and robustness sweeps.

Prints the numbers summarized by the density figures: mean, variance, and the
two tail exponents for each leverage tier, at both asset settings and along
the (theta, sigma) robustness axes.
"""

from cogecon.figures import ASSET_HIGH, ASSET_LOW, F_SIGMA_TIERS, LAMBDA_TIERS, ROBUST_SIGMA, ROBUST_THETA
from cogecon.wealth import EconomyParams, density_stats, drift_diffusion, stationary_wealth_density


def row(theta, sigma, lam, f_sigma):
    p = EconomyParams(theta=theta, sigma=sigma, lam=lam, f_sigma=f_sigma)
    s = density_stats(stationary_wealth_density(drift_diffusion(p)))
    wm = f"{s.wealth_mean:.4f}" if s.wealth_mean_exists else "divergent"
    print(f"  lam={lam:<4g} f={f_sigma:<4g} theta={theta:<4g} sigma={sigma:<4g}"
          f"  mean={s.mean_x:+.4f}  var={s.var_x:8.4f}"
          f"  rates=({s.tail_exponent_left:.4f}, {s.tail_exponent_right:.4f})"
          f"  E[a]={wm}")


def main() -> None:
    for theta, sigma in (ASSET_LOW, ASSET_HIGH):
        print(f"fixed friction, asset setting ({theta}, {sigma}):")
        for lam in LAMBDA_TIERS:
            row(theta, sigma, lam, 1.0)
        print(f"paired friction, asset setting ({theta}, {sigma}):")
        for lam, f in zip(LAMBDA_TIERS, F_SIGMA_TIERS):
            row(theta, sigma, lam, f)
    # As in the robustness figures: theta swept at the low sigma, sigma at the low theta.
    axes = [(t, ASSET_LOW[1]) for t in ROBUST_THETA] + [(ASSET_LOW[0], s) for s in ROBUST_SIGMA]
    print("robustness axes (per tier, both regimes):")
    for lam, f_paired in zip(LAMBDA_TIERS, F_SIGMA_TIERS):
        for f in (1.0, f_paired):
            for theta, sigma in axes:
                row(theta, sigma, lam, f)


if __name__ == "__main__":
    main()
