#!/usr/bin/env python3
"""Tabulate stationary log-wealth moments over the wealth figures' economies.

Prints, for each column of the density figures 7-14 (the leverage tiers at
both asset settings and along the (theta, sigma) robustness axes), the mean,
variance and two tail exponents of log wealth, and the mean of level wealth.
"""

from cogecon.figures import TYPE_TWO_FIGURES, wealth_economies
from cogecon.wealth import EconomyParams, density_stats, drift_diffusion


def row(p: EconomyParams) -> None:
    s = density_stats(drift_diffusion(p).density())
    wm = f"{s.wealth_mean:.4f}" if s.wealth_mean_exists else "divergent"
    print(f"  lam={p.lam:<4g} f={p.f_sigma:<4g} theta={p.theta:<4g} sigma={p.sigma:<4g}"
          f"  mean={s.mean_x:+.4f}  var={s.var_x:8.4f}"
          f"  rates=({s.tail_exponent_left:.4f}, {s.tail_exponent_right:.4f})"
          f"  E[a]={wm}")


def main() -> None:
    for fid in range(7, 15):
        regime = "paired" if fid in TYPE_TWO_FIGURES else "fixed"
        print(f"figure {fid}, {regime} friction:")
        for _, p in wealth_economies(fid, EconomyParams()):
            row(p)


if __name__ == "__main__":
    main()
