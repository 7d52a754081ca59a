"""Closed-form per-step MSE against Monte Carlo estimates.

Runs the direct state-transmission scheme on a fixed plant/channel pair and
shows the empirical mean squared error converging onto the analytic values
as the sample count grows, then one long-horizon run (T=5000, 1,000
samples) whose worst per-step deviation is set against the Bonferroni
reference: the |z| that T independent standard normal deviates all stay
below with probability 95%.  Everything is seeded, so the output is stable.
"""

from statistics import NormalDist

import numpy as np

from statecast import ChannelParams, SchemeKind, SystemParams, monte_carlo_mse

T = 5
params = SystemParams.make(T, a=0.9, b=1.0)
channel = ChannelParams.make(T, P=1.0, N=0.5)

print(f"plant: x(t+1) = 0.9 x(t) + w(t), horizon T={T}")
print("channel: P = 1, N = 0.5, scheme = FullState\n")

for samples in (1_000, 10_000, 100_000):
    r = monte_carlo_mse(SchemeKind.FULL_STATE, params, channel, samples, seed=0)
    dev = np.abs(r.mse_empirical - r.mse_analytic) / r.stderr
    print(f"samples = {samples:>7d}")
    print("  t   analytic      empirical     stderr      |dev|/se")
    for i in range(T):
        print(f"  {i + 1}   {r.mse_analytic[i]:<12.6f}  "
              f"{r.mse_empirical[i]:<12.6f}  {r.stderr[i]:<10.6f}  "
              f"{dev[i]:.2f}")
    print(f"  average: analytic {r.avg_mse_analytic:.6f}, "
          f"empirical {r.avg_mse_empirical:.6f}\n")

print("every per-step deviation sits within a few standard errors, and the")
print("standard errors shrink like 1/sqrt(samples)\n")

T_long, samples = 5000, 1_000
long = SystemParams.make(T_long, a=0.9, b=1.0)
r = monte_carlo_mse(SchemeKind.FULL_STATE, long, ChannelParams.make(T_long, P=1.0, N=0.5),
                    samples, seed=0)
worst = np.abs(r.mse_empirical - r.mse_analytic) / r.stderr
bonferroni = NormalDist().inv_cdf(1 - 0.025 / T_long)
print(f"T = {T_long}, samples = {samples}: worst |dev|/se {worst.max():.2f} at "
      f"t = {int(worst.argmax()) + 1}, Bonferroni reference "
      f"Phi^-1(1 - 0.025/T) = {bonferroni:.2f}")
