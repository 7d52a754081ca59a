"""A look inside the two filter schedules.

The transmitter side runs a Kalman filter on noisy measurements
gamma(t) = c x(t) + d v(t); the receiver side runs an exact scalar Kalman
filter on the channel outputs that estimates the transmitter's one-step
predictor, and adds the transmitter's own prediction error to its MSE.  This
script prints both schedules for a sensor with real noise, then sets d = 0
and shows the whole filtered pipeline collapse onto the direct
state-transmission scheme.
"""

import numpy as np

from statecast import (
    ChannelParams,
    SchemeKind,
    SystemParams,
    analytic_mse,
    coupled_decoder_schedule,
    state_variance,
    transmitter_gain_schedule,
)

T = 5
channel = ChannelParams.make(T, P=1.0, N=0.5)

noisy = SystemParams.make(T, a=0.9, b=1.0, c=1.0, d=1.0, V_ww=1.0, V_vv=1.0)
g = transmitter_gain_schedule(noisy)

print("sensor with unit noise (c = d = 1):")
print("  t   filter gain L   est. variance   one-step error")
for t in range(T + 1):
    print(f"  {t}   {g.L[t]:<13.6f}   {g.sigma_breve_sq[t]:<13.6f}   "
          f"{g.filtered_error_var[t]:.6f}")

# the receiver decodes the scaled estimate; its error is about the plant
# state, so it includes the transmitter's own filtering error
ds = coupled_decoder_schedule(noisy, channel, g)
print("\n  t   encoder scale K   decoder MSE")
for i in range(T):
    print(f"  {i + 1}   {ds.K[i]:<15.6f}   {ds.mse[i]:.6f}")

print("\nnow silence the sensor (d = 0): the filter repeats the state and")
print("the filtered pipeline reduces to transmitting x(t) directly\n")

silent = SystemParams.make(T, a=0.9, b=1.0, c=1.0, d=0.0, V_vv=1.0)
direct = SystemParams.make(T, a=0.9, b=1.0)
gs = transmitter_gain_schedule(silent)
print("  max |estimate variance - state variance| =",
      np.abs(gs.sigma_breve_sq - state_variance(direct)).max())
print("  max filtered error variance             =",
      np.abs(gs.filtered_error_var).max())

r_direct = analytic_mse(SchemeKind.FULL_STATE, direct, channel)
r_silent = analytic_mse(SchemeKind.NOISY_STATE, silent, channel)
print("  max |MSE difference between pipelines|  =",
      np.abs(r_direct.mse_analytic - r_silent.mse_analytic).max())
