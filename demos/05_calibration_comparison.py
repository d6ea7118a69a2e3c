"""
Calibrating thresholds and comparing CUSUM against Shiryaev-Roberts
===================================================================

For a target mean time to false alarm gamma, reads each detector's
threshold off its Monte Carlo ARL curve, a step function under common
random numbers (the midpoint of the step nearest gamma), then measures
the worst-case delay (change in force from step one) and the stationary
multi-cyclic delay (change injected deep into a restarting run).  In the multi-cyclic regime Shiryaev-Roberts is the one to beat.
"""

import math

from quickdetect import (
    CalibrationSpec,
    DetectorConfig,
    GaussianChangeModel,
    estimate_sadd,
    estimate_stadd,
    solve_threshold,
)

model = GaussianChangeModel(0.0, 1.0, 1.0, 1.0)
GAMMA = 100.0
spec = CalibrationSpec(
    gamma=GAMMA, replications=6_000, seed=23, nu_stationary=2_000
)

print(f"target mean time to false alarm: {GAMMA:.0f} observations")
print(f"{'':8s}{'threshold':>12s}{'MC ARL':>10s}{'SADD':>9s}{'STADD':>9s}")

rows = {}
for kind in ("cusum", "sr"):
    config = DetectorConfig(kind=kind, model=model)
    threshold, arl = solve_threshold(config, spec)
    sadd = estimate_sadd(config, threshold, spec)
    stadd = estimate_stadd(config, threshold, spec)
    rows[kind] = (sadd, stadd)
    shown = f"{threshold:.3f}" if kind == "cusum" else f"{threshold:.1f}"
    print(f"{kind:8s}{shown:>12s}{arl.value:>10.1f}"
          f"{sadd.value:>9.2f}{stadd.value:>9.2f}")

gap = rows["cusum"][1].value - rows["sr"][1].value
noise = math.hypot(rows["cusum"][1].std_error, rows["sr"][1].std_error)
print(f"\nstationary delay: SR better than CUSUM by {gap:.3f} obs "
      f"(combined se {noise:.3f})")
print("worst-case delay favors CUSUM slightly; the multi-cyclic regime "
      "flips the ranking")
