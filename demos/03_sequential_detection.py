"""
Sequential detection: CUSUM and Shiryaev-Roberts on a live stream
=================================================================

Watches one observation stream with a change injected at step 150 and runs
the detectors on two kinds of log increments:

  exact  - log-likelihood ratios of the true pre/post model
  score  - the linear-quadratic surrogate (no likelihoods needed)

then restarts after every alarm in multi-cyclic mode.
"""

import numpy as np

from quickdetect import (
    GaussianChangeModel,
    design_coefficients,
    linear_quadratic_score,
    llr,
    multi_cyclic_run,
    run_detector,
)

CHANGE = 150
model = GaussianChangeModel(mu_pre=0.0, sigma_pre=1.0, mu_post=0.8, sigma_post=1.4)

rng = np.random.default_rng(99)
x = np.concatenate(
    [
        rng.normal(model.mu_pre, model.sigma_pre, CHANGE),
        rng.normal(model.mu_post, model.sigma_post, 100),
    ]
)

# --- exact likelihood ratios ----------------------------------------------

z = llr(model, x)
for kind, threshold in (("cusum", 4.0), ("sr", 250.0)):
    trace = run_detector(z, kind=kind, threshold=threshold)
    step = trace.alarms[0]  # the trace stops at its alarm
    print(f"exact {kind:5s} threshold {threshold:6.1f}: "
          f"alarm at step {step} "
          f"(delay {step - CHANGE}, stat {trace.statistics[-1]:.1f})")

# --- score surrogate: same detector, increments from three constants ------

std = model.standardized
params = design_coefficients(q=1.0 / std.sigma_post, delta=std.mu_post)
score = linear_quadratic_score(params, (x - model.mu_pre) / model.sigma_pre)
trace = run_detector(score, kind="cusum", threshold=4.0)
print(f"score cusum  threshold    4.0: alarm at step {trace.alarms[0]}")

# --- multi-cyclic: keep watching after every alarm ------------------------

trace = multi_cyclic_run(z, kind="cusum", threshold=4.0)
alarms = trace.alarms
print(f"\nmulti-cyclic cusum alarms at {alarms.tolist()}")
print(f"cycle lengths: {np.diff(alarms, prepend=0).tolist()}")
print(f"false alarms before the change: {np.count_nonzero(alarms <= CHANGE)}")
detection = alarms[alarms > CHANGE][0]
print(f"first alarm after the change: step {detection} (delay {detection - CHANGE})")
