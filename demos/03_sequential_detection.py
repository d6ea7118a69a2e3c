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
    alarm = trace.first_alarm
    print(f"exact {kind:5s} threshold {threshold:6.1f}: "
          f"alarm at step {alarm.global_time} "
          f"(delay {alarm.global_time - CHANGE}, stat {alarm.statistic_at_stop:.1f})")

# --- score surrogate: same detector, increments from three constants ------

std = model.standardized
params = design_coefficients(q=1.0 / std.sigma_post, delta=std.mu_post)
score = linear_quadratic_score(params, (x - model.mu_pre) / model.sigma_pre)
trace = run_detector(score, kind="cusum", threshold=4.0)
print(f"score cusum  threshold    4.0: alarm at step {trace.first_alarm.global_time}")

# --- multi-cyclic: keep watching after every alarm ------------------------

trace = multi_cyclic_run(z, kind="cusum", threshold=4.0, change_point=CHANGE)
alarms = [a.global_time for a in trace.alarms]
print(f"\nmulti-cyclic cusum alarms at {alarms}")
print(f"false alarms before the change: {sum(1 for t in alarms if t <= CHANGE)}")
detection = trace.true_detection
print(f"first true detection: step {detection.global_time} "
      f"(delay {detection.global_time - CHANGE})")
