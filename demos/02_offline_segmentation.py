"""Retrospective segmentation of a series with two mean breaks.

The split statistic compares the mean left and right of every candidate
point on a variance-stabilized scale; its |argmax| is the change-point
estimate.  Recursive application with a null threshold, the level-95% point
of the largest |statistic| over pure Gaussian noise from a closed-form tail
approximation, turns that single estimate into a full segmentation, and every
accept/reject decision is logged.
"""

import numpy as np

from quickdetect import bd_estimate, bd_segment, bd_statistic

rng = np.random.default_rng(1848)
x = np.concatenate(
    [
        rng.normal(0.0, 1.0, 300),   # regime 1
        rng.normal(0.9, 1.0, 250),   # regime 2: mean up
        rng.normal(0.2, 1.0, 350),   # regime 3: mean partly back down
    ]
)
print(f"series of {x.size} points with true breaks at 300 and 550")

best, trace = bd_estimate(x)
print(f"\nsingle-split estimate: {best} (|Y| = {trace.abs_max_value:.3f})")
print("statistic around the winner:")
for n in range(best - 2, best + 3):
    print(f"  Y({n}) = {bd_statistic(x, n):+.4f}")

result = bd_segment(x, min_segment=50)
print(f"\nrecursive segmentation found change points: {list(result.change_points)}")
for m in result.segments:
    print(f"  [{m.interval[0]:4d}, {m.interval[1]:4d})  "
          f"mean {m.mean:+.3f}  sd {m.sd:.3f}  ({m.count} pts)")

print("\ndecision log:")
for d in result.decisions:
    where = f"[{d.start}, {d.stop})"
    print(f"  {where:<13} {d.reason}"
          + (f" -> split at {d.split_at}" if d.split_at is not None else ""))
