"""How good are the closed-form ARL and delay approximations?

Computes the Kullback-Leibler numbers, the ladder constants (overshoot
and walk extremes) and the path functionals for two change models,
evaluates the renewal-theory approximations at a few thresholds, and pits
them against quick Monte Carlo estimates.  The equal-variance model gets
its ladder constants from exact series; the unequal-variance one reads
them off simulated post-change walks (nonzero standard errors).  The path
functionals C0 and Cinf are always simulated, C0 from those same walks.
"""

import math

from quickdetect import (
    CalibrationSpec,
    DetectorConfig,
    EstimationPolicy,
    GaussianChangeModel,
    arl_approx,
    delay_approx,
    estimate_arl,
    estimate_constants,
    estimate_sadd,
    kl_numbers,
)

policy = EstimationPolicy(replications=8_000, seed=5)

for label, model in (
    ("unit mean shift N(0,1) -> N(1,1)", GaussianChangeModel(0.0, 1.0, 1.0, 1.0)),
    ("mean+variance shift N(0,1) -> N(0.5,1.5)", GaussianChangeModel(0.0, 1.0, 0.5, 1.5)),
):
    print(f"=== {label} ===")
    i_f, i_g = kl_numbers(model)
    print(f"KL numbers: I_f = {i_f:.4f}, I_g = {i_g:.4f} nats")

    constants = estimate_constants(model, policy)
    route = "exact series" if constants.zeta.replications == 0 else "Monte Carlo"
    ladder = []
    for name in ("zeta", "varkappa", "beta0", "beta_inf"):
        est = getattr(constants, name)
        se = f" (se {est.std_error:.4f})" if est.std_error else ""
        ladder.append(f"{name} = {est.value:+.4f}{se}")
    print(f"ladder constants ({route}): " + ", ".join(ladder))
    print(f"path functionals (Monte Carlo): C0 = {constants.c0.value:.4f}, "
          f"Cinf = {constants.c_inf.value:.4f}")

    config = DetectorConfig(kind="cusum", model=model)
    h = 4.0
    spec = CalibrationSpec(gamma=math.exp(h), replications=8_000, seed=17)
    mc = estimate_arl(config, h, spec)
    approx = arl_approx("cusum", h, constants.i_f, constants.i_g, constants.zeta.value)
    print(f"\ncusum ARL at h = {h}: approx {approx:8.1f}   "
          f"monte carlo {mc.value:8.1f} (se {mc.std_error:.1f})")

    mc_delay = estimate_sadd(config, h, spec)
    approx_delay = delay_approx("cusum", h, constants)["sadd"]
    print(f"cusum worst-case delay:  approx {approx_delay:8.2f}   "
          f"monte carlo {mc_delay.value:8.2f} (se {mc_delay.std_error:.2f})")
    print()
