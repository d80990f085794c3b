"""Monte Carlo check that the mixing map is the right state of knowledge.

The simulator never uses the map.  For each of the nine Pauli-pair bases it
draws how many of the deliveries arrive intact (binomial, with probability s,
or 1/n for a uniform shipment permutation among n pairs), then the outcomes
of the intact pairs from the prepared pure state and those of the broken
pairs from its two marginals independently (multinomial).  Trials are
independent, so these counts have exactly the distribution of playing out
every delivery one by one, at a cost that does not depend on the number of
trials.  If the map is the correct description, observed frequencies must
match its predicted probabilities within binomial error in every cell.
"""

import numpy as np

from entmix import (
    DeliveryModel,
    PrepParams,
    concurrence_raw,
    concurrence_xstate,
    estimate_concurrence,
    simulate_pair_state,
)

TRIALS = 200_000

print(f"bernoulli delivery, s = 0.3, a = 0.1, {TRIALS} trials per setting:")
report = simulate_pair_state(DeliveryModel("bernoulli", s=0.3), a=0.1,
                             trials=TRIALS, seed=7)
print(f"  rng: {report.rng_algorithm}")
print(f"  worst cell deviation: {report.max_sigma:.2f} standard errors (gate: 4)")
print("  zz-basis observed vs predicted:")
zz = report.basis_settings.index("zz")
for label, f, p in zip(report.outcome_labels, report.freq[zz], report.pred[zz]):
    print(f"    {label}: {f:.5f} vs {p:.5f}")

print(f"\npermutation delivery among n = 4 customer pairs, a = 0.6:")
report4 = simulate_pair_state(DeliveryModel("permutation", n=4), a=0.6,
                              trials=TRIALS, seed=7)
print(f"  fixed-point probability 1/4 plays the role of s = {report4.effective_s}")
print(f"  worst cell deviation: {report4.max_sigma:.2f} standard errors")

est, se = estimate_concurrence(report4)
print("\nconcurrence reconstructed from the permutation-run frequencies:")
print(f"  estimate {est:+.4f} +/- {se:.4f}  (unclamped)")
print(f"  closed form (unclamped) {concurrence_raw(0.6, 0.25):+.4f}: "
      "significantly negative, so these deliveries are separable,")
print(f"  matching C = {concurrence_xstate(PrepParams(0.6, 0.25))} for this point.")

report_ent = simulate_pair_state(DeliveryModel("bernoulli", s=0.5), a=0.6,
                                 trials=TRIALS, seed=7)
est_e, se_e = estimate_concurrence(report_ent)
true_e = concurrence_xstate(PrepParams(0.6, 0.5))
print(f"\nsame reconstruction at an entangled point (a = 0.6, s = 0.5):")
print(f"  estimate {est_e:.4f} +/- {se_e:.4f}, closed form {true_e:.4f}, "
      f"deviation {abs(est_e - true_e) / se_e:.2f} standard errors")

r_again = simulate_pair_state(DeliveryModel("bernoulli", s=0.5), a=0.6,
                              trials=TRIALS, seed=7)
print(f"\nsame seed, same run: bit-identical = "
      f"{bool(np.array_equal(report_ent.freq, r_again.freq))}")
print("the CLI twin: `entmix simulate --model bernoulli --s 0.5 --a 0.6 "
      "--trials 200000 --seed 7 --self-test`")
