"""Validate the closed-form receiver statistics against Monte-Carlo sampling.

The difference-photocount mean and variance have closed forms from Gaussian
moment factorization.  This script draws standard normals in a fixed order
that is part of the seed contract: one row of 6 per sample at every idler
transmissivity, the 4 quadratures of the detected pair (the return and the
idler after its loss), then Re/Im of the receiver noise, one amplitude that
sums the optical and mechanical baths.  It pushes them through the real
receiver map and compares.  The sampler reads the rows in fixed-size blocks,
which give the same numbers as one unblocked draw.

Run:  python demos/receiver_oracle_check.py
"""

import mwqi

params = mwqi.nominal_params()
coop = mwqi.Cooperativities(5181.95, 668.43)
coef = mwqi.coefficients(coop)
baths = mwqi.bath_occupations(params)
source = mwqi.source_moments(coef, baths.n_w, baths.n_o, baths.n_b)
channel = mwqi.TargetChannelParams.from_temperature(0.07, 293.0, params.omega_w)
receiver = mwqi.ReceiverParams(coef)

stats = mwqi.receiver_statistics(source, channel, receiver, baths)
samples = 10 ** 6

print(f"{samples} samples per hypothesis\n")
# no target (h0) is the same channel at eta = 0
no_target = mwqi.TargetChannelParams(0.0, channel.n_b)
for hyp, ch, mu_cf, var_cf in (("h0", no_target, stats.mu0, stats.var0),
                               ("h1", channel, stats.mu1, stats.var1)):
    mc = mwqi.mc_receiver_statistics(source, ch, receiver, baths,
                                     samples=samples, seed=2718)
    print(f"hypothesis {hyp}:")
    print(f"  mean: closed form {mu_cf:+.5f}, sampled {mc.mu:+.5f} "
          f"(delta {abs(mc.mu - mu_cf) / mc.se_mu:.2f} standard errors)")
    print(f"  variance: closed form {var_cf:.3f}, sampled {mc.var:.3f} "
          f"(delta {abs(mc.var - var_cf) / mc.se_var:.2f} standard errors)")

print("\nthe sampled variance carries a -1/2 correction: phase-space sampling")
print("produces symmetric-ordered moments, the photocounter is normal ordered.")
