#!/usr/bin/env python3
"""What the worst-case oracles do, on instances small enough to eyeball.

A lottery's distortion is a supremum over every cardinal instance that
could have produced the observed ballots.  The oracles solve that
supremum exactly (LPs for metrics, a per-agent choice of vertices for
utilities) and return a *witness* instance achieving it,
so you never have to trust the optimizer: re-evaluate the witness and
the number comes back.
"""

import numpy as np

import distortion_lab as dl

profile = dl.Profile(
    m=3,
    rankings=(
        (0, 1, 2),
        (1, 0, 2),
        (2, 1, 0),
    ),
)
lot = dl.plurality(profile)
print("ballots:", list(profile.rankings))
print("plurality lottery:", lot.prob.tolist())
print()

# ---- metric world: adversary picks distances consistent with ballots ----
rep = dl.metric_distortion(lot, profile)
print("metric distortion:", rep.value)
print("optimal alternative in the witness:", rep.arg_optimum)

# The witness is a real pseudometric on n + m points. Check it by hand:
w = rep.witness
costs = [dl.social_cost(w, x) for x in range(profile.m)]
print("witness social costs per alternative:", np.round(costs, 6).tolist())
expected = float(np.dot(lot.prob, costs)) / min(costs)
print("recomputed ratio:", round(expected, 6), " (matches the oracle)")
print()

# ---- utilitarian world: adversary picks unit-sum utilities ----
rep_u = dl.utilitarian_distortion(lot, profile)
bf = dl.utilitarian_distortion_bruteforce(lot, profile)
print("utilitarian distortion, vertex-choice route:", rep_u.value)
print("utilitarian distortion, enumeration route:  ", bf.value)
print("witness utilities:\n", rep_u.witness.util)
print()

# ---- unbounded cases are a real outcome, not an error ----
# Give all the probability to an alternative nobody ranks first and the
# metric adversary can park the winner arbitrarily far away... unless
# ballots pin it down. Ranked-last-by-everyone is the clean case:
unlucky = dl.Lottery(np.array([0.0, 0.0, 1.0]))
tail_profile = dl.Profile(
    m=3, rankings=((0, 1, 2), (1, 0, 2))
)
rep_bad = dl.metric_distortion(unlucky, tail_profile)
print("point mass on the universally-last alternative:", rep_bad.value)
# Unbounded answers carry a witness too: the optimum costs nothing there
# while the lottery still pays.
print("witness social costs per alternative:",
      rep_bad.witness.agent_alt.sum(axis=0).tolist())
print()

# ---- tiny exhaustive sweep: the worst profile for plurality at n=m=2 ----
value, worst = dl.exhaustive_worst_case(dl.plurality, 2, 2, "metric")
print("worst metric distortion of plurality over all 2-agent, "
      "2-alternative profiles:", value)
print("achieved on ballots:", list(worst.rankings))
