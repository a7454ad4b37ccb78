#!/usr/bin/env python3
"""Tour of the shipped voting rules on one small election.

Every rule maps an ordinal profile to a lottery over alternatives.  We
build a 5-agent, 4-alternative election by hand, run each rule, and
look at where the probability mass goes.
"""

import numpy as np

import distortion_lab as dl

# Five agents, four alternatives (0..3).  Alternative 1 is a broadly
# acceptable compromise: never first for most agents, never last.
profile = dl.Profile(
    m=4,
    rankings=(
        (0, 1, 2, 3),
        (0, 1, 3, 2),
        (2, 1, 0, 3),
        (3, 1, 2, 0),
        (1, 2, 3, 0),
    ),
)

print("profile: n =", profile.n, " m =", profile.m)
print("first-place counts:", dl.plurality_scores(profile).tolist())
print()

rules = {
    "plurality": dl.plurality,
    "copeland": dl.copeland,
    "plurality_veto": lambda p: dl.plurality_veto(p)[0],
    "pruned_plurality_veto(eps=1)": lambda p: dl.pruned_plurality_veto(p, eps=1.0),
    "random_dictatorship": dl.random_dictatorship,
    "harmonic": dl.harmonic_rule,
    "truncated_harmonic(eps=1)": lambda p: dl.truncated_harmonic(p, eps=1.0),
}

for name, rule in rules.items():
    lot = rule(profile)
    print(f"{name:30s} {np.round(lot.prob, 4)}")

print()

# The veto phase is worth watching in slow motion.  Agents are processed
# in ascending index order and each one decrements the score of their
# current least-favorite surviving alternative; the alternative whose
# score is decremented to zero *last* wins.
_, trace = dl.plurality_veto(profile)
print("veto replay, initial scores:", trace.initial_scores)
for agent, vetoed, score_after in trace.events:
    print(f"  agent {agent} vetoes {vetoed} -> score {score_after}")
print("winner:", trace.winner)
print()

# Truncated harmonic interpolates between a point mass on the veto
# winner (eps -> 0) and something harmonic-flavored (eps -> 6).
for eps in (0.5, 1.0, 3.0, 5.5):
    lot = dl.truncated_harmonic(profile, eps=eps)
    print(f"truncated_harmonic eps={eps:3}:", np.round(lot.prob, 4),
          " mass on winner:", round(float(lot.prob[trace.winner]), 4))
print()

# With partial ballots (each agent reports only a prefix) the prefix
# rules take over.  Keep the two favorites of each agent.
top2 = dl.truncate_profile(profile, 2)
print("top-2 ballots:", list(top2.prefixes))
print("top_t_det_rule:", np.round(dl.top_t_det_rule(top2).prob, 4))
lot = dl.top_t_truncated_harmonic(top2)
print("top_t_truncated_harmonic:", np.round(lot.prob, 4))

# Mixing trades the guarantees of two rules against each other.
mixed = dl.mix(dl.random_dictatorship(profile), dl.harmonic_rule(profile), beta=0.25)
print("mix(RD, harmonic, beta=0.25):", np.round(mixed.prob, 4))
