#!/usr/bin/env python3
"""Run the shipped sweep config and read the tradeoff out of the CSV.

No rule wins both worlds: rules with strong metric guarantees leak
utilitarian welfare and vice versa.  The sweep makes that visible on a
grid of random instances, and the mixing rule lets you buy a point on
the tradeoff curve between any two rules.
"""

import collections
import csv
import pathlib
import tempfile

import numpy as np

import distortion_lab as dl
from distortion_lab import cli

config = pathlib.Path(__file__).with_name("sweep_config.json")
out = pathlib.Path(tempfile.mkdtemp()) / "sweep.csv"

code = cli.main(["sweep", "--config", str(config), "--output", str(out)])
assert code == 0, f"sweep failed with exit code {code}"

rows = list(csv.DictReader(out.open()))
print(f"{len(rows)} rows from {config.name}")
print()

# Empirical per-rule maxima, split by world. "inf" rows are instances
# where the adversary is unconstrained (e.g. harmonic mass on an
# alternative everyone ranks last).
maxima: dict[tuple[str, str], float] = collections.defaultdict(float)
for r in rows:
    maxima[(r["rule"], r["world"])] = max(
        maxima[(r["rule"], r["world"])], float(r["distortion"])
    )

print(f"{'rule':24s} {'max metric':>12s} {'max utilitarian':>16s}")
for rule in sorted({r["rule"] for r in rows}):
    met = maxima[(rule, "metric")]
    utl = maxima[(rule, "utilitarian")]
    print(f"{rule:24s} {met:12.3f} {utl:16.3f}")
print()

# The prefix-ballot rows are the interesting ones: top_t_th keeps a
# bounded metric ratio even though agents only reported 2 of 4 choices.
topt = [r for r in rows if r["t"] == "2" and r["world"] == "metric"]
print("prefix-ballot metric rows:")
for r in topt:
    print(f"  {r['rule']:24s} seed={r['seed']} distortion={float(r['distortion']):.3f}")
print()

# ---- mixing: one knob interpolates between two rules' guarantees ----
p = dl.random_profile(5, 4, seed=11)
rd, har = dl.random_dictatorship(p), dl.harmonic_rule(p)
print("beta   metric   utilitarian   (mix of random_dictatorship / harmonic)")
for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
    lot = dl.mix(rd, har, beta)
    met = dl.metric_distortion(lot, p).value
    utl = dl.utilitarian_distortion(lot, p).value
    print(f"{beta:4.2f} {float(met.value):8.3f} {float(utl.value):13.3f}")
