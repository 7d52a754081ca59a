"""Seeded config generators for the four benchmark workloads.

A run seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``),
so every seed the benchmark can be given has CSV digests recorded in
``digests.json``.  Each workload is a list of ``Case`` objects: one CLI
subcommand on one generated JSON config.  The program under test only ever
sees the generated JSON files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

VARIANTS = 32

# Config paths as the CLI sees them: "full" is FullState, "scalar" is
# NoisyState with V_wv = 0 and "coupled" is NoisyState with V_wv != 0.
FULL, SCALAR, COUPLED = "full", "scalar", "coupled"

WORKLOADS = ("analytic-long", "sweep-small", "monte-carlo", "certify")

# Certify's inputs do not depend on the run seed.  The time of an optimizer
# call depends on its random starts (one T=50 restart takes 0.28 to 0.93 s
# depending on the seed), so a seeded optimizer would measure the seed, not
# the code.  Plants and optimizer seed are fixed instead.
CERTIFY_SEED = 0
CERTIFY_CASES = (
    # label, scheme path, horizon, restarts
    ("T5", FULL, 5, 20),
    ("T20", FULL, 20, 20),
    ("T50", FULL, 50, 2),
    ("noisy_T8", SCALAR, 8, 20),
)


@dataclass(frozen=True)
class Case:
    label: str
    command: str     # CLI subcommand
    path: str        # FULL, SCALAR or COUPLED
    config: dict     # the JSON object handed to the CLI

    @property
    def horizon(self):
        return self.config["horizon"]

    def json_bytes(self):
        return json.dumps(self.config, sort_keys=True).encode("ascii")

    def work(self):
        """Units of work of one call, in the workload's throughput unit."""
        if self.command == "analytic":
            return self.horizon                              # horizon steps
        if self.command == "sweep":
            return len(self.config["sweep"]["values"])       # sweep points
        if self.command == "simulate":
            return self.config["samples"] * self.horizon     # sample-steps
        return self.config["baseline"]["restarts"]           # restarts


def _rng(workload, variant):
    return np.random.default_rng(np.random.SeedSequence([WORKLOADS.index(workload), variant]))


def _noisy_system(rng, path, **extra):
    system = {"c": 1.0, "d": round(float(rng.uniform(0.4, 0.6)), 6),
              "V_vv": 1.0, **extra}
    if path == COUPLED:
        system["V_wv"] = round(float(rng.uniform(0.2, 0.4)), 6)
    return system


def _scheme(path):
    return "FullState" if path == FULL else "NoisyState"


def _channel(rng):
    return {"P": round(float(rng.uniform(0.8, 1.2)), 6),
            "N": round(float(rng.uniform(0.4, 0.6)), 6)}


def _time_varying_a(rng, T):
    # slow drift plus jitter, kept inside (0.8, 0.99) so the state variance
    # stays bounded at any horizon
    t = np.arange(T)
    a = (rng.uniform(0.86, 0.92)
         + 0.04 * np.sin(2 * np.pi * t / rng.uniform(500, 2000) + rng.uniform(0, 6.3))
         + 0.01 * rng.standard_normal(T))
    return [round(float(v), 6) for v in np.clip(a, 0.8, 0.99)]


def _analytic_long(variant):
    rng = _rng("analytic-long", variant)
    cases = []
    for path, T in ((FULL, 100_000), (SCALAR, 100_000), (COUPLED, 20_000)):
        system = {"a": _time_varying_a(rng, T)}
        if path != FULL:
            system = _noisy_system(rng, path, **system)
        cases.append(Case(f"{path}_T{T}", "analytic", path,
                          {"horizon": T, "system": system, "channel": _channel(rng),
                           "scheme": _scheme(path)}))
    return cases


def _sweep_small(variant):
    rng = _rng("sweep-small", variant)
    cases = []
    for path in (SCALAR, COUPLED):
        lo = rng.uniform(0.08, 0.12)
        values = [round(float(v), 6) for v in np.geomspace(lo, 100 * lo, 1000)]
        system = _noisy_system(rng, path, a=round(float(rng.uniform(0.85, 0.95)), 6))
        cases.append(Case(f"{path}_sweepP", "sweep", path,
                          {"horizon": 50, "system": system, "channel": _channel(rng),
                           "scheme": "NoisyState",
                           "sweep": {"field": "P", "values": values}}))
    return cases


def _monte_carlo(variant):
    rng = _rng("monte-carlo", variant)
    cases = []
    for path in (FULL, COUPLED):
        system = {"a": round(float(rng.uniform(0.85, 0.95)), 6)}
        if path != FULL:
            system = _noisy_system(rng, path, **system)
        cases.append(Case(f"{path}_mc", "simulate", path,
                          {"horizon": 100, "system": system, "channel": _channel(rng),
                           "scheme": _scheme(path), "samples": 100_000,
                           "seed": int(rng.integers(2**31))}))
    return cases


def _certify():
    cases = []
    for label, path, T, restarts in CERTIFY_CASES:
        system = {"a": 0.9}
        if path != FULL:
            system.update(c=1.0, d=0.5, V_vv=1.0)
        cases.append(Case(label, "baseline", path,
                          {"horizon": T, "system": system,
                           "channel": {"P": 1.0, "N": 0.5},
                           "scheme": _scheme(path), "seed": CERTIFY_SEED,
                           "baseline": {"restarts": restarts, "max_iters": 4000,
                                        "tol": 1e-11}}))
    return cases


def generate(workload, seed):
    """The cases of ``workload`` for run seed ``seed``; every pass repeats them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    variant = seed % VARIANTS
    if workload == "analytic-long":
        return _analytic_long(variant)
    if workload == "sweep-small":
        return _sweep_small(variant)
    if workload == "monte-carlo":
        return _monte_carlo(variant)
    return _certify()
