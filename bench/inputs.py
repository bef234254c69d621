"""Seeded inputs of the benchmark workloads.

* ``policy_round``: the evaluate-five-facility policy set, made round by
  round from the workload seed.  Each round mixes box-wide Latin-hypercube
  points (mostly infeasible, short or long order queues) with points
  scattered around the preset's initial policy (mostly feasible); round 0
  starts with the initial policy itself.
* ``wide_config``: the surrogate-wide-lost-sales scenario, a seeded
  three-level tree (1 hub -> 3 regional -> 12 stores, 32 decision
  variables) written as an echelonopt JSON config.

Regenerate every input into a directory with

    python3 bench/inputs.py --seed 1 --rounds 4 --out bench_inputs/
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ROUND_SIZE = 16
WIDE_SEED = 16  # fixed: best_z on this network must repeat across runs
REGIONS = 3
STORES_PER_REGION = 4


def repaired(raw, lower, upper):
    """Clamp, round and lift B to R, as the program's repair documents."""
    x = np.rint(np.clip(raw, lower, upper))
    n = len(x) // 2
    x[n:] = np.maximum(x[n:], x[:n])
    return x


def policy_round(x0, lower, upper, seed, index):
    """The ROUND_SIZE repaired points of round ``index`` (1-D arrays)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed,
                                                       spawn_key=(index,)))
    half = ROUND_SIZE // 2
    dim = len(x0)
    strata = rng.permuted(np.tile(np.arange(half), (dim, 1)), axis=1).T
    box = lower + (strata + rng.uniform(size=(half, dim))) / half \
        * (upper - lower)
    near = x0 * np.exp(rng.normal(0.0, 0.15, size=(half, dim)))
    points = [repaired(p, lower, upper) for p in np.vstack([box, near])]
    order = rng.permutation(ROUND_SIZE)
    points = [points[i] for i in order]
    if index == 0:
        points[0] = np.asarray(x0, dtype=float)
    return points


def wide_config(seed=WIDE_SEED):
    """Config dict for the seeded 16-facility lost-sales tree.

    Store demand means are drawn from 8..30 units/day.  Each facility's
    initial reorder point covers its mean demand over lead time plus
    three days with a 3-sigma margin, and its base stock adds ten days of
    demand, which keeps every store above its 0.95 fill-rate target.
    """
    rng = np.random.default_rng(seed)
    facilities, demand_gen, lead_gen = [], {}, {}
    policy, bounds = {}, {}

    def add(fid, upstream, lead, mean, sd, serves):
        delta_mean = float(rng.uniform(0.3, 1.5))
        lead_gen[fid] = {"mean": round(delta_mean, 3),
                         "spread": round(float(rng.uniform(0.3, 1.0)), 3)}
        cover = lead + delta_mean + 3.0
        rop = math.ceil(mean * cover + 3.0 * sd * math.sqrt(cover))
        base = rop + math.ceil(10.0 * mean)
        facilities.append({"id": fid, "upstream": upstream,
                           "base_lead_time": lead,
                           "target_beta": 0.95 if serves else 0.0,
                           "serves_customers": serves})
        policy[fid] = {"reorder_point": rop, "base_stock": base}
        bounds[fid] = {"reorder_point": [0, 2 * rop],
                       "base_stock": [0, 2 * base]}

    stores = {}
    for r in range(REGIONS):
        for k in range(STORES_PER_REGION):
            mean = float(rng.uniform(8.0, 30.0))
            stores[f"S{r + 1}{k + 1}"] = (
                r, mean, mean * float(rng.uniform(0.15, 0.35)))
    hub_mean = sum(m for _, m, _ in stores.values())
    hub_sd = math.sqrt(sum(s * s for _, _, s in stores.values()))
    add("H", "SOURCE", 5, hub_mean, hub_sd, False)
    for r in range(REGIONS):
        members = [v for v in stores.values() if v[0] == r]
        add(f"G{r + 1}", "H", 3, sum(m for _, m, _ in members),
            math.sqrt(sum(s * s for _, _, s in members)), False)
    for fid, (r, mean, sd) in stores.items():
        add(fid, f"G{r + 1}", int(rng.integers(1, 3)), mean, sd, True)
        demand_gen[fid] = {"mean": round(mean, 3), "spread": round(sd, 3)}

    return {
        "network": {"facilities": facilities},
        "scenario": {"horizon": 30, "replications": 2, "penalty_rho": 1.0e6,
                     "demand_choice": "lost-sales",
                     "initial_inventory_fraction": 0.9,
                     "base_seed": seed},
        "initial_policy": policy,
        "bounds": bounds,
        "generator": {"length": 360, "demand": demand_gen,
                      "lead_delta": lead_gen},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed of evaluate-five-facility")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from echelonopt.config import load_config

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "wide_config.json").write_text(
        json.dumps(wide_config(), indent=2) + "\n")
    cfg = load_config(ROOT / "configs" / "five_facility.json")
    x0 = cfg.initial_policy.to_array(cfg.network)
    rounds = [[[int(v) for v in p]
               for p in policy_round(x0, cfg.space.lower, cfg.space.upper,
                                     args.seed, i)]
              for i in range(args.rounds)]
    (out / "evaluate_policies.json").write_text(json.dumps(
        {"layout": "[R_1..R_F, B_1..B_F] in network order",
         "facilities": list(cfg.network.ids), "rounds": rounds},
        indent=1) + "\n")
    print(f"wrote {out}/wide_config.json and {out}/evaluate_policies.json")


if __name__ == "__main__":
    main()
