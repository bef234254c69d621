"""Acceptance suite: one test per exit criterion, with PASS lines.

The heavyweight end-to-end criteria (8 and 9) run the bundled
five-facility scenario through the CLI at desk scale (N=5 replications,
300 evaluations per strategy) and share their artifacts through
module-scoped fixtures.  Tolerances are pinned in-line.
"""

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from echelonopt.cli import main
from echelonopt.config import load_config
from echelonopt.engine import sim_network
from echelonopt.harness import derive_strategy_seed, run_strategy
from echelonopt.model import (
    SOURCE,
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
)
from echelonopt.objective import aggregate_outcomes, evaluate
from echelonopt.optim import (
    Budget,
    CubicRbfSurrogate,
    GaussianProcess,
    SearchSpace,
    minimize,
)
from echelonopt.sampling import generate_synthetic_history

PRESET = (Path(__file__).resolve().parent.parent / "configs"
          / "five_facility.json")


def report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE PASS [{criterion}]" + (f" {detail}" if detail else ""))


# --------------------------------------------------------------------------
# criterion 1: engine vs independent brute force, exact integer equality
# --------------------------------------------------------------------------

def test_criterion_1_engine_oracle_equivalence():
    # imported here: test_engine imports this module at its top
    from test_engine import brute_force_single_facility

    net = NetworkSpec([FacilitySpec("store", SOURCE, 2, 0.95, True)])
    pol = PolicyVector({"store": 50}, {"store": 100})
    hist = HistoryDataset(demand={"store": [10]}, lead_delta={"store": [0]})
    cfg = ScenarioConfig(horizon=360, replications=1, base_seed=1,
                         demand_choice=DemandChoice.LOST_SALES)
    start = time.perf_counter()
    out = sim_network(net, pol, hist, cfg, 1)
    elapsed = time.perf_counter() - start
    expected_a, expected_beta = brute_force_single_facility(360, 2, 50, 100, 10)
    assert out.avg_on_hand["store"] == expected_a
    assert out.beta["store"] == expected_beta
    assert elapsed < 1.0
    report("1 engine-oracle", f"A={out.avg_on_hand['store']} "
           f"beta={out.beta['store']} in {elapsed * 1e3:.0f} ms")


# --------------------------------------------------------------------------
# criterion 2: beta formulas, exact
# --------------------------------------------------------------------------

def test_criterion_2_beta_formulas():
    # One facility that never gets replenished inside the horizon:
    # O0 = 45, demand 10/day, H = 10.
    net = NetworkSpec([FacilitySpec("store", SOURCE, 1000, 0.95, True)])
    pol = PolicyVector({"store": 0}, {"store": 50})
    hist = HistoryDataset(demand={"store": [10]}, lead_delta={"store": [0]})

    cfg = ScenarioConfig(horizon=10, replications=1, base_seed=1,
                         demand_choice=DemandChoice.LOST_SALES)
    lost = sim_network(net, pol, hist, cfg, 1)
    assert lost.total_demand["store"] == 100
    assert lost.total_shipped["store"] == 45
    assert lost.beta["store"] == 45 / 100  # beta = P / M, exact

    cfg = ScenarioConfig(horizon=10, replications=1, base_seed=1,
                         demand_choice=DemandChoice.BACKORDER)
    back = sim_network(net, pol, hist, cfg, 1)
    # late sales: day 5 misses 5, days 6..10 miss 10 each
    assert back.total_demand["store"] == 100
    assert back.total_late["store"] == 55
    assert back.beta["store"] == 1 - 55 / 100  # beta = 1 - T / M, exact
    report("2 beta-formulas", "P/M = 0.45, 1 - T/M = 0.45")


# --------------------------------------------------------------------------
# criterion 3: objective formula to 1e-9 relative
# --------------------------------------------------------------------------

def _outcome(avg_on_hand, beta):
    zeros = {fid: 0 for fid in avg_on_hand}
    from echelonopt.engine import SimulationOutcome
    return SimulationOutcome(avg_on_hand=avg_on_hand, beta=beta,
                             total_demand=zeros, total_shipped=zeros,
                             total_late=zeros, final_backorders=zeros,
                             final_on_hand=zeros)


def test_criterion_3_objective_formula():
    policy = PolicyVector({"a": 0}, {"a": 1})
    # rho = 1e6, A = 100, beta 0.90 vs target 0.95 -> Z = 50,100
    rep = aggregate_outcomes([_outcome({"a": 100.0}, {"a": 0.90})],
                             {"a": 0.95}, 1e6, policy)
    assert rep.z == pytest.approx(50_100.0, rel=1e-9)
    # two facilities, no violation -> Z = 150
    rep = aggregate_outcomes(
        [_outcome({"a": 100.0, "b": 50.0}, {"a": 0.99, "b": 1.0})],
        {"a": 0.95, "b": 0.95}, 1e6,
        PolicyVector({"a": 0, "b": 0}, {"a": 1, "b": 1}))
    assert rep.z == pytest.approx(150.0, rel=1e-9)
    # replication averaging: (120 + 80) / 2, one 0.01 dip in rep 1 only
    rep = aggregate_outcomes(
        [_outcome({"a": 120.0}, {"a": 0.94}),
         _outcome({"a": 80.0}, {"a": 0.96})],
        {"a": 0.95}, 1e6, policy)
    assert rep.z == pytest.approx(100.0 + 1e6 * 0.005, rel=1e-9)
    report("3 objective-formula", "Z = AA/N + rho*Abeta/N to 1e-9 rel")


# --------------------------------------------------------------------------
# criterion 4: determinism / common random numbers
# --------------------------------------------------------------------------

def test_criterion_4_crn_determinism():
    net = NetworkSpec([
        FacilitySpec("hub", SOURCE, 2, 0.0, False),
        FacilitySpec("store", "hub", 1, 0.9, True),
    ])
    pol = PolicyVector({"hub": 100, "store": 40}, {"hub": 300, "store": 120})
    hist = HistoryDataset(demand={"store": [4, 9, 17, 30]},
                          lead_delta={"hub": [0, 1, 2], "store": [0, 1]})
    cfg = ScenarioConfig(horizon=200, replications=4, base_seed=11)
    a = evaluate(pol, net, hist, cfg)
    b = evaluate(pol, net, hist, cfg)
    assert a.z - b.z == 0.0
    assert a.mean_beta == b.mean_beta
    other = ScenarioConfig(horizon=200, replications=4, base_seed=12)
    c = evaluate(pol, net, hist, other)
    assert c.z != a.z
    report("4 determinism", "identical seeds diff 0; new seed diverges")


# --------------------------------------------------------------------------
# criterion 5: FIFO / no-partial-shipment / customer-priority fuzz
# --------------------------------------------------------------------------

def _random_scenario(rng):
    n = int(rng.integers(1, 7))
    facilities = []
    for i in range(n):
        upstream = SOURCE if i == 0 else \
            (SOURCE if rng.random() < 0.2
             else facilities[int(rng.integers(0, i))].id)
        serves = bool(rng.random() < 0.7) or i == n - 1
        facilities.append(FacilitySpec(
            id=f"f{i}", upstream=upstream,
            base_lead_time=int(rng.integers(0, 5)),
            target_beta=float(rng.uniform(0.5, 1.0)) if serves else 0.0,
            serves_customers=serves))
    net = NetworkSpec(facilities)
    rop = {f.id: int(rng.integers(0, 60)) for f in facilities}
    base = {f.id: rop[f.id] + int(rng.integers(0, 80)) for f in facilities}
    pol = PolicyVector(rop, base)
    hist = HistoryDataset(
        demand={f.id: rng.integers(0, 30, size=int(rng.integers(1, 8)))
                for f in facilities if f.serves_customers},
        lead_delta={f.id: rng.integers(0, 4, size=int(rng.integers(1, 5)))
                    for f in facilities})
    cfg = ScenarioConfig(
        horizon=40, replications=1,
        demand_choice=(DemandChoice.BACKORDER if rng.random() < 0.5
                       else DemandChoice.LOST_SALES),
        initial_inventory_fraction=float(rng.uniform(0.0, 1.0)),
        base_seed=int(rng.integers(0, 2**31)))
    return net, pol, hist, cfg


def _check_invariants(net, pol, cfg, out):
    enqueued = defaultdict(list)   # fulfiller -> order ids in enqueue order
    shipped = defaultdict(list)    # fulfiller -> order ids in ship order
    order_qty = {}
    order_upstream = {}
    ship_count = defaultdict(int)
    reserved_partial = defaultdict(int)
    delivered = defaultdict(int)
    first_serve = {}
    first_fulfill = {}

    for seq, day, fid, kind, data in out.events:
        if kind == "order":
            oid = data["order_id"]
            order_qty[oid] = data["quantity"]
            order_upstream[oid] = data["upstream"]
            enqueued[data["upstream"]].append(oid)
        elif kind == "ship":
            oid = data["order_id"]
            shipped[fid].append(oid)
            ship_count[oid] += 1
            assert data["quantity"] == order_qty[oid], "partial shipment"
            first_fulfill.setdefault((day, fid), seq)
        elif kind == "reserve":
            reserved_partial[data["order_id"]] += data["quantity"]
            first_fulfill.setdefault((day, fid), seq)
        elif kind == "arrive":
            oid = data["order_id"]
            assert data["quantity"] == order_qty[oid], "partial delivery"
            delivered[fid] += data["quantity"]
        elif kind == "serve":
            first_serve.setdefault((day, fid), seq)

    # FIFO with head-of-line blocking: ships are a prefix of enqueues
    for fulfiller, ship_ids in shipped.items():
        assert ship_ids == enqueued[fulfiller][:len(ship_ids)], "FIFO broken"
    for oid, count in ship_count.items():
        assert count == 1

    # customer service precedes fulfillment on every (day, facility)
    for key, fseq in first_fulfill.items():
        if key in first_serve:
            assert first_serve[key] < fseq, "customer priority broken"

    # flow conservation and beta bounds per facility
    shipped_ids = {oid for ids in shipped.values() for oid in ids}
    removed = defaultdict(int)
    for fulfiller, ids in shipped.items():
        for oid in ids:
            removed[fulfiller] += order_qty[oid]
    for oid, qty in reserved_partial.items():
        if oid not in shipped_ids:
            removed[order_upstream[oid]] += qty
    for f in net.ids:
        initial = round(cfg.initial_inventory_fraction * pol.base_stock[f])
        assert (initial + delivered[f]
                == out.final_on_hand[f] + out.total_shipped[f] + removed[f]), \
            "flow conservation broken"
        assert 0.0 <= out.beta[f] <= 1.0
        assert out.total_late[f] <= out.total_demand[f]
        assert out.total_shipped[f] <= out.total_demand[f] \
            or f not in net.customer_ids


def test_criterion_5_invariant_fuzz():
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    for _ in range(1000):
        net, pol, hist, cfg = _random_scenario(rng)
        out = sim_network(net, pol, hist, cfg, replication_index=1,
                          record_events=True)
        _check_invariants(net, pol, cfg, out)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("5 invariant-fuzz", f"1000 networks, 0 violations, "
           f"{elapsed:.1f} s")


# --------------------------------------------------------------------------
# criterion 6: optimizer sanity on the separable quadratic
# --------------------------------------------------------------------------

def test_criterion_6_optimizer_sanity():
    def quadratic(x):
        return float(np.sum((x - 3.0) ** 2))

    space = SearchSpace(np.zeros(4), np.full(4, 10.0))
    runs = {
        "nelder-mead": minimize(
            quadratic, space, Budget(max_evaluations=300),
            strategy="nelder-mead", cycles=6, iterations_per_cycle=50,
            seed=7),
        # kappa is an input; a small value suits a deterministic smooth
        # objective (the inventory default of 50 is exploration-heavy)
        "gp": minimize(
            quadratic, space, Budget(max_evaluations=300),
            strategy="gp", cycles=4, iterations_per_cycle=70, kappa=2.0,
            n_random_starts=8, seed=7),
        "rbf": minimize(quadratic, space, Budget(max_evaluations=300),
                        strategy="rbf", seed=7),
    }
    for name, run in runs.items():
        assert run.evaluations_used <= 300
        assert run.best_value <= 1e-2, f"{name} best {run.best_value}"
        assert np.all(np.diff(run.best_so_far_trace) <= 0)
    report("6 optimizer-sanity",
           ", ".join(f"{n}={r.best_value:.1e}" for n, r in runs.items()))


# --------------------------------------------------------------------------
# criterion 7: surrogate correctness on 50 random designs
# --------------------------------------------------------------------------

def test_criterion_7_surrogate_correctness():
    rng = np.random.default_rng(77)
    for trial in range(50):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(dim + 2, 26))
        lo = rng.uniform(-5, 0, dim)
        hi = lo + rng.uniform(1, 10, dim)
        space = SearchSpace(lo, hi)
        x = space.latin_hypercube(rng, n)
        y = (np.sin(x).sum(axis=1) * rng.uniform(0.5, 20)
             + rng.uniform(-5, 5))

        surrogate = CubicRbfSurrogate(space).fit(x, y)
        rbf_residual = np.abs(surrogate.predict(x) - y).max()
        assert rbf_residual <= 1e-8 * max(1.0, np.abs(y).max())

        gp = GaussianProcess(space).fit(x, y)
        mu, sigma = gp.predict(x)
        scale = max(1.0, float(np.abs(y).max()))
        assert np.abs(mu - y).max() <= 1e-5 * scale
        assert np.all(sigma ** 2 <= gp.jitter_ * gp._y_scale ** 2 + 1e-9)
    report("7 surrogate-correctness",
           "50 designs: RBF residual <= 1e-8 rel, GP interpolates")


# --------------------------------------------------------------------------
# criteria 8 and 9: end-to-end trend reproduction on the bundled scenario
# --------------------------------------------------------------------------

DESK_SEEDS = (20240707, 20240708, 20240709)  # base_seed, +1, +2
DESK_EVALS = 300
DESK_REPLICATIONS = 5


@pytest.fixture(scope="module")
def desk_compare(tmp_path_factory):
    """Criterion-8 workload: CLI compare on the bundled scenario."""
    root = tmp_path_factory.mktemp("desk")
    config_path = PRESET
    history_dir = root / "history"
    assert main(["generate-data", "--config", str(config_path),
                 "--out", str(history_dir),
                 "--seed", str(DESK_SEEDS[0])]) == 0
    out_dir = root / "compare"
    start = time.perf_counter()
    code = main(["compare", "--config", str(config_path),
                 "--history-dir", str(history_dir), "--out", str(out_dir),
                 "--choice", "backorder",
                 "--replications", str(DESK_REPLICATIONS),
                 "--max-evals", str(DESK_EVALS),
                 "--seed", str(DESK_SEEDS[0])]) == 0
    elapsed = time.perf_counter() - start
    assert code
    summaries = {
        s: json.loads((out_dir / f"summary_{s}_backorder.json").read_text())
        for s in ("nelder-mead", "gp", "rbf")
    }
    rbf_policy = json.loads(
        (out_dir / "best_policy_rbf_backorder.json").read_text())
    return {"config_path": config_path, "out_dir": out_dir,
            "summaries": summaries, "rbf_policy": rbf_policy,
            "elapsed": elapsed}


def test_criterion_8_end_to_end_trends(desk_compare):
    summaries = desk_compare["summaries"]
    # (a) every strategy feasible and strictly below the initial guess
    for name, s in summaries.items():
        assert s["feasible"], f"{name} final policy infeasible"
        assert s["best_z"] < s["initial_z"], f"{name} did not improve"
    # (b) RBF % reduction >= restarted Nelder-Mead's
    assert (summaries["rbf"]["reduction_pct"]
            >= summaries["nelder-mead"]["reduction_pct"])
    # (c) comparison table emitted in the solver-comparison layout
    import csv as _csv
    with open(desk_compare["out_dir"] / "comparison_backorder.csv") as fh:
        rows = list(_csv.reader(fh))
    labels = [r[0] for r in rows]
    assert rows[0] == ["", "nelder-mead", "gp", "rbf"]
    assert "Optimal objective" in labels
    assert "% reduction from the initial guess" in labels
    assert sum(lbl.startswith("Optimal base stock") for lbl in labels) == 5
    assert sum(lbl.startswith("Optimal ROP") for lbl in labels) == 5
    assert "Total iterations" in labels
    assert "CPU time (minutes)" in labels
    # desk-scale runtime sanity (criterion target: < 30 minutes)
    assert desk_compare["elapsed"] < 1800
    report("8 end-to-end-trends",
           f"reductions: nm={summaries['nelder-mead']['reduction_pct']:.0f}% "
           f"gp={summaries['gp']['reduction_pct']:.0f}% "
           f"rbf={summaries['rbf']['reduction_pct']:.0f}% "
           f"in {desk_compare['elapsed'] / 60:.1f} min")


def test_criterion_9_risk_pooling_trend(desk_compare):
    cfg = load_config(desk_compare["config_path"])
    initial_rop = {fid: cfg.initial_policy.reorder_point[fid]
                   for fid in cfg.network.ids}

    def pooling(policy_rop):
        return (policy_rop["3"] > 0
                and policy_rop["4"] < initial_rop["4"]
                and policy_rop["5"] < initial_rop["5"])

    hits, details = 0, []
    for i, shared in enumerate(DESK_SEEDS):
        if i == 0:
            rop = {fid: desk_compare["rbf_policy"][fid]["reorder_point"]
                   for fid in cfg.network.ids}
        else:
            hist = generate_synthetic_history(cfg.network, cfg.generator,
                                              shared)
            sc = ScenarioConfig(
                horizon=360, replications=DESK_REPLICATIONS,
                penalty_rho=cfg.scenario.penalty_rho,
                demand_choice=DemandChoice.BACKORDER, base_seed=shared)
            result = run_strategy(
                "rbf", cfg.network, hist, sc, cfg.space, cfg.initial_policy,
                settings={"max_evaluations": DESK_EVALS,
                          "seed": derive_strategy_seed(shared, "rbf")})
            rop = result.report.policy.reorder_point
        hit = pooling(rop)
        hits += hit
        details.append(f"seed {shared}: R3={rop['3']} R4={rop['4']} "
                       f"R5={rop['5']} -> {'yes' if hit else 'no'}")
    assert hits >= 2, "risk-pooling trend failed the majority check:\n" \
        + "\n".join(details)
    report("9 risk-pooling", f"{hits}/3 seeds centralized; "
           + "; ".join(details))
