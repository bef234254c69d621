from dataclasses import replace

import numpy as np
import pytest

from echelonopt import objective
from echelonopt.config import load_config
from echelonopt.engine import SimulationOutcome
from echelonopt.model import (
    SOURCE,
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
)
from echelonopt.objective import (
    ObjectiveReport,
    aggregate_outcomes,
    evaluate,
)
from echelonopt.sampling import generate_synthetic_history
from test_acceptance import PRESET


def outcome(avg_on_hand, beta):
    fids = list(avg_on_hand)
    zeros = {fid: 0 for fid in fids}
    return SimulationOutcome(
        avg_on_hand=avg_on_hand, beta=beta, total_demand=zeros,
        total_shipped=zeros, total_late=zeros, final_backorders=zeros,
        final_on_hand=zeros)


DUMMY_POLICY = PolicyVector({"a": 0, "b": 0}, {"a": 1, "b": 1})


class TestAggregation:
    def test_no_outcomes_rejected(self):
        with pytest.raises(ValueError, match="at least one replication"):
            aggregate_outcomes([], targets={}, rho=1e6, policy=DUMMY_POLICY)

    def test_zero_violation_sums_on_hand(self):
        report = aggregate_outcomes(
            [outcome({"a": 100.0, "b": 50.0}, {"a": 0.99, "b": 0.97})],
            targets={"a": 0.95, "b": 0.95}, rho=1e6, policy=DUMMY_POLICY)
        assert report.z == pytest.approx(150.0, rel=1e-12)
        assert report.mean_violation == 0.0

    def test_penalty_case_from_formula(self):
        # A=100, beta=0.90 vs target 0.95, rho=1e6: Z = 100 + 1e6*0.05.
        report = aggregate_outcomes(
            [outcome({"a": 100.0}, {"a": 0.90})],
            targets={"a": 0.95}, rho=1e6,
            policy=PolicyVector({"a": 0}, {"a": 1}))
        assert report.z == pytest.approx(50_100.0, rel=1e-9)

    def test_average_across_replications(self):
        report = aggregate_outcomes(
            [outcome({"a": 120.0}, {"a": 1.0}),
             outcome({"a": 80.0}, {"a": 1.0})],
            targets={"a": 0.95}, rho=1e6,
            policy=PolicyVector({"a": 0}, {"a": 1}))
        assert report.z == pytest.approx(100.0, rel=1e-12)
        assert report.replications == 2

    def test_violations_summed_per_replication_then_averaged(self):
        # max(0, .) applies replication by replication: one bad and one
        # good replication penalize half the shortfall, even though the
        # mean beta equals the target.
        report = aggregate_outcomes(
            [outcome({"a": 0.0}, {"a": 0.90}),
             outcome({"a": 0.0}, {"a": 1.00})],
            targets={"a": 0.95}, rho=1e6,
            policy=PolicyVector({"a": 0}, {"a": 1}))
        assert report.mean_violation == pytest.approx(0.025, rel=1e-12)
        assert report.z == pytest.approx(25_000.0, rel=1e-9)

    def test_monotone_penalty(self):
        # Lowering any beta below target (A fixed) never lowers Z.
        betas = np.linspace(1.0, 0.0, 21)
        zs = [aggregate_outcomes([outcome({"a": 10.0}, {"a": float(b)})],
                                 targets={"a": 0.95}, rho=1e6,
                                 policy=PolicyVector({"a": 0}, {"a": 1})).z
              for b in betas]
        assert all(z2 >= z1 for z1, z2 in zip(zs, zs[1:]))


def loop_aggregate(outcomes, targets, rho, policy):
    """aggregate_outcomes as it was: one 1-D array per facility."""
    n = len(outcomes)
    fids = list(outcomes[0].avg_on_hand)
    total_on_hand = 0.0
    total_violation = 0.0
    for o in outcomes:
        for fid in fids:
            total_on_hand += o.avg_on_hand[fid]
            total_violation += max(0.0, targets[fid] - o.beta[fid])
    betas = {fid: np.array([o.beta[fid] for o in outcomes]) for fid in fids}
    mean_beta = {fid: float(betas[fid].mean()) for fid in fids}
    return ObjectiveReport(
        z=total_on_hand / n + rho * total_violation / n,
        mean_total_on_hand=total_on_hand / n,
        mean_violation=total_violation / n,
        replications=n,
        mean_beta=mean_beta,
        std_beta={fid: float(betas[fid].std()) for fid in fids},
        mean_on_hand={fid: float(np.mean([o.avg_on_hand[fid]
                                          for o in outcomes]))
                      for fid in fids},
        policy=policy,
        feasible=all(mean_beta[fid] >= targets[fid] for fid in fids))


def reordered(o, rng):
    """The same outcome, its dicts listing the facilities in new orders."""
    fids = list(o.avg_on_hand)
    on_hand_order, beta_order = ([fids[i] for i in rng.permutation(len(fids))]
                                 for _ in range(2))
    return outcome({fid: o.avg_on_hand[fid] for fid in on_hand_order},
                   {fid: o.beta[fid] for fid in beta_order})


@pytest.mark.parametrize("replications",
                         [1, 2, 7, 8, 9, 20, 33, 127, 128, 129, 257])
def test_aggregation_equals_the_per_facility_loop(replications):
    # 8 or more replications sum pairwise, and past 128 the pairwise sum
    # splits in halves: only a row-per-facility layout reduces in the
    # order the per-facility arrays did
    rng = np.random.default_rng(replications)
    for facilities in (1, 2, 5, 16):
        fids = [str(i) for i in range(facilities)]
        targets = dict(zip(fids, rng.uniform(0.8, 1.0, facilities)))
        policy = PolicyVector(dict.fromkeys(fids, 0), dict.fromkeys(fids, 1))
        for _ in range(20):
            outcomes = [outcome(dict(zip(fids, rng.uniform(0, 500,
                                                           facilities))),
                                dict(zip(fids, rng.uniform(0.5, 1.0,
                                                           facilities))))
                        for _ in range(replications)]
            want = loop_aggregate(outcomes, targets, 1e6, policy)
            assert aggregate_outcomes(outcomes, targets, 1e6, policy) == want
            # later outcomes may list their facilities in another order;
            # the fold reads them by id, as the loop does
            shuffled = outcomes[:1] + [reordered(o, rng)
                                       for o in outcomes[1:]]
            assert aggregate_outcomes(shuffled, targets, 1e6,
                                      policy) == want


def small_scenario():
    net = NetworkSpec([
        FacilitySpec("hub", SOURCE, 2, 0.0, False),
        FacilitySpec("store", "hub", 1, 0.9, True),
    ])
    pol = PolicyVector({"hub": 120, "store": 50}, {"hub": 360, "store": 150})
    hist = HistoryDataset(demand={"store": [3, 17, 31, 44]},
                          lead_delta={"hub": [0, 1, 3], "store": [0, 2]})
    cfg = ScenarioConfig(horizon=90, replications=4, base_seed=77)
    return net, pol, hist, cfg


class TestEvaluate:
    def test_repeated_calls_bit_identical(self):
        net, pol, hist, cfg = small_scenario()
        a = evaluate(pol, net, hist, cfg)
        b = evaluate(pol, net, hist, cfg)
        assert a.z == b.z
        assert a.mean_beta == b.mean_beta
        assert a.mean_on_hand == b.mean_on_hand

    def test_base_seed_changes_trajectory(self):
        net, pol, hist, cfg = small_scenario()
        a = evaluate(pol, net, hist, cfg)
        other = ScenarioConfig(horizon=cfg.horizon,
                               replications=cfg.replications,
                               base_seed=cfg.base_seed + 1)
        b = evaluate(pol, net, hist, other)
        assert a.z != b.z

    def test_z_bounded_below_by_mean_on_hand(self):
        net, pol, hist, cfg = small_scenario()
        report = evaluate(pol, net, hist, cfg)
        assert report.z >= report.mean_total_on_hand >= 0.0
        if report.mean_violation == 0.0:
            assert report.z == report.mean_total_on_hand

    @pytest.mark.parametrize("replications", [(1, 1), [2, 1], (1, 3, 2)])
    def test_replications_that_repeat_or_decrease_rejected(self,
                                                           replications):
        net, pol, hist, cfg = small_scenario()
        with pytest.raises(ValueError, match=r"^replications must be "
                           r"strictly increasing, got \["):
            evaluate(pol, net, hist, cfg, replications=replications)

    def test_report_carries_dispersion(self):
        net, pol, hist, cfg = small_scenario()
        report = evaluate(pol, net, hist, cfg)
        assert set(report.std_beta) == set(net.ids)
        assert all(s >= 0 for s in report.std_beta.values())


@pytest.mark.parametrize("choice", list(DemandChoice))
def test_replication_ranges_fold_into_the_full_report(choice, monkeypatch):
    # Replication n draws from the streams keyed by n, so the outcomes
    # evaluate folds for 1..k and for k+1..20, folded again in order, are
    # the report of 1..20 bit for bit
    cfg = load_config(PRESET)
    history = generate_synthetic_history(cfg.network, cfg.generator,
                                         cfg.scenario.base_seed)
    scenario = replace(cfg.scenario, demand_choice=choice, replications=20)
    args = (cfg.initial_policy, cfg.network, history, scenario)
    full = evaluate(*args)
    assert full.replications == 20
    folded = []
    fold = objective.aggregate_outcomes

    def recording(outcomes, *rest):
        folded.append(outcomes)
        return fold(outcomes, *rest)
    monkeypatch.setattr(objective, "aggregate_outcomes", recording)
    for k in range(1, 20):
        # the later range first: what ran before changes no outcome
        tail = evaluate(*args, replications=range(k + 1, 21))
        head = evaluate(*args, replications=range(1, k + 1))
        assert (head.replications, tail.replications) == (k, 20 - k)
        joined = fold(folded[-1] + folded[-2], cfg.network.targets,
                      scenario.penalty_rho, cfg.initial_policy)
        assert joined == full  # every field, floats compared exactly
