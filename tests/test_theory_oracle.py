"""The simulator against a theory oracle: one store's exact Markov chain.

The differential tests compare the engine with ``reference_engine.py``,
which restates the engine's rules in code and draws through the same
``sampling`` module, so a rule misread the same way in both would pass
them.  The oracle here shares no code with the engine.

Set-up: one customer store fed by SOURCE with ``base_stock > 2 x
reorder_point``.  An order is placed only when on-hand is at most R, so
it is for more than R units, and while it is outstanding the inventory
position stays above R: at most one order is ever outstanding, also
under backorders, since the backlog lowers neither the position nor the
order size.  The end-of-day state (net stock = on-hand - backlog, days
to arrival, quantity) is then a Markov chain.  Each day the arrival
lands; then ``max(0, demand - on_hand)`` units are lost, or late under
backorders (the engine's late rule, even when an older backlog takes
that stock first); net stock falls by the demand, at most to 0 under
lost sales; and with no order outstanding and ``max(net, 0) <= R`` the
store orders ``B - max(net, 0)``.  A lead of ``L + delta`` lands
``lead`` days later, and a lead of 0 lands the next morning.  Demand and
delta are uniform draws from the history samples.  The chain's
stationary distribution gives the exact long-run mean on-hand and fill
rate (Zipkin, *Foundations of Inventory Management*, 2000, on
periodic-review (s, S) systems).  Under backorders net stock has no
lower bound, so the chain truncates it where the stationary mass falls
under CUT_MASS.

The engine runs 20 replications x 5,000 days from fixed seeds, so the
test cannot flake.  Each measure must lie within TOLERANCE_SE standard
errors (across replications) of the chain's value.

What the oracle sees was checked by giving the chain a faulty input.
Under lost sales, a lead one day too long puts the engine 55-158
standard errors from it, and any one of the five lead samples never
drawn at least 12 on one measure.  Under backorders the same faults put
it 59-121 and at least 5 away.  Counting a day's own unshipped units as
late in place of the late rule moves the backlogged store's fill rate
13 standard errors, but the other two by under 2: there an arrival
seldom meets a backlog it does not clear.  Blind spot: one of 40 demand
samples never drawn moves a long-run average by little.  The median
over the 40 samples is 2.2-2.6 standard errors on on-hand and 0.2-3.5
on fill rate (lost sales), so only 8-15 of the 40 (those in the tails
of demand) exceed the tolerance.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from echelonopt.engine import sim_network
from echelonopt.model import (
    SOURCE,
    DemandChoice,
    FacilitySpec,
    HistoryDataset,
    NetworkSpec,
    PolicyVector,
    ScenarioConfig,
)

REPLICATIONS = 20
HORIZON = 5_000
TOLERANCE_SE = 4.0  # fixed once; twelve comparisons, no tuning
CUT_MASS = 1e-12  # stationary mass a backlog truncation may cut off
INITIAL_FRACTION = ScenarioConfig().initial_inventory_fraction


def stationary_measures(base_stock, reorder_point, base_lead, demand,
                        lead_delta, backorder=False):
    """Long-run mean end-of-day on-hand and fill rate of the store's
    chain.  Under backorders net stock is truncated from below at the
    first of -B, -2B, -4B, ... that holds under CUT_MASS of the
    stationary mass."""
    floors = [-base_stock * 2 ** k for k in range(6)] if backorder else [0]
    for floor in floors:
        pi, net, short = stationary_chain(base_stock, reorder_point,
                                          base_lead, demand, lead_delta,
                                          floor)
        cut = float(pi[net == floor].sum()) if backorder else 0.0
        if cut < CUT_MASS:
            break
    assert cut < CUT_MASS  # the mass the truncation cut off
    return (float(pi @ np.maximum(net, 0)),
            1.0 - float(pi @ short) / np.mean(demand))


def stationary_chain(base_stock, reorder_point, base_lead, demand,
                     lead_delta, floor):
    """Stationary distribution of the store's chain, built from the
    engine's initial state outward, with each state's net stock (on-hand
    less backlog) and expected short units: lost, or late under
    backorders.  Each day's net stock is truncated below at ``floor``;
    under lost sales ``floor`` is 0 and cuts nothing."""
    demands, counts = np.unique(demand, return_counts=True)
    p_demand = counts / len(demand)
    leads, counts = np.unique(base_lead + np.asarray(lead_delta),
                              return_counts=True)
    arrivals = [(max(lead, 1), p)  # a lead of 0 lands next morning
                for lead, p in zip(leads.tolist(), counts / len(lead_delta))]
    # a state is (net stock, days to arrival, quantity); (n, 0, 0) has no
    # order outstanding
    states = [(round(INITIAL_FRACTION * base_stock), 0, 0)]
    index = {states[0]: 0}
    rows, cols, probs, short = [], [], [], []
    for i, (net, days, quantity) in enumerate(states):  # grows as read
        on_hand = max(net, 0)
        if days == 1:  # arrivals; the backlog waits for customer service
            on_hand, net, days, quantity = (on_hand + quantity,
                                            net + quantity, 0, 0)
        elif days:
            days -= 1
        # the late rule: demand beyond the day's on-hand stock
        short.append(p_demand @ np.maximum(demands - on_hand, 0))
        for d, p in zip(demands.tolist(), p_demand):
            left = max(net - d, floor)
            if days == 0 and max(left, 0) <= reorder_point:
                successors = [((left, a, base_stock - max(left, 0)), p * q)
                              for a, q in arrivals]
            else:
                successors = [((left, days, quantity), p)]
            for state, prob in successors:
                if state not in index:
                    index[state] = len(states)
                    states.append(state)
                rows.append(i)
                cols.append(index[state])
                probs.append(prob)
    n = len(states)  # lost sales 68-1,435, backorders 434-6,748
    transition = sparse.csr_matrix((probs, (rows, cols)), shape=(n, n))
    # pi P = pi with one balance equation replaced by sum(pi) = 1
    system = (transition.T - sparse.identity(n)).tolil()
    system[0, :] = np.ones(n)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = spsolve(system.tocsc(), rhs)
    assert np.abs(transition.T @ pi - pi).max() < 1e-12
    return pi, np.array([s[0] for s in states]), np.array(short)


def engine_measures(base_stock, reorder_point, base_lead, demand,
                    lead_delta, seed, choice=DemandChoice.LOST_SALES):
    """Per-replication mean on-hand and fill rate from ``sim_network``."""
    network = NetworkSpec([FacilitySpec("store", SOURCE, base_lead, 0.9,
                                        True)])
    history = HistoryDataset(demand={"store": demand},
                             lead_delta={"store": lead_delta})
    policy = PolicyVector({"store": reorder_point}, {"store": base_stock})
    scenario = ScenarioConfig(horizon=HORIZON, replications=REPLICATIONS,
                              demand_choice=choice, base_seed=seed)
    outcomes = [sim_network(network, policy, history, scenario, r)
                for r in range(1, REPLICATIONS + 1)]
    return (np.array([o.avg_on_hand["store"] for o in outcomes]),
            np.array([o.beta["store"] for o in outcomes]))


def standard_errors_apart(samples, exact):
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    return abs(samples.mean() - exact) / se


# (base stock, reorder point, base lead time, demand mean, lead deltas);
# each store's 40 demand samples are Poisson draws from its own seed
STORES = {
    "lead-1": (30, 10, 1, 4.0, [0, 1, 1, 2, 3]),
    "lead-3": (60, 25, 3, 6.0, [0, 0, 1, 2, 4]),
    "lead-0": (25, 8, 0, 3.0, [0, 0, 0, 1, 2]),
}


@pytest.mark.parametrize("seed,name", enumerate(STORES, start=11),
                         ids=list(STORES))
def test_engine_matches_the_stationary_chain(seed, name):
    base_stock, reorder_point, base_lead, mean, lead_delta = STORES[name]
    assert base_stock > 2 * reorder_point  # at most one order outstanding
    demand = np.random.default_rng(seed).poisson(mean, 40)
    on_hand, fill = stationary_measures(base_stock, reorder_point,
                                        base_lead, demand, lead_delta)
    sim_on_hand, sim_fill = engine_measures(base_stock, reorder_point,
                                            base_lead, demand, lead_delta,
                                            seed)
    assert standard_errors_apart(sim_on_hand, on_hand) < TOLERANCE_SE
    assert standard_errors_apart(sim_fill, fill) < TOLERANCE_SE


# the backlog makes net stock unbounded below; in the third store the
# longer leads bring more demand than B, so an arrival often leaves a
# backlog
BACKORDER_STORES = {
    "lead-1": STORES["lead-1"],
    "lead-3": STORES["lead-3"],
    "backlogged": (40, 12, 4, 5.0, [0, 1, 2, 3, 5]),
}


@pytest.mark.parametrize("seed,name", enumerate(BACKORDER_STORES, start=21),
                         ids=list(BACKORDER_STORES))
def test_engine_matches_the_backorder_chain(seed, name):
    base_stock, reorder_point, base_lead, mean, lead_delta = \
        BACKORDER_STORES[name]
    assert base_stock > 2 * reorder_point  # at most one order outstanding
    demand = np.random.default_rng(seed).poisson(mean, 40)
    on_hand, beta = stationary_measures(base_stock, reorder_point,
                                        base_lead, demand, lead_delta,
                                        backorder=True)
    sim_on_hand, sim_beta = engine_measures(base_stock, reorder_point,
                                            base_lead, demand, lead_delta,
                                            seed, DemandChoice.BACKORDER)
    assert standard_errors_apart(sim_on_hand, on_hand) < TOLERANCE_SE
    assert standard_errors_apart(sim_beta, beta) < TOLERANCE_SE
